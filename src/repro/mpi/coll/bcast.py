"""Broadcast algorithms: binomial tree and scatter-ring-allgather.

Binomial costs ``ceil(log2 p)`` latencies of the full message — optimal
for small messages.  Scatter-allgather moves ``2n(p-1)/p`` bytes over
``log p + p - 1`` pipelined steps — the classic large-message choice.
"""

from __future__ import annotations

from repro.mpi.coll._util import chunk_bounds
from repro.mpi.datatypes import Datatype


def bcast_binomial(comm, buf, count: int, dt: Datatype, root: int) -> None:
    """Binomial-tree broadcast (MPICH's small-message default)."""
    rank, p = comm.rank, comm.size
    if p == 1:
        return
    tag = comm.next_coll_tag()
    rel = (rank - root) % p
    mask = 1
    while mask < p:
        if rel & mask:
            src = (rel - mask + root) % p
            comm._recv(buf, 0, count, src, tag, dt)
            break
        mask <<= 1
    mask >>= 1
    while mask > 0:
        if rel + mask < p:
            dst = (rel + mask + root) % p
            comm._send(buf, 0, count, dst, tag, dt)
        mask >>= 1


def bcast_scatter_ring_allgather(comm, buf, count: int, dt: Datatype,
                                 root: int) -> None:
    """Large-message broadcast: binomial scatter of chunks, then a ring
    allgather stitches the pieces together."""
    rank, p = comm.rank, comm.size
    if p == 1:
        return
    if count < p:  # degenerate: chunks would be empty
        bcast_binomial(comm, buf, count, dt, root)
        return
    tag = comm.next_coll_tag()
    rel = (rank - root) % p
    bounds = chunk_bounds(count, p)

    def span(chunk_lo: int, chunk_hi: int):
        """(offset, size) covering relative chunks [chunk_lo, chunk_hi)."""
        off = bounds[chunk_lo][0]
        end = bounds[chunk_hi - 1][0] + bounds[chunk_hi - 1][1]
        return off, end - off

    # --- binomial scatter: relative rank r ends up owning chunk r ----
    # each tree node holds relative chunks [rel, rel + extent)
    extent = p
    mask = 1
    while mask < p:
        if rel & mask:
            src = (rel - mask + root) % p
            extent = min(mask, p - rel)
            off, size = span(rel, rel + extent)
            comm._recv(buf, off, size, src, tag, dt)
            break
        mask <<= 1
    if rel == 0:
        extent = p
    mask >>= 1
    while mask > 0:
        if rel + mask < p:
            child = (rel + mask + root) % p
            child_extent = min(mask, p - (rel + mask))
            off, size = span(rel + mask, rel + mask + child_extent)
            comm._send(buf, off, size, child, tag, dt)
            extent = mask
        mask >>= 1

    # --- ring allgather of the p chunks (indexed by relative rank) ----
    right = (rank + 1) % p
    left = (rank - 1) % p
    for step in range(p - 1):
        send_chunk = (rel - step) % p
        recv_chunk = (rel - step - 1) % p
        soff, ssize = bounds[send_chunk]
        roff, rsize = bounds[recv_chunk]
        comm._sendrecv(buf, soff, ssize, right, buf, roff, rsize, left,
                       tag + 1, tag + 1, dt)
