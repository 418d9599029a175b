"""Gather/Scatter algorithms: binomial trees and linear fallbacks.

Binomial halves the round count for small messages; linear is the
large-message choice (the root link is the bottleneck either way, and
the tree would move interior data twice).
"""

from __future__ import annotations

from repro.mpi.coll._util import is_inplace, seg
from repro.mpi.compute import acquire_staging, local_copy, release_staging
from repro.mpi.datatypes import Datatype


def gather_linear(comm, sendbuf, recvbuf, count: int, dt: Datatype,
                  root: int) -> None:
    """Everyone sends straight to the root."""
    rank, p = comm.rank, comm.size
    tag = comm.next_coll_tag()
    if rank == root:
        if not is_inplace(sendbuf):
            local_copy(comm.ctx, seg(recvbuf, rank * count, count),
                       seg(sendbuf, 0, count))
        for r in range(p):
            if r != root:
                comm._recv(recvbuf, r * count, count, r, tag, dt)
    else:
        comm._send(sendbuf, 0, count, root, tag, dt)


def gather_binomial(comm, sendbuf, recvbuf, count: int, dt: Datatype,
                    root: int) -> None:
    """Binomial-tree gather: subtree data rides up in contiguous
    relative-rank order, then the root unrotates."""
    rank, p = comm.rank, comm.size
    tag = comm.next_coll_tag()
    if p == 1:
        if rank == root and not is_inplace(sendbuf):
            local_copy(comm.ctx, seg(recvbuf, root * count, count),
                       seg(sendbuf, 0, count))
        return
    rel = (rank - root) % p
    # scratch indexed by relative rank; slot 0 = my own block
    work = acquire_staging(
        comm.ctx, sendbuf if not is_inplace(sendbuf) else recvbuf,
        p * count, dt.storage)
    try:
        own = seg(recvbuf, rank * count, count) if is_inplace(sendbuf) \
            else seg(sendbuf, 0, count)
        local_copy(comm.ctx, seg(work, 0, count), own)
        have = 1  # blocks held, starting at relative rank `rel`
        mask = 1
        while mask < p:
            if rel & mask:
                parent = ((rel - mask) + root) % p
                comm._send(work, 0, have * count, parent, tag, dt)
                break
            child_rel = rel | mask
            if child_rel < p:
                child = (child_rel + root) % p
                child_have = min(mask, p - child_rel)
                comm._recv(work, mask * count, child_have * count, child,
                           tag, dt)
                have = mask + child_have
            mask <<= 1
        if rel == 0:
            # work[j] = block of rank (root + j) % p; unrotate into recvbuf
            for j in range(p):
                r = (root + j) % p
                local_copy(comm.ctx, seg(recvbuf, r * count, count),
                           seg(work, j * count, count), charge=False)
            comm.ctx.clock.advance(
                0.2 + p * count * dt.storage.itemsize / 24000.0)
    finally:
        release_staging(comm.ctx, work)


def gatherv_linear(comm, sendbuf, recvbuf, counts, displs, dt: Datatype,
                   root: int) -> None:
    """Linear ``MPI_Gatherv``."""
    rank, p = comm.rank, comm.size
    tag = comm.next_coll_tag()
    if rank == root:
        if not is_inplace(sendbuf):
            local_copy(comm.ctx, seg(recvbuf, displs[rank], counts[rank]),
                       seg(sendbuf, 0, counts[rank]))
        for r in range(p):
            if r != root and counts[r]:
                comm._recv(recvbuf, displs[r], counts[r], r, tag, dt)
    elif counts[rank]:
        comm._send(sendbuf, 0, counts[rank], root, tag, dt)


def scatter_linear(comm, sendbuf, recvbuf, count: int, dt: Datatype,
                   root: int) -> None:
    """Root sends each rank its block directly."""
    rank, p = comm.rank, comm.size
    tag = comm.next_coll_tag()
    if rank == root:
        for r in range(p):
            if r != root:
                comm._send(sendbuf, r * count, count, r, tag, dt)
        if not is_inplace(recvbuf):
            local_copy(comm.ctx, seg(recvbuf, 0, count),
                       seg(sendbuf, rank * count, count))
    else:
        comm._recv(recvbuf, 0, count, root, tag, dt)


def scatter_binomial(comm, sendbuf, recvbuf, count: int, dt: Datatype,
                     root: int) -> None:
    """Binomial-tree scatter (mirror of the binomial gather)."""
    rank, p = comm.rank, comm.size
    tag = comm.next_coll_tag()
    if p == 1:
        if not is_inplace(recvbuf):
            local_copy(comm.ctx, seg(recvbuf, 0, count),
                       seg(sendbuf, root * count, count))
        return
    rel = (rank - root) % p
    work = acquire_staging(comm.ctx, recvbuf, p * count, dt.storage)
    try:
        have = 0
        if rel == 0:
            # rotate into relative order: work[j] = block of (root + j) % p
            for j in range(p):
                r = (root + j) % p
                local_copy(comm.ctx, seg(work, j * count, count),
                           seg(sendbuf, r * count, count), charge=False)
            comm.ctx.clock.advance(
                0.2 + p * count * dt.storage.itemsize / 24000.0)
            have = p
            mask = _largest_pof2(p)
        else:
            mask = 1
            while mask < p:
                if rel & mask:
                    parent = ((rel - mask) + root) % p
                    have = min(mask, p - rel)
                    comm._recv(work, 0, have * count, parent, tag, dt)
                    break
                mask <<= 1
            # children masks mirror binomial bcast: below my lowest set bit
            mask = (rel & -rel) >> 1
        while mask > 0:
            child_rel = rel + mask
            if child_rel < p and have > mask:
                child = (child_rel + root) % p
                child_cnt = min(have - mask, mask)
                comm._send(work, mask * count, child_cnt * count, child,
                           tag, dt)
                have = mask
            mask >>= 1
        local_copy(comm.ctx, seg(recvbuf, 0, count), seg(work, 0, count))
    finally:
        release_staging(comm.ctx, work)


def scatterv_linear(comm, sendbuf, counts, displs, recvbuf, dt: Datatype,
                    root: int) -> None:
    """Linear ``MPI_Scatterv``."""
    rank, p = comm.rank, comm.size
    tag = comm.next_coll_tag()
    if rank == root:
        for r in range(p):
            if r != root and counts[r]:
                comm._send(sendbuf, displs[r], counts[r], r, tag, dt)
        local_copy(comm.ctx, seg(recvbuf, 0, counts[rank]),
                   seg(sendbuf, displs[rank], counts[rank]))
    elif counts[rank]:
        comm._recv(recvbuf, 0, counts[rank], root, tag, dt)


def _largest_pof2(p: int) -> int:
    x = 1
    while x * 2 < p:
        x *= 2
    return x
