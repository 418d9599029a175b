"""Reduce algorithms: binomial tree and reduce-scatter + gather.

Binomial is latency-optimal (``log p`` rounds of the full message);
for large messages reduce-scatter + gather halves the per-link byte
volume at the cost of more rounds (Rabenseifner's reduce).
"""

from __future__ import annotations

from repro.mpi.coll._util import chunk_bounds, is_inplace, materialize_input
from repro.mpi.compute import (
    acquire_staging, copy_window, reduce_window, release_staging,
)
from repro.mpi.datatypes import Datatype
from repro.mpi.ops import Op


def reduce_binomial(comm, sendbuf, recvbuf, count: int, dt: Datatype,
                    op: Op, root: int) -> None:
    """Binomial-tree reduce (commutative ops; MPICH small-message
    default)."""
    rank, p = comm.rank, comm.size
    tag = comm.next_coll_tag()
    # accumulate into recvbuf at root, into scratch elsewhere
    scratch_acc = None
    if rank == root:
        acc = recvbuf
        materialize_input(comm, sendbuf, recvbuf, count)
    else:
        acc = scratch_acc = acquire_staging(
            comm, sendbuf if not is_inplace(sendbuf) else recvbuf,
            count, dt.storage)
        src = recvbuf if is_inplace(sendbuf) else sendbuf
        copy_window(comm, acc, 0, src, 0, count)
    if p == 1:
        if scratch_acc is not None:
            release_staging(comm, scratch_acc)
        return
    tmp = acquire_staging(comm, acc, count, dt.storage)
    try:
        rel = (rank - root) % p
        mask = 1
        while mask < p:
            if rel & mask:
                dst = (rel - mask + root) % p
                comm._send(acc, 0, count, dst, tag, dt)
                break
            partner = rel | mask
            if partner < p:
                src_rank = (partner + root) % p
                comm._recv(tmp, 0, count, src_rank, tag, dt)
                reduce_window(comm, op, acc, 0, tmp, 0, count)
            mask <<= 1
    finally:
        release_staging(comm, tmp)
        if scratch_acc is not None:
            release_staging(comm, scratch_acc)


def reduce_linear(comm, sendbuf, recvbuf, count: int, dt: Datatype,
                  op: Op, root: int) -> None:
    """Rank-ordered linear reduce — the only valid choice for
    non-commutative ops."""
    rank, p = comm.rank, comm.size
    tag = comm.next_coll_tag()
    contrib = recvbuf if is_inplace(sendbuf) else sendbuf
    if rank != root:
        comm._send(contrib, 0, count, root, tag, dt)
        return
    acc = acquire_staging(comm, recvbuf, count, dt.storage)
    tmp = acquire_staging(comm, recvbuf, count, dt.storage)
    try:
        # reduce in rank order 0..p-1
        first = True
        for r in range(p):
            if r == rank:
                chunk = contrib
            else:
                comm._recv(tmp, 0, count, r, tag, dt)
                chunk = tmp
            if first:
                copy_window(comm, acc, 0, chunk, 0, count)
                first = False
            else:
                reduce_window(comm, op, acc, 0, chunk, 0, count)
        copy_window(comm, recvbuf, 0, acc, 0, count)
    finally:
        release_staging(comm, tmp)
        release_staging(comm, acc)


def reduce_scatter_gather(comm, sendbuf, recvbuf, count: int, dt: Datatype,
                          op: Op, root: int) -> None:
    """Large-message reduce: pairwise reduce-scatter, then gather the
    reduced chunks to the root (Rabenseifner-style)."""
    from repro.mpi.coll.reduce_scatter import reduce_scatter_pairwise_ranges
    rank, p = comm.rank, comm.size
    if p == 1:
        if rank == root:
            materialize_input(comm, sendbuf, recvbuf, count)
        return
    if count < p:
        reduce_binomial(comm, sendbuf, recvbuf, count, dt, op, root)
        return
    tag = comm.next_coll_tag()
    bounds = chunk_bounds(count, p)
    contrib = recvbuf if is_inplace(sendbuf) else sendbuf
    work = acquire_staging(comm, contrib, count, dt.storage)
    try:
        copy_window(comm, work, 0, contrib, 0, count)
        reduce_scatter_pairwise_ranges(comm, work, bounds, dt, op, tag)
        # gather: every rank owns reduced chunk `rank`; send to root
        my_off, my_size = bounds[rank]
        if rank == root:
            copy_window(comm, recvbuf, my_off, work, my_off, my_size)
            for r in range(p):
                if r == root:
                    continue
                off, size = bounds[r]
                if size:
                    comm._recv(recvbuf, off, size, r, tag + 1, dt)
        else:
            if my_size:
                comm._send(work, my_off, my_size, root, tag + 1, dt)
            # ranks with empty chunks still must not desync tags
    finally:
        release_staging(comm, work)
