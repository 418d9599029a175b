"""Reduce-scatter algorithms: recursive halving and pairwise exchange.

Recursive halving does ``log p`` rounds with halving volume (power-of-
two ranks, commutative ops).  Pairwise exchange works for any rank
count with ``p-1`` rounds of ``n/p``-sized messages.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.mpi.coll._util import chunk_bounds, is_inplace
from repro.mpi.compute import (
    acquire_staging, copy_window, reduce_window, release_staging,
)
from repro.mpi.datatypes import Datatype
from repro.mpi.ops import Op


def reduce_scatter_pairwise_ranges(comm, work, bounds: List[Tuple[int, int]],
                                   dt: Datatype, op: Op, tag: int) -> None:
    """In-place pairwise reduce-scatter over ``work``.

    On return, chunk ``rank`` of ``work`` (per ``bounds``) holds the
    full reduction; other chunks are garbage.  Shared by reduce and
    reduce_scatter entry points.
    """
    rank, p = comm.rank, comm.size
    my_off, my_size = bounds[rank]
    tmp = acquire_staging(comm, work, max(size for _, size in bounds) or 1,
                          dt.storage)
    try:
        for step in range(1, p):
            dst = (rank + step) % p
            src = (rank - step) % p
            doff, dsize = bounds[dst]
            if dsize or my_size:
                comm._sendrecv(work, doff, dsize, dst, tmp, 0, my_size, src,
                               tag, tag, dt)
            if my_size:
                reduce_window(comm, op, work, my_off, tmp, 0, my_size)
    finally:
        release_staging(comm, tmp)


def reduce_scatter_recursive_halving(comm, sendbuf, recvbuf, count: int,
                                     dt: Datatype, op: Op) -> None:
    """Recursive-halving reduce-scatter (power-of-two ranks,
    commutative op; callers guard).  ``count`` is per-rank output."""
    rank, p = comm.rank, comm.size
    total = count * p
    tag = comm.next_coll_tag()
    contrib = recvbuf if is_inplace(sendbuf) else sendbuf
    work = acquire_staging(comm, contrib, total, dt.storage)
    tmp = acquire_staging(comm, work, total // 2 if p > 1 else 1,
                          dt.storage)
    try:
        # in place, recvbuf holds the full vector
        copy_window(comm, work, 0, contrib, 0, total)

        lo, hi = 0, p
        step = p // 2
        while step >= 1:
            mid = lo + step
            half = step * count
            if rank < mid:
                partner = rank + step
                # keep [lo, mid): send partner's half, receive mine
                comm._sendrecv(work, mid * count, half, partner,
                               tmp, 0, half, partner, tag, tag, dt)
                reduce_window(comm, op, work, lo * count, tmp, 0, half)
                hi = mid
            else:
                partner = rank - step
                comm._sendrecv(work, lo * count, half, partner,
                               tmp, 0, half, partner, tag, tag, dt)
                reduce_window(comm, op, work, mid * count, tmp, 0, half)
                lo = mid
            step //= 2
        copy_window(comm, recvbuf, 0, work, rank * count, count)
    finally:
        release_staging(comm, tmp)
        release_staging(comm, work)


def reduce_scatter_pairwise(comm, sendbuf, recvbuf, count: int,
                            dt: Datatype, op: Op) -> None:
    """Pairwise-exchange reduce-scatter (any p, commutative op).
    ``count`` is the per-rank output size."""
    rank, p = comm.rank, comm.size
    total = count * p
    tag = comm.next_coll_tag()
    contrib = recvbuf if is_inplace(sendbuf) else sendbuf
    work = acquire_staging(comm, contrib, total, dt.storage)
    try:
        copy_window(comm, work, 0, contrib, 0, total)
        bounds = chunk_bounds(total, p) if count * p != total else \
            [(r * count, count) for r in range(p)]
        reduce_scatter_pairwise_ranges(comm, work, bounds, dt, op, tag)
        copy_window(comm, recvbuf, 0, work, rank * count, count)
    finally:
        release_staging(comm, work)
