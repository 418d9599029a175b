"""Allgather algorithms: ring, recursive doubling, Bruck.

Ring is bandwidth-optimal (``p-1`` steps of one block); recursive
doubling is latency-optimal for power-of-two ranks; Bruck handles any
rank count in ``ceil(log2 p)`` rounds — the small-message choice.
"""

from __future__ import annotations

import numpy as np

from repro.mpi.coll._util import is_inplace, uniform_blocks
from repro.mpi.compute import (
    acquire_staging, copy_window, move_blocks, release_staging,
)
from repro.mpi.datatypes import Datatype


def _materialize_own_block(comm, sendbuf, recvbuf, count: int) -> None:
    """Place this rank's contribution at its block of recvbuf."""
    if not is_inplace(sendbuf):
        copy_window(comm, recvbuf, comm.rank * count, sendbuf, 0, count)


def allgather_ring(comm, sendbuf, recvbuf, count: int, dt: Datatype) -> None:
    """Ring allgather: block ``(rank-step) % p`` flows rightward
    (:func:`allgatherv_ring` on equal blocks)."""
    allgatherv_ring(comm, sendbuf, recvbuf, *uniform_blocks(count, comm.size),
                    dt)


def allgather_recursive_doubling(comm, sendbuf, recvbuf, count: int,
                                 dt: Datatype) -> None:
    """Recursive-doubling allgather (power-of-two ranks; callers
    guard)."""
    rank, p = comm.rank, comm.size
    tag = comm.next_coll_tag()
    _materialize_own_block(comm, sendbuf, recvbuf, count)
    mask = 1
    while mask < p:
        partner = rank ^ mask
        my_lo = (rank // mask) * mask          # aligned owned region
        partner_lo = my_lo ^ mask
        comm._sendrecv(recvbuf, my_lo * count, mask * count, partner,
                       recvbuf, partner_lo * count, mask * count, partner,
                       tag, tag, dt)
        mask <<= 1


def allgather_bruck(comm, sendbuf, recvbuf, count: int, dt: Datatype) -> None:
    """Bruck allgather: ``ceil(log2 p)`` rounds, any p, one final local
    rotation."""
    rank, p = comm.rank, comm.size
    tag = comm.next_coll_tag()
    if p == 1:
        _materialize_own_block(comm, sendbuf, recvbuf, count)
        return
    tmp = acquire_staging(comm, recvbuf, p * count, dt.storage)
    try:
        if is_inplace(sendbuf):
            copy_window(comm, tmp, 0, recvbuf, rank * count, count)
        else:
            copy_window(comm, tmp, 0, sendbuf, 0, count)
        have = 1
        while have < p:
            cnt = min(have, p - have)
            dst = (rank - have) % p
            src = (rank + have) % p
            comm._sendrecv(tmp, 0, cnt * count, dst, tmp, have * count,
                           cnt * count, src, tag, tag, dt)
            have += cnt
        # tmp[j] holds block of rank (rank + j) % p; rotate into place
        move_blocks(comm, recvbuf, (rank + np.arange(p)) % p, tmp, None,
                    count, 0.2 + p * count * dt.storage.itemsize / 24000.0)
    finally:
        release_staging(comm, tmp)


def allgatherv_ring(comm, sendbuf, recvbuf, counts, displs,
                    dt: Datatype) -> None:
    """Ring allgather with per-rank block sizes (``MPI_Allgatherv``)."""
    rank, p = comm.rank, comm.size
    tag = comm.next_coll_tag()
    if not is_inplace(sendbuf):
        copy_window(comm, recvbuf, displs[rank], sendbuf, 0, counts[rank])
    if p == 1:
        return
    right = (rank + 1) % p
    left = (rank - 1) % p
    for step in range(p - 1):
        sb = (rank - step) % p
        rb = (rank - step - 1) % p
        comm._sendrecv(recvbuf, displs[sb], counts[sb], right,
                       recvbuf, displs[rb], counts[rb], left, tag, tag, dt)
