"""Alltoall algorithms: scattered, pairwise, Bruck, and the vector form.

Scattered (all nonblocking sends/recvs at once) suits small-to-medium
messages; pairwise exchange serializes into ``p-1`` balanced rounds for
large messages; Bruck trades ``log p`` rounds for ``n/2 * log p`` extra
volume — the very-small-message winner.
"""

from __future__ import annotations

import numpy as np

from repro.mpi.compute import (
    acquire_staging, copy_window, move_blocks, release_staging,
)
from repro.mpi.datatypes import Datatype


def alltoall_scattered(comm, sendbuf, recvbuf, count: int, dt: Datatype) -> None:
    """Post every irecv and isend, then complete them all."""
    rank, p = comm.rank, comm.size
    tag = comm.next_coll_tag()
    copy_window(comm, recvbuf, rank * count, sendbuf, rank * count, count)
    reqs = []
    for off in range(1, p):
        src = (rank - off) % p
        reqs.append(comm._irecv(recvbuf, src * count, count, src, tag, dt))
    for off in range(1, p):
        dst = (rank + off) % p
        reqs.append(comm._isend(sendbuf, dst * count, count, dst, tag, dt))
    comm._waitall(reqs)


def alltoall_pairwise(comm, sendbuf, recvbuf, count: int, dt: Datatype) -> None:
    """Pairwise exchange: step ``s`` trades blocks with ranks ±s."""
    rank, p = comm.rank, comm.size
    tag = comm.next_coll_tag()
    copy_window(comm, recvbuf, rank * count, sendbuf, rank * count, count)
    for step in range(1, p):
        dst = (rank + step) % p
        src = (rank - step) % p
        comm._sendrecv(sendbuf, dst * count, count, dst,
                       recvbuf, src * count, count, src, tag, tag, dt)


def alltoall_bruck(comm, sendbuf, recvbuf, count: int, dt: Datatype) -> None:
    """Bruck alltoall: rotate, ``ceil(log2 p)`` packed exchanges,
    rotate back."""
    rank, p = comm.rank, comm.size
    tag = comm.next_coll_tag()
    if p == 1:
        copy_window(comm, recvbuf, 0, sendbuf, 0, count)
        return
    itemsize = dt.storage.itemsize
    tmp = acquire_staging(comm, sendbuf, p * count, dt.storage)
    half = (p + 1) // 2
    pack = acquire_staging(comm, sendbuf, half * count, dt.storage)
    unpack = acquire_staging(comm, sendbuf, half * count, dt.storage)
    try:
        # each permutation is one block gather or scatter with one
        # explicit virtual-time charge for the packed copy; the scratch
        # follows ``sendbuf``, and storage-free scratch is neither
        # gathered into nor landed from
        every = np.arange(p)
        whole = 0.2 + p * count * itemsize / 24000.0
        # phase 1: tmp[i] = block destined to rank (rank + i) % p
        move_blocks(comm, tmp, None, sendbuf, (every + rank) % p, count,
                    whole)

        # phase 2: for each bit, ship the blocks whose index has that bit set
        bit = 1
        while bit < p:
            idxs = every[every & bit != 0]
            n = len(idxs) * count
            packed = 0.2 + n * itemsize / 24000.0
            move_blocks(comm, pack, None, tmp, idxs, count, packed)
            dst = (rank + bit) % p
            src = (rank - bit) % p
            comm._sendrecv(pack, 0, n, dst, unpack, 0, n, src, tag, tag, dt)
            move_blocks(comm, tmp, idxs, unpack, None, count, packed)
            bit <<= 1

        # phase 3: tmp[(rank - src) % p] holds the block from `src`
        move_blocks(comm, recvbuf, None, tmp, (rank - every) % p, count,
                    whole)
    finally:
        release_staging(comm, unpack)
        release_staging(comm, pack)
        release_staging(comm, tmp)


def alltoallv_scattered(comm, sendbuf, sendcounts, sdispls,
                        recvbuf, recvcounts, rdispls, dt: Datatype) -> None:
    """Scattered ``MPI_Alltoallv`` (the baseline Listing 1 compares
    against)."""
    rank, p = comm.rank, comm.size
    tag = comm.next_coll_tag()
    copy_window(comm, recvbuf, rdispls[rank], sendbuf, sdispls[rank],
                sendcounts[rank])
    reqs = []
    for off in range(1, p):
        src = (rank - off) % p
        if recvcounts[src]:
            reqs.append(comm._irecv(recvbuf, rdispls[src], recvcounts[src],
                                    src, tag, dt))
    for off in range(1, p):
        dst = (rank + off) % p
        if sendcounts[dst]:
            reqs.append(comm._isend(sendbuf, sdispls[dst], sendcounts[dst],
                                    dst, tag, dt))
    comm._waitall(reqs)
