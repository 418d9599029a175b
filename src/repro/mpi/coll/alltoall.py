"""Alltoall algorithms: scattered, pairwise, Bruck, and the vector form.

Scattered (all nonblocking sends/recvs at once) suits small-to-medium
messages; pairwise exchange serializes into ``p-1`` balanced rounds for
large messages; Bruck trades ``log p`` rounds for ``n/2 * log p`` extra
volume — the very-small-message winner.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.errors import InvalidBufferError
from repro.hw.memory import NO_CONTENTS, as_array
from repro.mpi.coll._util import seg
from repro.mpi.compute import acquire_staging, local_copy, release_staging
from repro.mpi.datatypes import Datatype
from repro.mpi.request import waitall


def alltoall_scattered(comm, sendbuf, recvbuf, count: int, dt: Datatype) -> None:
    """Post every irecv and isend, then complete them all."""
    rank, p = comm.rank, comm.size
    tag = comm.next_coll_tag()
    local_copy(comm.ctx, seg(recvbuf, rank * count, count),
               seg(sendbuf, rank * count, count))
    reqs = []
    for off in range(1, p):
        src = (rank - off) % p
        reqs.append(comm.Irecv(seg(recvbuf, src * count, count),
                               source=src, tag=tag, count=count, datatype=dt))
    for off in range(1, p):
        dst = (rank + off) % p
        reqs.append(comm.Isend(seg(sendbuf, dst * count, count),
                               dst, tag, count=count, datatype=dt))
    waitall(reqs)


def alltoall_pairwise(comm, sendbuf, recvbuf, count: int, dt: Datatype) -> None:
    """Pairwise exchange: step ``s`` trades blocks with ranks ±s."""
    rank, p = comm.rank, comm.size
    tag = comm.next_coll_tag()
    local_copy(comm.ctx, seg(recvbuf, rank * count, count),
               seg(sendbuf, rank * count, count))
    for step in range(1, p):
        dst = (rank + step) % p
        src = (rank - step) % p
        comm.Sendrecv(seg(sendbuf, dst * count, count), dst,
                      seg(recvbuf, src * count, count), src,
                      sendtag=tag, datatype=dt)


#: compiled Bruck geometry per (p, rank): the phase-1/3 rotation
#: permutations and, per bit, the packed block indices.
_BRUCK_GEOMETRY: Dict[Tuple[int, int], Tuple] = {}


def _bruck_geometry(p: int, rank: int) -> Tuple:
    geom = _BRUCK_GEOMETRY.get((p, rank))
    if geom is None:
        rot_in = np.arange(p)
        rot_in = (rot_in + rank) % p          # phase 1: tmp[i] = send[(rank+i)%p]
        rot_out = (rank - np.arange(p)) % p   # phase 3: recv[s] = tmp[(rank-s)%p]
        bits = []
        bit = 1
        while bit < p:
            bits.append((bit, np.array([i for i in range(p) if i & bit])))
            bit <<= 1
        geom = (rot_in, rot_out, tuple(bits))
        if len(_BRUCK_GEOMETRY) > 1 << 12:
            _BRUCK_GEOMETRY.clear()
        _BRUCK_GEOMETRY[(p, rank)] = geom
    return geom


def alltoall_bruck(comm, sendbuf, recvbuf, count: int, dt: Datatype) -> None:
    """Bruck alltoall: rotate, ``ceil(log2 p)`` packed exchanges,
    rotate back."""
    rank, p = comm.rank, comm.size
    tag = comm.next_coll_tag()
    if p == 1:
        local_copy(comm.ctx, seg(recvbuf, 0, count), seg(sendbuf, 0, count))
        return
    itemsize = dt.storage.itemsize
    tmp = acquire_staging(comm.ctx, sendbuf, p * count, dt.storage)
    half = (p + 1) // 2
    pack = acquire_staging(comm.ctx, sendbuf, half * count, dt.storage)
    unpack = acquire_staging(comm.ctx, sendbuf, half * count, dt.storage)
    try:
        # the compiled permutations replay as whole-buffer gathers, each
        # with one explicit virtual-time charge for the packed copy; the
        # scratch follows ``sendbuf``, and storage-free scratch is
        # neither gathered into nor landed from
        rot_in, rot_out, bits = _bruck_geometry(p, rank)
        send2d = as_array(sendbuf)[:p * count].reshape(p, count)
        recv2d = as_array(recvbuf)[:p * count].reshape(p, count)
        tmp2d = as_array(tmp).reshape(p, count)
        # rows spelled out: ``-1`` cannot be inferred for zero-length
        # blocks (``count == 0`` is legal, and moves nothing)
        pack2d = as_array(pack).reshape(half, count)
        unpack2d = as_array(unpack).reshape(half, count)
        stored = tmp2d.strides[0] != 0
        # phase 1: tmp[i] = block destined to rank (rank + i) % p
        if stored:
            if send2d.dtype == tmp2d.dtype:
                np.take(send2d, rot_in, axis=0, out=tmp2d)
            else:
                tmp2d[...] = send2d[rot_in].astype(tmp2d.dtype)
        comm.ctx.clock.advance(0.2 + p * count * itemsize / 24000.0)

        # phase 2: for each bit, ship the blocks whose index has that bit set
        for bit, idxs in bits:
            k = len(idxs)
            if stored:
                pack2d[:k] = tmp2d[idxs]
            n = k * count
            comm.ctx.clock.advance(0.2 + n * itemsize / 24000.0)
            dst = (rank + bit) % p
            src = (rank - bit) % p
            comm.Sendrecv(seg(pack, 0, n), dst, seg(unpack, 0, n), src,
                          sendtag=tag, datatype=dt)
            if stored:
                tmp2d[idxs] = unpack2d[:k]
            comm.ctx.clock.advance(0.2 + n * itemsize / 24000.0)

        # phase 3: tmp[(rank - src) % p] holds the block from `src`
        if recv2d.strides[0]:
            if not stored:
                raise InvalidBufferError(NO_CONTENTS)
            if recv2d.dtype == tmp2d.dtype:
                np.take(tmp2d, rot_out, axis=0, out=recv2d)
            else:
                recv2d[...] = tmp2d[rot_out].astype(recv2d.dtype)
        comm.ctx.clock.advance(0.2 + p * count * itemsize / 24000.0)
    finally:
        release_staging(comm.ctx, unpack)
        release_staging(comm.ctx, pack)
        release_staging(comm.ctx, tmp)


def alltoallv_scattered(comm, sendbuf, sendcounts, sdispls,
                        recvbuf, recvcounts, rdispls, dt: Datatype) -> None:
    """Scattered ``MPI_Alltoallv`` (the baseline Listing 1 compares
    against)."""
    rank, p = comm.rank, comm.size
    tag = comm.next_coll_tag()
    local_copy(comm.ctx, seg(recvbuf, rdispls[rank], recvcounts[rank]),
               seg(sendbuf, sdispls[rank], sendcounts[rank]))
    reqs = []
    for off in range(1, p):
        src = (rank - off) % p
        if recvcounts[src]:
            reqs.append(comm.Irecv(seg(recvbuf, rdispls[src], recvcounts[src]),
                                   source=src, tag=tag,
                                   count=recvcounts[src], datatype=dt))
    for off in range(1, p):
        dst = (rank + off) % p
        if sendcounts[dst]:
            reqs.append(comm.Isend(seg(sendbuf, sdispls[dst], sendcounts[dst]),
                                   dst, tag, count=sendcounts[dst], datatype=dt))
    waitall(reqs)
