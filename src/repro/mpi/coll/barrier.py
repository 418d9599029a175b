"""Barrier (dissemination) and prefix scans (linear chain)."""

from __future__ import annotations

import numpy as np

from repro.mpi.coll._util import is_inplace, seg
from repro.mpi.compute import (
    acquire_staging, apply_reduce, local_copy, release_staging,
)
from repro.mpi.datatypes import BYTE, Datatype
from repro.mpi.ops import Op

#: the zero-byte message of a barrier round and where it lands
_TOKEN = np.zeros(0, dtype=np.uint8)
_SINK = np.zeros(0, dtype=np.uint8)


def barrier_dissemination(comm) -> None:
    """Dissemination barrier: ``ceil(log2 p)`` zero-byte rounds."""
    rank, p = comm.rank, comm.size
    if p == 1:
        return
    tag = comm.next_coll_tag()
    step = 1
    while step < p:
        dst = (rank + step) % p
        src = (rank - step) % p
        comm.Sendrecv(_TOKEN, dst, _SINK, src, sendtag=tag, datatype=BYTE)
        step <<= 1


def scan_linear(comm, sendbuf, recvbuf, count: int, dt: Datatype,
                op: Op) -> None:
    """Inclusive prefix scan along the rank chain."""
    rank, p = comm.rank, comm.size
    tag = comm.next_coll_tag()
    if not is_inplace(sendbuf):
        local_copy(comm.ctx, seg(recvbuf, 0, count), seg(sendbuf, 0, count))
    if rank > 0:
        tmp = acquire_staging(comm.ctx, recvbuf, count, dt.storage)
        try:
            comm.Recv(seg(tmp, 0, count), source=rank - 1, tag=tag,
                      count=count, datatype=dt)
            # rank order matters for non-commutative ops: acc = prev op mine
            a = seg(tmp, 0, count)
            apply_reduce(comm.ctx, comm.config, op, a, seg(recvbuf, 0, count))
            local_copy(comm.ctx, seg(recvbuf, 0, count), a)
        finally:
            release_staging(comm.ctx, tmp)
    if rank < p - 1:
        comm.Send(seg(recvbuf, 0, count), rank + 1, tag,
                  count=count, datatype=dt)


def exscan_linear(comm, sendbuf, recvbuf, count: int, dt: Datatype,
                  op: Op) -> None:
    """Exclusive prefix scan; rank 0's recvbuf is left untouched."""
    rank, p = comm.rank, comm.size
    tag = comm.next_coll_tag()
    contrib = recvbuf if is_inplace(sendbuf) else sendbuf
    # running total to forward = (prefix through me)
    acc = acquire_staging(comm.ctx, recvbuf, count, dt.storage)
    try:
        if rank == 0:
            local_copy(comm.ctx, seg(acc, 0, count), seg(contrib, 0, count))
        else:
            comm.Recv(seg(acc, 0, count), source=rank - 1, tag=tag,
                      count=count, datatype=dt)
            mine = acquire_staging(comm.ctx, recvbuf, count, dt.storage)
            try:
                local_copy(comm.ctx, seg(mine, 0, count),
                           seg(contrib, 0, count), charge=False)
                local_copy(comm.ctx, seg(recvbuf, 0, count),
                           seg(acc, 0, count))
                apply_reduce(comm.ctx, comm.config, op, seg(acc, 0, count),
                             seg(mine, 0, count))
            finally:
                release_staging(comm.ctx, mine)
        if rank < p - 1:
            comm.Send(seg(acc, 0, count), rank + 1, tag, count=count,
                      datatype=dt)
    finally:
        release_staging(comm.ctx, acc)
