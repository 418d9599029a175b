"""Allreduce algorithms: recursive doubling, ring, Rabenseifner.

* Recursive doubling: ``log p`` rounds of full-size messages —
  latency-optimal, the small-message choice (non-power-of-two handled
  with the standard pre/post adjustment).
* Ring: reduce-scatter + allgather rings, ``2n(p-1)/p`` bytes per rank
  — bandwidth-optimal for large messages.
* Rabenseifner: recursive-halving reduce-scatter + recursive-doubling
  allgather (power-of-two ranks).
"""

from __future__ import annotations

from repro.mpi.coll._util import (
    chunk_bounds, is_inplace, largest_pof2_below, materialize_input,
)
from repro.mpi.compute import acquire_staging, reduce_window, release_staging
from repro.mpi.datatypes import Datatype
from repro.mpi.ops import Op


def allreduce_recursive_doubling(comm, sendbuf, recvbuf, count: int,
                                 dt: Datatype, op: Op) -> None:
    """Recursive-doubling allreduce (any p via pre/post step)."""
    rank, p = comm.rank, comm.size
    tag = comm.next_coll_tag()
    materialize_input(comm, sendbuf, recvbuf, count)
    if p == 1:
        return
    tmp = acquire_staging(comm, recvbuf, count, dt.storage)
    try:
        pof2 = largest_pof2_below(p)
        rem = p - pof2
        # fold the odd ranks into their even neighbours
        if rank < 2 * rem:
            if rank % 2 == 0:
                comm._send(recvbuf, 0, count, rank + 1, tag, dt)
                newrank = -1
            else:
                comm._recv(tmp, 0, count, rank - 1, tag, dt)
                reduce_window(comm, op, recvbuf, 0, tmp, 0, count)
                newrank = rank // 2
        else:
            newrank = rank - rem

        def old(nr: int) -> int:
            return nr * 2 + 1 if nr < rem else nr + rem

        if newrank != -1:
            mask = 1
            while mask < pof2:
                partner = old(newrank ^ mask)
                comm._sendrecv(recvbuf, 0, count, partner, tmp, 0, count,
                               partner, tag + 1, tag + 1, dt)
                reduce_window(comm, op, recvbuf, 0, tmp, 0, count)
                mask <<= 1

        # return results to the folded ranks
        if rank < 2 * rem:
            if rank % 2 == 1:
                comm._send(recvbuf, 0, count, rank - 1, tag + 2, dt)
            else:
                comm._recv(recvbuf, 0, count, rank + 1, tag + 2, dt)
    finally:
        release_staging(comm, tmp)


def allreduce_ring(comm, sendbuf, recvbuf, count: int, dt: Datatype,
                   op: Op) -> None:
    """Ring allreduce: ring reduce-scatter then ring allgather —
    the bandwidth-optimal large-message algorithm (and the shape NCCL
    itself uses)."""
    rank, p = comm.rank, comm.size
    tag = comm.next_coll_tag()
    materialize_input(comm, sendbuf, recvbuf, count)
    if p == 1:
        return
    bounds = chunk_bounds(count, p)
    maxchunk = max(size for _, size in bounds)
    tmp = acquire_staging(comm, recvbuf, max(maxchunk, 1), dt.storage)
    try:
        right = (rank + 1) % p
        left = (rank - 1) % p

        # reduce-scatter ring: after p-1 steps, chunk (rank+1)%p is complete
        for step in range(p - 1):
            send_chunk = (rank - step) % p
            recv_chunk = (rank - step - 1) % p
            soff, ssize = bounds[send_chunk]
            roff, rsize = bounds[recv_chunk]
            comm._sendrecv(recvbuf, soff, ssize, right, tmp, 0, rsize, left,
                           tag, tag, dt)
            if rsize:
                reduce_window(comm, op, recvbuf, roff, tmp, 0, rsize)

        # allgather ring: circulate the completed chunks
        for step in range(p - 1):
            send_chunk = (rank + 1 - step) % p
            recv_chunk = (rank - step) % p
            soff, ssize = bounds[send_chunk]
            roff, rsize = bounds[recv_chunk]
            comm._sendrecv(recvbuf, soff, ssize, right, recvbuf, roff, rsize,
                           left, tag + 1, tag + 1, dt)
    finally:
        release_staging(comm, tmp)


def allreduce_rabenseifner(comm, sendbuf, recvbuf, count: int, dt: Datatype,
                           op: Op) -> None:
    """Rabenseifner allreduce (power-of-two ranks; callers guard):
    recursive-halving reduce-scatter + recursive-doubling allgather."""
    rank, p = comm.rank, comm.size
    tag = comm.next_coll_tag()
    materialize_input(comm, sendbuf, recvbuf, count)
    if p == 1:
        return
    if count < p:
        allreduce_recursive_doubling(comm, sendbuf if not is_inplace(sendbuf)
                                     else None, recvbuf, count, dt, op)
        return
    bounds = chunk_bounds(count, p)
    tmp = acquire_staging(comm, recvbuf, count, dt.storage)

    def span(clo: int, chi: int):
        off = bounds[clo][0]
        end = bounds[chi - 1][0] + bounds[chi - 1][1]
        return off, end - off

    try:
        # recursive halving reduce-scatter over chunk ranges
        lo, hi = 0, p
        step = p // 2
        while step >= 1:
            mid = lo + step
            if rank < mid:
                partner = rank + step
                soff, ssize = span(mid, hi)
                roff, rsize = span(lo, mid)
                hi_next = (lo, mid)
            else:
                partner = rank - step
                soff, ssize = span(lo, mid)
                roff, rsize = span(mid, hi)
                hi_next = (mid, hi)
            comm._sendrecv(recvbuf, soff, ssize, partner, tmp, 0, rsize,
                           partner, tag, tag, dt)
            reduce_window(comm, op, recvbuf, roff, tmp, 0, rsize)
            lo, hi = hi_next
            step //= 2
        # now chunk `rank` of recvbuf is fully reduced (lo == rank)

        # recursive doubling allgather over chunk ranges
        mask = 1
        while mask < p:
            partner = rank ^ mask
            # owned region before this step is aligned to `mask` chunks
            my_lo = (rank // mask) * mask
            partner_lo = my_lo ^ mask
            soff, ssize = span(my_lo, my_lo + mask)
            roff, rsize = span(partner_lo, partner_lo + mask)
            comm._sendrecv(recvbuf, soff, ssize, partner, recvbuf, roff,
                           rsize, partner, tag + 1, tag + 1, dt)
            mask <<= 1
    finally:
        release_staging(comm, tmp)
