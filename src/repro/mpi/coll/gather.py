"""Gather/Scatter algorithms: binomial trees and linear fallbacks.

Binomial halves the round count for small messages; linear is the
large-message choice (the root link is the bottleneck either way, and
the tree would move interior data twice).

A uniform linear call is its vector form on equal blocks
(:func:`gather_linear` runs :func:`gatherv_linear`, :func:`scatter_linear`
runs :func:`scatterv_linear`), so the root's ``MPI_IN_PLACE`` rule is
written once per shape: an in-place root neither copies its own block
nor sends it to itself.  The binomial trees have no vector twin and
keep the rule in their own bodies.
"""

from __future__ import annotations

import numpy as np

from repro.mpi.coll._util import is_inplace, uniform_blocks
from repro.mpi.compute import (
    acquire_staging, copy_window, move_blocks, release_staging,
)
from repro.mpi.datatypes import Datatype


def gather_linear(comm, sendbuf, recvbuf, count: int, dt: Datatype,
                  root: int) -> None:
    """Everyone sends straight to the root: :func:`gatherv_linear`."""
    gatherv_linear(comm, sendbuf, recvbuf, *uniform_blocks(count, comm.size),
                   dt, root)


def gather_binomial(comm, sendbuf, recvbuf, count: int, dt: Datatype,
                    root: int) -> None:
    """Binomial-tree gather: subtree data rides up in contiguous
    relative-rank order, then the root unrotates."""
    rank, p = comm.rank, comm.size
    tag = comm.next_coll_tag()
    if p == 1:
        if rank == root and not is_inplace(sendbuf):
            copy_window(comm, recvbuf, root * count, sendbuf, 0, count)
        return
    rel = (rank - root) % p
    # scratch indexed by relative rank; slot 0 = my own block
    work = acquire_staging(
        comm, sendbuf if not is_inplace(sendbuf) else recvbuf,
        p * count, dt.storage)
    try:
        if is_inplace(sendbuf):
            copy_window(comm, work, 0, recvbuf, rank * count, count)
        else:
            copy_window(comm, work, 0, sendbuf, 0, count)
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
            move_blocks(comm, recvbuf, (root + np.arange(p)) % p, work, None,
                        count, 0.2 + p * count * dt.storage.itemsize / 24000.0)
    finally:
        release_staging(comm, work)


def gatherv_linear(comm, sendbuf, recvbuf, counts, displs, dt: Datatype,
                   root: int) -> None:
    """Linear ``MPI_Gatherv``."""
    rank, p = comm.rank, comm.size
    tag = comm.next_coll_tag()
    if rank == root:
        if not is_inplace(sendbuf):
            copy_window(comm, recvbuf, displs[rank], sendbuf, 0, counts[rank])
        for r in range(p):
            if r != root and counts[r]:
                comm._recv(recvbuf, displs[r], counts[r], r, tag, dt)
    elif counts[rank]:
        comm._send(sendbuf, 0, counts[rank], root, tag, dt)


def scatter_linear(comm, sendbuf, recvbuf, count: int, dt: Datatype,
                   root: int) -> None:
    """Root sends each rank its block directly: :func:`scatterv_linear`."""
    scatterv_linear(comm, sendbuf, *uniform_blocks(count, comm.size),
                    recvbuf, dt, root)


def scatter_binomial(comm, sendbuf, recvbuf, count: int, dt: Datatype,
                     root: int) -> None:
    """Binomial-tree scatter (mirror of the binomial gather)."""
    rank, p = comm.rank, comm.size
    tag = comm.next_coll_tag()
    if p == 1:
        if not is_inplace(recvbuf):
            copy_window(comm, recvbuf, 0, sendbuf, root * count, count)
        return
    rel = (rank - root) % p
    work = acquire_staging(
        comm, recvbuf if not is_inplace(recvbuf) else sendbuf,
        p * count, dt.storage)
    try:
        have = 0
        if rel == 0:
            # rotate into relative order: work[j] = block of (root + j) % p
            move_blocks(comm, work, None, sendbuf, (root + np.arange(p)) % p,
                        count, 0.2 + p * count * dt.storage.itemsize / 24000.0)
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
        if not is_inplace(recvbuf):
            copy_window(comm, recvbuf, 0, work, 0, count)
    finally:
        release_staging(comm, work)


def scatterv_linear(comm, sendbuf, counts, displs, recvbuf, dt: Datatype,
                    root: int) -> None:
    """Linear ``MPI_Scatterv``."""
    rank, p = comm.rank, comm.size
    tag = comm.next_coll_tag()
    if rank == root:
        for r in range(p):
            if r != root and counts[r]:
                comm._send(sendbuf, displs[r], counts[r], r, tag, dt)
        if not is_inplace(recvbuf):
            copy_window(comm, recvbuf, 0, sendbuf, displs[rank],
                        counts[rank])
    elif counts[rank]:
        comm._recv(recvbuf, 0, counts[rank], root, tag, dt)


def _largest_pof2(p: int) -> int:
    x = 1
    while x * 2 < p:
        x *= 2
    return x
