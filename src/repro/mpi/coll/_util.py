"""Shared helpers for the collective algorithm implementations."""

from __future__ import annotations

import functools
from typing import List, Tuple

from repro.hw.memory import Buffer, as_array
from repro.mpi.communicator import IN_PLACE


def seg(buf, offset: int, count: int):
    """An element-range view of a buffer or array (zero-copy) — the
    buffer itself when the range is all of it — for a local copy or
    reduction; a message window is ``(buf, offset, count)`` instead."""
    if isinstance(buf, Buffer):
        if offset == 0 and count == buf.array.size:
            return buf
        return buf.view(offset, count)
    return as_array(buf)[offset:offset + count]


@functools.lru_cache(maxsize=1 << 14)
def chunk_bounds(count: int, parts: int) -> Tuple[Tuple[int, int], ...]:
    """(offset, size) of ``count`` elements split into ``parts``
    contiguous chunks, np.array_split-style (first ``count % parts``
    chunks one element larger).  Pure in its arguments, so the result
    is memoized — every ring/pairwise step re-derives the same split
    (``chunk_bounds.__wrapped__`` is the plain derivation)."""
    base, rem = divmod(count, parts)
    bounds = []
    off = 0
    for i in range(parts):
        size = base + (1 if i < rem else 0)
        bounds.append((off, size))
        off += size
    return tuple(bounds)


def uniform_blocks(count: int, p: int) -> Tuple[List[int], List[int]]:
    """``(counts, displs)`` of ``p`` packed blocks of ``count`` elements:
    the geometry a uniform collective hands its vector form."""
    return [count] * p, [r * count for r in range(p)]


def is_inplace(sendbuf) -> bool:
    """True for the MPI_IN_PLACE sentinel (or None shorthand)."""
    return sendbuf is IN_PLACE or sendbuf is None


def materialize_input(comm, sendbuf, recvbuf, count: int) -> None:
    """Copy sendbuf into recvbuf unless in-place; algorithms then work
    out of recvbuf uniformly."""
    from repro.mpi.compute import copy_window
    if not is_inplace(sendbuf):
        copy_window(comm, recvbuf, 0, sendbuf, 0, count)


def largest_pof2_below(p: int) -> int:
    """Largest power of two <= p."""
    pof2 = 1
    while pof2 * 2 <= p:
        pof2 *= 2
    return pof2


def is_pof2(p: int) -> bool:
    """True when p is a power of two."""
    return p > 0 and (p & (p - 1)) == 0
