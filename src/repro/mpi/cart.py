"""Cartesian process topologies (``MPI_Cart_*``).

Stencil and FFT codes address neighbours through Cartesian grids, not
raw ranks; this module provides the standard surface: factor a size
into balanced dimensions (``Dims_create``), build a grid communicator
(``Cart_create`` with optional periodicity and rank reordering off),
translate ranks and coordinates, and resolve shift partners
(``Cart_shift``).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.errors import MPICommError, MPIRankError
from repro.mpi.communicator import Communicator


def dims_create(nnodes: int, ndims: int,
                dims: Optional[Sequence[int]] = None) -> List[int]:
    """Balanced factorization of ``nnodes`` into ``ndims`` dimensions.

    Zeros in ``dims`` are free; non-zero entries are constraints
    (``MPI_Dims_create`` semantics).
    """
    if nnodes <= 0 or ndims <= 0:
        raise MPICommError("dims_create needs positive nnodes and ndims")
    out = list(dims) if dims is not None else [0] * ndims
    if len(out) != ndims:
        raise MPICommError(f"dims has {len(out)} entries, expected {ndims}")
    fixed = 1
    for d in out:
        if d < 0:
            raise MPICommError(f"negative dimension {d}")
        if d > 0:
            fixed *= d
    if fixed == 0 or nnodes % fixed:
        raise MPICommError(
            f"cannot factor {nnodes} nodes with constraints {out}")
    remaining = nnodes // fixed
    free = [i for i, d in enumerate(out) if d == 0]
    # greedy: largest prime factors onto the emptiest dimensions
    factors: List[int] = []
    n = remaining
    f = 2
    while f * f <= n:
        while n % f == 0:
            factors.append(f)
            n //= f
        f += 1
    if n > 1:
        factors.append(n)
    sizes = {i: 1 for i in free}
    for factor in sorted(factors, reverse=True):
        if not sizes:
            break
        smallest = min(sizes, key=lambda i: sizes[i])
        sizes[smallest] *= factor
    for i, size in sizes.items():
        out[i] = size
    if not free and remaining != 1:
        raise MPICommError(f"constraints {dims} do not cover {nnodes}")
    return out


class CartComm:
    """A Cartesian view over a communicator.

    Rank ordering is row-major over ``dims`` (no reordering), matching
    ``MPI_Cart_create(..., reorder=0)``.
    """

    def __init__(self, comm: Communicator, dims: Sequence[int],
                 periods: Optional[Sequence[bool]] = None) -> None:
        total = 1
        for d in dims:
            if d <= 0:
                raise MPICommError(f"invalid dimension {d}")
            total *= d
        if total != comm.size:
            raise MPICommError(
                f"grid {tuple(dims)} has {total} slots for {comm.size} ranks")
        self.comm = comm
        self.dims: Tuple[int, ...] = tuple(int(d) for d in dims)
        self.periods: Tuple[bool, ...] = tuple(
            bool(p) for p in (periods or [False] * len(dims)))
        if len(self.periods) != len(self.dims):
            raise MPICommError("periods length must match dims")

    @property
    def ndims(self) -> int:
        """Grid dimensionality."""
        return len(self.dims)

    @property
    def coords(self) -> Tuple[int, ...]:
        """This rank's coordinates."""
        return self.rank_to_coords(self.comm.rank)

    def rank_to_coords(self, rank: int) -> Tuple[int, ...]:
        """``MPI_Cart_coords``."""
        if not 0 <= rank < self.comm.size:
            raise MPIRankError(f"rank {rank} outside grid")
        coords = []
        for d in reversed(self.dims):
            coords.append(rank % d)
            rank //= d
        return tuple(reversed(coords))

    def coords_to_rank(self, coords: Sequence[int]) -> int:
        """``MPI_Cart_rank`` (periodic wrap where enabled)."""
        if len(coords) != self.ndims:
            raise MPICommError(
                f"{len(coords)} coords for a {self.ndims}-D grid")
        rank = 0
        for c, d, periodic in zip(coords, self.dims, self.periods):
            if periodic:
                c %= d
            elif not 0 <= c < d:
                raise MPIRankError(f"coordinate {c} outside [0, {d})")
            rank = rank * d + c
        return rank

    def shift(self, dimension: int, displacement: int = 1
              ) -> Tuple[Optional[int], Optional[int]]:
        """``MPI_Cart_shift``: (source, destination) ranks, None where
        the grid edge is non-periodic (``MPI_PROC_NULL``)."""
        if not 0 <= dimension < self.ndims:
            raise MPICommError(f"no dimension {dimension}")
        me = list(self.coords)

        def neighbour(delta: int) -> Optional[int]:
            c = list(me)
            c[dimension] += delta
            d = self.dims[dimension]
            if self.periods[dimension]:
                c[dimension] %= d
            elif not 0 <= c[dimension] < d:
                return None
            return self.coords_to_rank(c)

        return neighbour(-displacement), neighbour(+displacement)

    def sub(self, keep: Sequence[bool]) -> Optional["CartComm"]:
        """``MPI_Cart_sub``: split into sub-grids keeping the flagged
        dimensions (one communicator per slice)."""
        if len(keep) != self.ndims:
            raise MPICommError("keep flags must match dims")
        me = self.coords
        color = 0
        for c, d, k in zip(me, self.dims, keep):
            if not k:
                color = color * d + c
        key = self.coords_to_rank([c if k else 0
                                   for c, k in zip(me, keep)])
        sub_comm = self.comm.Split(color=color, key=key)
        if sub_comm is None:
            return None
        sub_dims = [d for d, k in zip(self.dims, keep) if k]
        sub_periods = [p for p, k in zip(self.periods, keep) if k]
        if not sub_dims:
            sub_dims = [1]
            sub_periods = [False]
        return CartComm(sub_comm, sub_dims, sub_periods)
