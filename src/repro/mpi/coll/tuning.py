"""Internal MPI algorithm selection.

Real MPI libraries keep tuning tables mapping (collective, message
size, communicator size) to an algorithm (§3.4 of the paper: "Tuning
tables are maintained to keep track of the protocols or algorithms
that deliver optimal performance").  These are the *MPI-internal*
tables; the paper's hybrid MPI-vs-xCCL tables live in
:mod:`repro.core.tuning_table` one level above.

Thresholds follow MPICH/MVAPICH folklore: latency-optimal trees below,
bandwidth-optimal rings/pairwise above.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.mpi.coll._util import is_pof2

KIB = 1024


@dataclass(frozen=True)
class AlgorithmChoice:
    """Named thresholds for one collective."""

    small: str
    large: str
    threshold_bytes: int

    def pick(self, nbytes: int) -> str:
        """Algorithm name for a message of ``nbytes``."""
        return self.small if nbytes <= self.threshold_bytes else self.large


#: Default MPI-internal selection table.
DEFAULT_TABLE: Dict[str, AlgorithmChoice] = {
    "bcast": AlgorithmChoice("binomial", "scatter_ring_allgather", 64 * KIB),
    "reduce": AlgorithmChoice("binomial", "reduce_scatter_gather", 64 * KIB),
    "allreduce": AlgorithmChoice("recursive_doubling", "ring", 32 * KIB),
    "allgather": AlgorithmChoice("bruck", "ring", 32 * KIB),
    "alltoall": AlgorithmChoice("bruck", "pairwise", 1 * KIB),
    "reduce_scatter": AlgorithmChoice("recursive_halving", "pairwise", 0),
    "gather": AlgorithmChoice("binomial", "linear", 32 * KIB),
    "scatter": AlgorithmChoice("binomial", "linear", 32 * KIB),
}

#: algorithms whose rounds pair ranks by bit, each with what
#: :func:`select` takes instead on a communicator whose size is not a
#: power of two (a forced pick of one there is refused)
POF2_ONLY: Dict[Tuple[str, str], str] = {
    ("allgather", "recursive_doubling"): "bruck",
    ("reduce_scatter", "recursive_halving"): "pairwise",
}

#: alltoall has a middle regime: scattered nonblocking between Bruck
#: (tiny) and pairwise (large).
ALLTOALL_SCATTERED_MAX = 32 * KIB


def select(coll: str, nbytes: int, p: int, commutative: bool = True,
           table: Dict[str, AlgorithmChoice] = DEFAULT_TABLE) -> str:
    """Pick an algorithm name, honoring structural constraints
    (power-of-two requirements, commutativity).  Runs when an MPI-route
    call key records its round program, not on the calls that replay
    it."""
    choice = table[coll]
    name = choice.pick(nbytes)

    if coll == "allreduce":
        if name == "recursive_doubling" and not commutative and not is_pof2(p):
            # the non-pof2 pre/post folding reorders operands, which a
            # non-commutative op cannot tolerate; ring keeps rank order
            # within each chunk accumulation
            name = "ring"
        if name == "ring" and nbytes >= 64 * KIB and is_pof2(p) and commutative:
            name = "rabenseifner"
    elif coll == "reduce":
        if not commutative:
            name = "linear"
        elif name == "reduce_scatter_gather" and p == 2:
            name = "binomial"
    elif coll == "allgather":
        if name == "bruck":
            name = "recursive_doubling"
    elif coll == "alltoall":
        if name == "pairwise" and nbytes <= ALLTOALL_SCATTERED_MAX:
            name = "scattered"
        if p == 1:
            name = "scattered"
    elif coll == "reduce_scatter":
        if not commutative:
            name = "pairwise"  # rank-ordered enough for associative ops
    if not is_pof2(p):
        name = POF2_ONLY.get((coll, name), name)
    return name
