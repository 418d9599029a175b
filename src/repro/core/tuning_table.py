"""Hybrid tuning tables (§3.4).

"In this work, we tune the tuning tables offline, and during runtime,
the hybrid designs select the most optimal solution from the tuning
tables."  :func:`tune_offline` is that offline pass: it sweeps the
closed-form MPI and CCL cost models over message sizes for one
(system, communicator shape, backend) and compresses the winners into
size-threshold entries.  At runtime :meth:`TuningTable.choose` is an
O(#thresholds) lookup.

A row names one of :data:`ROUTES`; the offline pass writes ``mpi`` and
``xccl``, and a site adds ``hier`` / ``bridge`` rows (:func:`with_route`)
to the JSON (checked on load) it ships.  A process-level cache avoids
re-tuning identical shapes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import TuningTableError
from repro.hw.vendors import default_ccl_for
from repro.mpi.config import MPIConfig, mvapich_gpu
from repro.perfmodel import ccl_models, mpi_models
from repro.perfmodel.params import CCLParams
from repro.perfmodel.shape import CommShape, shape_of
from repro.util.sizes import DEFAULT_OMB_SIZES, format_size
from repro.xccl.registry import get_backend

#: collectives the hybrid layer can route either way.
TUNABLE_COLLECTIVES = (
    "allreduce", "bcast", "reduce", "allgather", "alltoall",
    "reduce_scatter", "gather", "scatter",
)

#: what a row may name: the MPI algorithms, the flat CCL route, the node
#: hierarchy and the vendor-island bridge (``dispatch.ROWS``)
ROUTES = ("mpi", "xccl", "hier", "bridge")


@dataclass
class TuningTable:
    """Size-threshold routing table for one (system, shape, backend).

    ``entries[coll]`` is an ascending list of ``(max_bytes, route)``
    rows; the last row's ``max_bytes`` is ``-1`` (no upper bound).
    """

    backend: str
    shape_key: Tuple
    entries: Dict[str, List[Tuple[int, str]]] = field(default_factory=dict)

    def choose(self, coll: str, nbytes: int) -> str:
        """The route (one of :data:`ROUTES`) of one call's row."""
        try:
            thresholds = self.entries[coll]
        except KeyError:
            raise TuningTableError(f"no tuning entry for {coll!r}") from None
        for max_bytes, route in thresholds:
            if max_bytes < 0 or nbytes <= max_bytes:
                return route
        raise TuningTableError(f"malformed thresholds for {coll!r}: {thresholds}")

    def describe(self, coll: str) -> str:
        """``coll``'s rows as size bound -> route, e.g.
        ``<= 16K mpi, < 2M xccl, above hier``."""
        return ", ".join(
            ("above" if m < 0 else f"< {format_size(m + 1)}"
             if (m + 1) % 1024 == 0 else f"<= {format_size(m)}") + f" {r}"
            for m, r in self.entries[coll])

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> Dict:
        """JSON-safe representation."""
        return {
            "backend": self.backend,
            "shape_key": list(self.shape_key),
            "entries": {c: [[m, r] for m, r in th]
                        for c, th in self.entries.items()},
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "TuningTable":
        """Inverse of :meth:`to_dict`, checking every collective's rows
        (a table file is the only switch for two routes: a malformed
        one fails here, not as a later call's silent fallback)."""
        try:
            table = cls(backend=data["backend"],
                        shape_key=tuple(data["shape_key"]),
                        entries={c: [(int(m), str(r)) for m, r in th]
                                 for c, th in data["entries"].items()})
        except (KeyError, TypeError, ValueError) as exc:
            raise TuningTableError(f"malformed tuning table: {exc}") from exc
        for coll, rows in table.entries.items():
            bounds = [m for m, _ in rows[:-1]]
            if not rows or rows[-1][0] != -1 or bounds != sorted(set(bounds)) \
                    or min(bounds, default=0) < 0 \
                    or any(r not in ROUTES for _, r in rows):
                raise TuningTableError(
                    f"{coll!r}: rows must ascend to one last row of max_bytes "
                    f"-1 and name routes of {ROUTES}: {rows}")
        return table

    def to_json(self) -> str:
        """Serialize to JSON text."""
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "TuningTable":
        """Parse from JSON text."""
        return cls.from_dict(json.loads(text))


def _compress(points: Sequence[Tuple[int, str]]) -> List[Tuple[int, str]]:
    """Collapse per-size winners into threshold runs."""
    if not points:
        raise TuningTableError("no sweep points")
    out: List[Tuple[int, str]] = []
    for size, route in points:
        if out and out[-1][1] == route:
            out[-1] = (size, route)
        else:
            out.append((size, route))
    out[-1] = (-1, out[-1][1])
    return out


def tune_offline(shape: CommShape, ccl: CCLParams, mpi_config: MPIConfig,
                 collectives: Sequence[str] = TUNABLE_COLLECTIVES,
                 sizes: Sequence[int] = tuple(DEFAULT_OMB_SIZES)) -> TuningTable:
    """Build a tuning table by sweeping the cost models: each size class
    goes to the route the models price faster."""
    shape_key = (shape.p, shape.nodes, shape.ppn, shape.intra.kind.value,
                 shape.inter.kind.value if shape.inter else None)
    table = TuningTable(backend=ccl.name, shape_key=shape_key)
    for coll in collectives:
        points: List[Tuple[int, str]] = []
        for size in sizes:
            t_mpi = mpi_models.collective_time(mpi_config, shape, coll, size)
            t_ccl = ccl_models.collective_time(ccl, shape, coll, size)
            points.append((size, "xccl" if t_ccl < t_mpi else "mpi"))
        table.entries[coll] = _compress(points)
    return table


def site_table(cluster, nranks: Optional[int] = None,
               ranks_per_node: Optional[int] = None,
               backend: Optional[str] = None,
               mpi_config: Optional[MPIConfig] = None) -> TuningTable:
    """The offline table the runtime tunes for ``nranks`` ranks (default:
    one per device) on ``cluster`` and ``backend`` (default: the native
    CCL) — what a site starts its own table from."""
    nranks = nranks or cluster.device_count
    ccl = get_backend(backend or default_ccl_for(cluster.devices[0].vendor))
    return tune_offline(shape_of(cluster, range(nranks), ranks_per_node),
                        ccl.params, mpi_config or mvapich_gpu())


def with_route(table: TuningTable, route: str,
               from_bytes: Mapping[str, int]) -> TuningTable:
    """``table`` with each call of at least ``from_bytes[coll]`` bytes
    (0: every call) sent to ``route``; rows below, and of other
    collectives, are kept.  How a site table asks for hier or bridge."""
    entries = dict(table.entries)
    for coll, start in from_bytes.items():
        rows = [(m, r) for m, r in table.entries[coll] if 0 <= m < start - 1]
        if start > 0:
            rows.append((start - 1, table.choose(coll, start - 1)))
        entries[coll] = _compress(rows + [(-1, route)])
    return TuningTable(table.backend, table.shape_key, entries)


_cache: Dict[Tuple, TuningTable] = {}


def cached_table(shape: CommShape, ccl: CCLParams,
                 mpi_config: MPIConfig) -> TuningTable:
    """Process-wide memoized :func:`tune_offline`.

    Keyed directly on the (hashable, frozen) parameter dataclasses —
    the shape with its link models, the backend's constants and the MPI
    configuration are every input of the tuning — so two calls with
    equal inputs return the *same* table object, in every engine of the
    process, and a different system, backend or configuration gets its
    own table.  No caller mutates a table.
    """
    key = (ccl, mpi_config, shape)
    table = _cache.get(key)
    if table is None:
        table = tune_offline(shape, ccl, mpi_config)
        _cache[key] = table
    return table
