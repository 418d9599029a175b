"""The MPI-xCCL runtime: user-facing entry point.

:func:`run` is this reproduction's ``mpirun``: it builds (or accepts) a
simulated cluster, launches one thread per rank, and hands each rank an
:class:`MPIxContext` whose ``COMM_WORLD`` already has the xCCL hybrid
dispatcher installed.  Applications are plain SPMD functions using the
standard MPI API — the paper's promise that users "continue to utilize
the familiar MPI runtime" while the xCCL layer picks backends
underneath:

    >>> def main(mpx):
    ...     comm = mpx.COMM_WORLD
    ...     buf = mpx.device_array(1024)
    ...     comm.Allreduce(None, buf)       # routed MPI or xCCL per size
    ...     return comm.now
    >>> times = run(main, system="thetagpu", nodes=1)      # doctest: +SKIP
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Union

import numpy as np

from repro.core.abstraction import XCCLAbstractionLayer
from repro.core.dispatch import CollectivePipeline, DispatchMode
from repro.core.tuning_table import TuningTable
from repro.hw.cluster import Cluster
from repro.hw.memory import DeviceBuffer
from repro.hw.systems import make_system
from repro.mpi.communicator import Communicator
from repro.mpi.config import MPIConfig, mvapich_gpu
from repro.sim.engine import Engine, RankContext


class MPIxContext:
    """Everything an application rank sees.

    Attributes:
        ctx: the raw engine context (device, clock, trace).
        COMM_WORLD: the world communicator, hybrid dispatcher installed.
        layer: the rank's xCCL abstraction layer.
    """

    def __init__(self, ctx: RankContext, config: MPIConfig,
                 backend: Optional[str], mode: DispatchMode,
                 table: Optional[TuningTable]) -> None:
        self.ctx = ctx
        self.layer = XCCLAbstractionLayer(ctx, backend)
        self.COMM_WORLD = Communicator.world(ctx, config)
        self.COMM_WORLD.coll = CollectivePipeline(self.layer, mode, table)

    # -- conveniences -------------------------------------------------------

    @property
    def rank(self) -> int:
        """World rank."""
        return self.ctx.rank

    @property
    def size(self) -> int:
        """World size."""
        return self.ctx.size

    @property
    def device(self):
        """This rank's accelerator."""
        return self.ctx.device

    @property
    def now(self) -> float:
        """Virtual time (us)."""
        return self.ctx.now

    def device_array(self, count: int, dtype=np.float32,
                     fill: Optional[float] = None) -> DeviceBuffer:
        """Allocate a device buffer (optionally filled)."""
        buf = self.device.empty(count, dtype=dtype)
        if fill is not None:
            buf.fill(fill)
        return buf

    def attach(self, comm: Communicator) -> Communicator:
        """Install the xCCL dispatcher on a derived communicator
        (``Dup``/``Split`` results come with the plain MPI dispatcher),
        routing under the world's mode and pinned tuning table."""
        world = self.COMM_WORLD.coll
        comm.coll = CollectivePipeline(self.layer, world.mode, world.table)
        return comm

    @property
    def route_stats(self):
        """Routing counters of the world communicator's dispatcher."""
        return self.COMM_WORLD.coll.stats  # type: ignore[attr-defined]


def run(fn: Callable[..., Any], system: Union[str, Cluster] = "thetagpu",
        nodes: int = 1, nranks: Optional[int] = None,
        ranks_per_node: Optional[int] = None,
        backend: Optional[str] = None,
        mode: Union[DispatchMode, str, None] = None,
        mpi_config: Optional[MPIConfig] = None,
        table: Optional[TuningTable] = None,
        trace: Optional[bool] = None,
        *args: Any,
        online_tune: Optional[bool] = None,
        **kwargs: Any) -> List[Any]:
    """Launch ``fn(mpx, *args, **kwargs)`` on every rank.

    Args:
        fn: the SPMD application body.
        system: system name ("thetagpu" / "mri" / "voyager" / "aurora")
            or a prebuilt :class:`Cluster`.
        nodes: node count when ``system`` is a name.
        nranks: ranks to launch (default: one per device).
        ranks_per_node: placement override.
        backend: CCL backend name (default: ``MPIX_BACKEND`` from the
            environment, else the vendor's native CCL).
        mode: routing policy (default ``MPIX_MODE``, else hybrid).
        mpi_config: MPI personality (default MVAPICH-style GPU-aware).
        table: pre-tuned hybrid table (default: ``MPIX_TUNING_FILE``
            if set, else tuned offline per communicator shape).  Its
            ``hier`` / ``bridge`` rows are the only way to the node
            hierarchy and the mixed-vendor bridge; it also routes the
            communicators ``attach`` equips and ``Comm_shrink`` derives.
        trace, online_tune: the run's two options, documented on
            :class:`repro.sim.engine.Engine` (default: ``MPIX_TRACE`` /
            ``MPIX_ONLINE_TUNE``, else off).

    Returns:
        per-rank return values, rank order.
    """
    from repro.config import apply_env
    cluster = system if isinstance(system, Cluster) else make_system(system, nodes)
    config = mpi_config or mvapich_gpu()
    backend, mode, table = apply_env(backend, mode, table)
    if isinstance(mode, str):
        mode = DispatchMode(mode)
    engine = Engine(cluster, nranks=nranks, ranks_per_node=ranks_per_node,
                    trace=trace, online_tune=online_tune)

    def body(ctx: RankContext) -> Any:
        mpx = MPIxContext(ctx, config, backend, mode, table)
        return fn(mpx, *args, **kwargs)

    return engine.run(body)


def world_communicator(ctx: RankContext, backend: Optional[str] = None,
                       mode: DispatchMode = DispatchMode.HYBRID,
                       mpi_config: Optional[MPIConfig] = None,
                       table: Optional[TuningTable] = None) -> Communicator:
    """Build a hybrid-dispatched world communicator on a raw engine
    context (for callers managing their own :class:`Engine`)."""
    comm = Communicator.world(ctx, mpi_config or mvapich_gpu())
    layer = XCCLAbstractionLayer(ctx, backend)
    comm.coll = CollectivePipeline(layer, mode, table)
    return comm
