"""MPI-xCCL reproduction: a portable MPI library over collective
communication libraries for various accelerators (simulated).

Reproduces Chen et al., SC-W 2023.  Quick tour:

>>> from repro import run, SUM                       # doctest: +SKIP
>>> def app(mpx):
...     buf = mpx.device_array(1 << 20, fill=1.0)
...     out = mpx.device_array(1 << 20)
...     mpx.COMM_WORLD.Allreduce(buf, out, SUM)
...     return out.array[0]
>>> run(app, system="thetagpu", nodes=1)             # doctest: +SKIP
[8.0, 8.0, 8.0, 8.0, 8.0, 8.0, 8.0, 8.0]

Packages: :mod:`repro.hw` (simulated systems), :mod:`repro.sim`
(virtual-time engine), :mod:`repro.mpi` (MPI runtime),
:mod:`repro.xccl` (vendor CCLs), :mod:`repro.core` (the paper's
abstraction layer + hybrid runtime), :mod:`repro.perfmodel` (cost
models), :mod:`repro.omb` (OSU benchmarks), :mod:`repro.dl`
(TensorFlow+Horovod analogue), :mod:`repro.baselines`,
:mod:`repro.experiments`.
"""

__version__ = "1.0.0"

from repro.core.runtime import MPIxContext, run
from repro.core.dispatch import DispatchMode
from repro.hw.systems import make_system, system_names
from repro.mpi.ops import MAX, MIN, PROD, SUM

__all__ = [
    "__version__",
    "run",
    "MPIxContext",
    "DispatchMode",
    "make_system",
    "system_names",
    "SUM",
    "PROD",
    "MIN",
    "MAX",
]
