"""Virtual-time SPMD simulation engine.

Each MPI rank runs as a real Python thread moving real numpy data; time
is virtual.  Every rank owns a :class:`VirtualClock`; messages carry
their arrival timestamp and receiving merges it into the local clock
(Lamport-style max), so blocking semantics, synchronization delays, and
skew fall out naturally — deterministically and without wall-clock
dependence.

Layers above (``repro.mpi``, ``repro.xccl``) decide *what* a message
costs (protocol overheads, link models); this package only delivers
data and merges clocks.
"""

from repro.sim.clock import VirtualClock
from repro.sim.mailbox import Mailbox, Message, ANY_SOURCE, ANY_TAG
from repro.sim.engine import Engine, RankContext
from repro.sim.faults import FaultPlan, FaultInjector, with_faults
from repro.sim.sched import CoopScheduler, CoopWaitq, ThreadWaitq
from repro.sim.tracing import Trace, TraceEvent
from repro.sim.wire import WireTracker

__all__ = [
    "VirtualClock",
    "Mailbox",
    "Message",
    "ANY_SOURCE",
    "ANY_TAG",
    "Engine",
    "RankContext",
    "FaultPlan",
    "FaultInjector",
    "with_faults",
    "CoopScheduler",
    "CoopWaitq",
    "ThreadWaitq",
    "Trace",
    "TraceEvent",
    "WireTracker",
]
