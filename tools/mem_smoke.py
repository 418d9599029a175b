"""Memory smoke (``make mem-smoke``): peak RSS is live buffers, not
engines built, and not ranks times ranks; communicator churn leaves
nothing behind.

Three legs, the first two each in a fresh process:

* **fig5** — one quick ``fig5`` sweep (52 short-lived 8-rank engines,
  1 to 8 MiB of device buffers a rank) in this process, the cycle
  collector left at its defaults and never called.  Prints the peak
  resident set (``ru_maxrss``) and how many bytes ``Accelerator.zeros``
  zeroed; fails above ``LIMIT_MIB``.  Measured with the default
  allocator: about 700 MiB while every root ``DeviceBuffer`` was a
  reference cycle waiting for the collector, about 250 MiB now
  (docs/performance.md, "Memory").
* **scale** — a ``SCALE_RANKS``-rank ``Barrier`` + ``Allreduce`` in a
  child process; fails above ``SCALE_LIMIT_MIB``.  About 670 MiB while
  every rank derived its communicators' facts for itself, walking all
  members, and about 120 MiB with one shared record per communicator
  (docs/performance.md, "Set-up linear in ranks").
* **churn** — ``CHURN_CYCLES`` runs of Dup → attach → 1 MiB
  ``Allreduce`` (the xCCL route) → ``Free`` on 8 ThetaGPU ranks; fails
  unless the engine's record count and the size of every dict on each
  rank's ``RankContext``, dispatcher and abstraction layer are the same
  after every run.  Before communicators owned their caches, 200 and
  2 000 cycles left 401 and 4 001 records, and 400 and 4 000 slot-use
  entries per rank.

The sweep is the stand-in, on the ``src/`` side, for a per-workload
``peak_rss_mb`` ceiling in the end-to-end benchmark (ROADMAP item 1).
"""

from __future__ import annotations

import contextlib
import resource
import subprocess
import sys

from repro.experiments import run_experiment
from repro.hw.device import Accelerator

LIMIT_MIB = 450.0
SCALE_RANKS = 2048
SCALE_LIMIT_MIB = 256.0
CHURN_CYCLES = (200, 2000)


@contextlib.contextmanager
def counting_zeros():
    """Yield the list ``Accelerator.zeros`` appends each allocation's
    byte count to while the block runs."""
    zeroed = []
    zeros = Accelerator.zeros

    def counting(self, count, dtype="float32"):
        buf = zeros(self, count, dtype)
        zeroed.append(buf.nbytes)
        return buf

    Accelerator.zeros = counting
    try:
        yield zeroed
    finally:
        Accelerator.zeros = zeros


def scale_leg() -> None:
    """``Barrier`` + a 4-element ``Allreduce`` on ``SCALE_RANKS`` ranks
    (16 ThetaGPU nodes, oversubscribed), checked for the right sum."""
    from repro.core import runtime

    def body(mpx):
        comm = mpx.COMM_WORLD
        buf = mpx.device_array(4, fill=1.0)
        comm.Barrier()
        comm.Allreduce(buf, buf)
        return float(buf.array[0])

    results = runtime.run(body, system="thetagpu", nodes=16,
                          nranks=SCALE_RANKS,
                          ranks_per_node=SCALE_RANKS // 16)
    assert results == [float(SCALE_RANKS)] * SCALE_RANKS


def churn_leg(cycles: int):
    """``(records, per-rank dict sizes)`` after ``cycles`` of Dup →
    attach → 1 MiB Allreduce → Free on every rank."""
    from repro.core import runtime
    engines = []

    def body(mpx):
        engines[:] = [mpx.ctx.engine]
        send = mpx.device_array(1 << 18, fill=1.0)
        recv = mpx.device_array(1 << 18)
        for _ in range(cycles):
            dup = mpx.attach(mpx.COMM_WORLD.Dup())
            dup.Allreduce(send, recv)
            dup.Free()
        assert dup.coll.stats.xccl_calls == 1
        return {(type(o).__name__, name): len(value)
                for o in (mpx.ctx, dup.coll, mpx.layer)
                for name, value in vars(o).items() if isinstance(value, dict)}

    sizes = runtime.run(body, system="thetagpu", nodes=1)
    return len(engines[0].records), sizes


def _peak_mib(who: int) -> float:
    # Linux reports ru_maxrss in KiB
    return resource.getrusage(who).ru_maxrss / 1024.0


def main() -> int:
    if sys.argv[1:] == ["--scale"]:
        scale_leg()
        return 0
    failed = 0
    subprocess.run([sys.executable, __file__, "--scale"], check=True)
    peak_mib = _peak_mib(resource.RUSAGE_CHILDREN)
    print(f"{SCALE_RANKS}-rank Barrier + Allreduce: peak RSS {peak_mib:.0f} "
          f"MiB (limit {SCALE_LIMIT_MIB:.0f})")
    if peak_mib > SCALE_LIMIT_MIB:
        print(f"FAIL: peak RSS above {SCALE_LIMIT_MIB:.0f} MiB — some "
              f"per-rank set-up grows with the rank count", file=sys.stderr)
        failed = 1
    with counting_zeros() as zeroed:
        results = run_experiment("fig5", scale="quick")
    peak_mib = _peak_mib(resource.RUSAGE_SELF)
    print(f"fig5 quick sweep: {len(results)} records, "
          f"peak RSS {peak_mib:.0f} MiB (limit {LIMIT_MIB:.0f}), "
          f"{sum(zeroed) / (1 << 30):.2f} GiB zeroed in {len(zeroed)} "
          f"Accelerator.zeros calls")
    if peak_mib > LIMIT_MIB:
        print(f"FAIL: peak RSS above {LIMIT_MIB:.0f} MiB — device buffers "
              f"are outliving their last reference", file=sys.stderr)
        failed = 1
    churned = [churn_leg(cycles) for cycles in CHURN_CYCLES]
    for cycles, (records, sizes) in zip(CHURN_CYCLES, churned):
        print(f"{cycles} Dup/attach/Allreduce/Free cycles: {records} "
              f"records, rank 0 dict sizes {sizes[0] or 'none (no dicts)'}")
    if any(c != churned[0] for c in churned):
        print("FAIL: what a freed communicator left behind grows with the "
              "cycles", file=sys.stderr)
        failed = 1
    return failed


if __name__ == "__main__":
    sys.exit(main())
