"""Memory smoke (``make mem-smoke``): peak RSS is live buffers, not
engines built, ranks times ranks, or bytes a benchmark never reads;
communicator churn leaves nothing behind.

Six legs, the first five each in a fresh process that reports its own
peak resident set (``ru_maxrss``) and fails above its ceiling:

* **scale** — a ``SCALE_RANKS``-rank ``Barrier`` + ``Allreduce``;
  256 MiB.  About 670 MiB while every rank derived its communicators'
  facts for itself, walking all members, and about 120 MiB with one
  shared record per communicator (docs/performance.md, "Set-up linear
  in ranks").
* **fig5** — one quick ``fig5`` sweep (52 short-lived engines), which
  runs storage-free (``make_system(..., payloads=False)``); 96 MiB.
  About 250 MiB while its 1 to 8 MiB windows a rank were real memory,
  about 35 MiB storage-free (docs/performance.md, "Storage-free
  payloads").
* **payloads** — the buffer-lifetime guard that the fig5 leg used to
  be: the fig5 NCCL column's four collectives x ``hybrid`` /
  ``pure-xccl`` / ``ccl`` through ``repro.omb.collective`` on
  ``make_system("thetagpu", 1)``, real buffers, the cycle collector at
  its defaults and never called; 450 MiB.  Also prints how many bytes
  ``Accelerator.zeros`` zeroed.  A root ``DeviceBuffer`` that waits for
  the collector instead of dying with its last reference shows here.
* **alltoall** — a 128-rank (16 x 8 ThetaGPU) OMB ``Alltoall`` at 4 MiB
  per peer on the hybrid stack, storage-free; 256 MiB.  Its windows
  would be 128 GiB of real memory.
* **window** — ``WINDOW_ROUNDS`` OMB-style windows of ``WINDOW`` x
  1 MiB ``Isend`` / ``Irecv`` between 2 ThetaGPU ranks on two nodes
  (``pure_mpi``), real payloads, the collector at its defaults; 112 MiB.
  About 129.5 MiB while every rendezvous ``Isend`` snapshotted its
  window (32 MiB of snapshots alive at once), about 97.3 MiB now that
  it lends the window until its request completes (docs/performance.md,
  "Lent nonblocking sends").
* **churn** — ``CHURN_CYCLES`` runs of Dup → attach → 1 MiB
  ``Allreduce`` (the xCCL route) → ``Free`` on 8 ThetaGPU ranks; fails
  unless the engine's record count and the size of every dict on each
  rank's ``RankContext``, dispatcher and abstraction layer are the same
  after every run.  Before communicators owned their caches, 200 and
  2 000 cycles left 401 and 4 001 records, and 400 and 4 000 slot-use
  entries per rank.

The legs stand in, on the ``src/`` side, for a per-workload
``peak_rss_mb`` ceiling in the end-to-end benchmark (ROADMAP item 1).
"""

from __future__ import annotations

import contextlib
import resource
import subprocess
import sys

from repro.hw.device import Accelerator

SCALE_RANKS = 2048
CHURN_CYCLES = (200, 2000)
#: the fig5 NCCL column (``repro.experiments.fig5_single_node_collectives``)
PAYLOAD_COLLECTIVES = ("allreduce", "reduce", "bcast", "alltoall")
PAYLOAD_STACKS = ("hybrid", "pure-xccl", "ccl")
ALLTOALL_NODES = 16
ALLTOALL_PEER_BYTES = 4 << 20
WINDOW = 32
WINDOW_BYTES = 1 << 20
WINDOW_ROUNDS = 8


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


def scale_leg() -> str:
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
    return f"{SCALE_RANKS}-rank Barrier + Allreduce"


def fig5_leg() -> str:
    """One quick, storage-free ``fig5`` sweep."""
    from repro.experiments import run_experiment
    results = run_experiment("fig5", scale="quick")
    return f"fig5 quick sweep, storage-free: {len(results)} records"


def payload_leg() -> int:
    """The fig5 NCCL column with real buffers: one engine per
    (collective, stack), each rank's OMB windows allocated by the
    benchmark.  Returns the records measured."""
    from repro.experiments._common import omb_config
    from repro.hw.systems import make_system
    from repro.omb.collective import COLLECTIVE_BENCHMARKS
    from repro.omb.stacks import make_stack
    from repro.sim.engine import Engine

    cluster = make_system("thetagpu", 1)
    config = omb_config("quick")
    records = 0
    for coll in PAYLOAD_COLLECTIVES:
        for stack in PAYLOAD_STACKS:
            def body(ctx, coll=coll, stack=stack):
                return COLLECTIVE_BENCHMARKS[coll](
                    ctx, make_stack(ctx, stack, "nccl"), config)
            records += len(Engine(cluster, nranks=8).run(body)[0])
    return records


def _payload_leg() -> str:
    with counting_zeros() as zeroed:
        records = payload_leg()
    return (f"fig5 NCCL column, real buffers: {records} records, "
            f"{sum(zeroed) / (1 << 30):.2f} GiB zeroed in {len(zeroed)} "
            f"Accelerator.zeros calls")


def alltoall_leg() -> str:
    """OMB ``Alltoall`` at ``ALLTOALL_PEER_BYTES`` per peer on
    ``ALLTOALL_NODES`` x 8 storage-free ThetaGPU ranks, hybrid stack."""
    from repro.hw.systems import make_system
    from repro.omb.collective import osu_alltoall
    from repro.omb.harness import OMBConfig
    from repro.omb.stacks import make_stack
    from repro.sim.engine import Engine

    cluster = make_system("thetagpu", ALLTOALL_NODES, payloads=False)
    config = OMBConfig(sizes=(ALLTOALL_PEER_BYTES,), warmup=0, iterations=1)
    nranks = cluster.device_count
    stats = Engine(cluster, nranks=nranks).run(
        lambda ctx: osu_alltoall(ctx, make_stack(ctx, "hybrid"), config))[0]
    latency = stats[ALLTOALL_PEER_BYTES].avg_us
    return (f"{nranks}-rank Alltoall at {ALLTOALL_PEER_BYTES >> 20} MiB per "
            f"peer, storage-free: {latency:.1f} us")


def window_leg() -> str:
    """``WINDOW_ROUNDS`` windows of ``WINDOW`` x 1 MiB ``Isend`` /
    ``Irecv`` between 2 ThetaGPU ranks on two nodes, real payloads, the
    collector at its defaults; every window checked."""
    import numpy as np

    from repro.core import runtime
    from repro.mpi.request import waitall

    count = WINDOW_BYTES // 4

    def body(mpx):
        comm = mpx.COMM_WORLD
        bufs = [mpx.device_array(count, fill=-1.0) for _ in range(WINDOW)]
        for rnd in range(WINDOW_ROUNDS):
            if comm.rank == 0:
                for i, buf in enumerate(bufs):
                    buf.array[:] = rnd + i
                waitall([comm.Isend(buf, 1, tag=i)
                         for i, buf in enumerate(bufs)])
            else:
                waitall([comm.Irecv(buf, source=0, tag=i)
                         for i, buf in enumerate(bufs)])
                assert all(np.all(buf.array == rnd + i)
                           for i, buf in enumerate(bufs))
            comm.Barrier()
        return True

    assert runtime.run(body, system="thetagpu", nodes=2,
                       ranks_per_node=1, mode="pure_mpi") == [True, True]
    return (f"{WINDOW_ROUNDS} windows of {WINDOW} x "
            f"{WINDOW_BYTES >> 20} MiB Isend/Irecv across two nodes")


#: leg -> (function, peak RSS ceiling in MiB, what a breach means)
LEGS = {
    "scale": (scale_leg, 256.0,
              "some per-rank set-up grows with the rank count"),
    "fig5": (fig5_leg, 96.0,
             "a storage-free benchmark window is holding real memory"),
    "payloads": (_payload_leg, 450.0,
                 "device buffers are outliving their last reference"),
    "alltoall": (alltoall_leg, 256.0,
                 "a storage-free benchmark window is holding real memory"),
    "window": (window_leg, 112.0,
               "a nonblocking rendezvous send snapshots its window"),
}


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


def _peak_mib() -> float:
    # Linux reports ru_maxrss in KiB
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    if sys.argv[1:2] == ["--leg"]:
        # a child: what it ran, then its own peak on the last line
        print(LEGS[sys.argv[2]][0]())
        print(_peak_mib())
        return 0
    failed = 0
    for name, (_, limit, breach) in LEGS.items():
        lines = subprocess.run(
            [sys.executable, __file__, "--leg", name], check=True,
            capture_output=True, text=True).stdout.splitlines()
        peak_mib = float(lines[-1])
        print(f"{lines[-2]}: peak RSS {peak_mib:.0f} MiB "
              f"(limit {limit:.0f})")
        if peak_mib > limit:
            print(f"FAIL: peak RSS above {limit:.0f} MiB — {breach}",
                  file=sys.stderr)
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
