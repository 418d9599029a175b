"""Elastic fault-recovery smoke scenario (``make elastic-smoke``).

Runs a 16-rank allreduce loop on an engine built with
``online_tune=True``, one rank killed mid-run: survivors see the
revoked world communicator, agree on the failure set, shrink to a
15-rank communicator, and finish a fixed post-recovery schedule on it:
an allreduce loop, then an ``Alltoall`` the 15-rank table routes to the
CCL.  The run is traced; the Chrome trace is written to the path given as
``argv[1]`` (default ``/tmp/mpix-elastic-smoke.json``) so CI can
validate it and print the online tuner's ``tune-report`` view.

Exit status is non-zero unless every survivor recovered, agreed on the
same failure set, and produced the bit-identical post-shrink payloads —
and unless the kill left the transport alone: a kill-only plan filters
no message, so the ``Alltoall`` took the whole-group exchange
(``fusion_exchanges > 0``) and never fell back (``fusion_fallbacks ==
0``).
"""

from __future__ import annotations

import json
import sys

import numpy as np

from repro import fastpath
from repro.core.runtime import world_communicator
from repro.errors import CommRevokedError
from repro.hw.systems import make_system
from repro.mpi import SUM
from repro.sim.engine import Engine
from repro.sim.faults import FaultPlan, with_faults
from repro.sim.timeline import chrome_trace

NRANKS = 16
DEAD = 5
KILL_AT_US = 60.0
COUNT = 2048
PRE_ITERS = 8    # the kill lands inside this loop
POST_ITERS = 12  # fixed post-recovery schedule, long enough for the
                 # online tuner to re-fit for the 15-rank survivor shape
A2A_COUNT = 1 << 14  # float32 per peer: the 15-rank table picks the CCL


def body(ctx):
    comm = world_communicator(ctx)
    buf = ctx.device.zeros(COUNT)
    out = ctx.device.zeros(COUNT)
    done = 0
    try:
        for _ in range(PRE_ITERS):
            buf.array[:] = float(ctx.rank + done)
            comm.Allreduce(buf, out, op=SUM)
            done += 1
    except CommRevokedError:
        # ULFM recovery: agree on the failure set, shrink, then run a
        # FIXED schedule on the new communicator.  Survivors abort the
        # failed collective at different loop indices, so "resume where
        # I left off" would deadlock — the agreed schedule is the
        # contract (that is what Comm_agree is for).
        _flag, failed = comm.Comm_agree()
        newcomm = comm.Comm_shrink()
        nbuf = ctx.device.zeros(COUNT)
        nout = ctx.device.zeros(COUNT)
        for i in range(POST_ITERS):
            nbuf.array[:] = float(newcomm.Get_rank() + i)
            newcomm.Allreduce(nbuf, nout, op=SUM)
        rank, size = newcomm.Get_rank(), newcomm.Get_size()
        send = ctx.device.zeros(A2A_COUNT * size, dtype=np.float32)
        send.array[:] = rank * size + np.arange(size).repeat(A2A_COUNT)
        recv = ctx.device.zeros(A2A_COUNT * size, dtype=np.float32)
        newcomm.Alltoall(send, recv, count=A2A_COUNT)
        # block j came from rank j, which sent it j * size + rank
        exchanged = bool((recv.array == np.arange(size).repeat(A2A_COUNT)
                          * size + rank).all())
        return (float(nout.array[0]), size, tuple(sorted(failed)),
                exchanged)
    return None


def main(argv):
    out_path = argv[1] if len(argv) > 1 else "/tmp/mpix-elastic-smoke.json"
    engine = Engine(make_system("thetagpu", 2), nranks=NRANKS,
                    trace=True, online_tune=True)
    injector = with_faults(engine,
                           FaultPlan().kill(DEAD, after_us=KILL_AT_US))
    results = engine.run(body)
    doc = chrome_trace(engine.traces(),
                       nodes={r: engine.node_of(r)
                              for r in range(NRANKS)})
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)

    survivors = [r for i, r in enumerate(results) if i != DEAD]
    expect = (sum(range(NRANKS - 1))
              + (POST_ITERS - 1) * (NRANKS - 1))
    ok = (injector.killed == [DEAD]
          and results[DEAD] is None
          and all(r is not None
                  and r[1] == NRANKS - 1
                  and r[2] == (DEAD,)
                  and abs(r[0] - expect) < 1e-9 and r[3] for r in survivors))
    stats = fastpath.STATS
    print(f"elastic smoke: {NRANKS} ranks, rank {DEAD} killed at "
          f"{KILL_AT_US}us; revokes={stats.comm_revokes} "
          f"shrinks={stats.comm_shrinks} "
          f"online_updates={stats.online_updates} "
          f"fusion_exchanges={stats.fusion_exchanges} "
          f"fusion_fallbacks={stats.fusion_fallbacks}")
    if not ok:
        print(f"FAILED: survivor results {set(survivors)}")
        return 1
    if stats.comm_revokes < 1 or stats.comm_shrinks < 1:
        print("FAILED: no revoke/shrink recorded")
        return 1
    if stats.online_updates < 1:
        print("FAILED: online tuner never re-fit on the shrunk comm")
        return 1
    if stats.fusion_exchanges < 1 or stats.fusion_fallbacks:
        print("FAILED: the kill changed the transport (the post-shrink "
              "Alltoall left the whole-group exchange)")
        return 1
    print(f"OK: all {NRANKS - 1} survivors recovered with identical "
          f"payloads; trace -> {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
