"""Mixed-vendor benchmark: island bridge vs whole-job host staging.

A 2+2-node NVIDIA+AMD job (``nvidia:2,amd:2``, 2 devices per node,
8 ranks) runs allreduce and bcast in two arms, compared in *virtual*
time:

* ``staged`` — no table pinned: the dispatcher classifies the
  mixed communicator as the ``mixed_vendor`` MPI fallback, so the
  whole job runs host-staged MPI algorithms end to end (no CCL can
  span the vendor islands).
* ``bridge`` — an all-bridge table pinned (the hetero smoke's,
  ``tools/site_tables.py``): each single-vendor island runs its
  native CCL (NCCL / RCCL) and only the island leaders exchange
  host-staged aggregates in the negotiated wire format — one hop per
  remote island instead of a host-staged hop per rank.

Payloads are asserted bit-identical between the arms (small-integer
float32 sums are exact under any association order), and the bridge
must beat whole-job host staging by >= 2x on the 8 MiB allreduce —
the PR's acceptance ratio.

Run with ``make bench-hetero`` or::

    PYTHONPATH=src python benchmarks/bench_hetero.py

Writes ``BENCH_hetero.json`` at the repo root.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path

import numpy as np

VENDORS = "nvidia:2,amd:2"
NRANKS = 8
RANKS_PER_NODE = 2
SIZES = (1 << 20, 8 << 20, 32 << 20)
ITERS = 3
ARMS = ("staged", "bridge")


def _body(nelem, iters):
    def body(mpx):
        comm = mpx.COMM_WORLD
        rng = np.random.default_rng(131 + comm.rank)
        send = mpx.device_array(nelem)
        send.array[:] = rng.integers(0, 5, nelem)
        recv = mpx.device_array(nelem, fill=0.0)
        out = {}
        # warmup covers CCL init, negotiation, island sub-comm builds
        comm.Allreduce(send, recv)
        t0 = comm.now
        for _ in range(iters):
            comm.Allreduce(send, recv)
        out["allreduce_us"] = (comm.now - t0) / iters
        out["allreduce_digest"] = hashlib.blake2b(
            recv.array.tobytes(), digest_size=16).hexdigest()
        buf = mpx.device_array(nelem, fill=0.0)
        if comm.rank == 0:
            buf.array[:] = rng.integers(0, 5, nelem)
        comm.Bcast(buf, root=0)
        t0 = comm.now
        for _ in range(iters):
            comm.Bcast(buf, root=0)
        out["bcast_us"] = (comm.now - t0) / iters
        out["bcast_digest"] = hashlib.blake2b(
            buf.array.tobytes(), digest_size=16).hexdigest()
        return out
    return body


def _run_arm(arm, nelem):
    from repro import fastpath
    from repro.core import runtime
    from repro.core.tuning_table import (TUNABLE_COLLECTIVES, site_table,
                                         with_route)
    from repro.hw.systems import make_mixed_system

    cluster = make_mixed_system(VENDORS)
    table = with_route(site_table(cluster, NRANKS, RANKS_PER_NODE), "bridge",
                       dict.fromkeys(TUNABLE_COLLECTIVES, 0)) \
        if arm == "bridge" else None
    t0 = time.perf_counter()
    per_rank = runtime.run(_body(nelem, ITERS), system=cluster,
                           nranks=NRANKS, ranks_per_node=RANKS_PER_NODE,
                           table=table)
    wall_s = time.perf_counter() - t0
    snap = fastpath.STATS.snapshot()
    return {
        "allreduce_us": round(max(r["allreduce_us"] for r in per_rank), 3),
        "bcast_us": round(max(r["bcast_us"] for r in per_rank), 3),
        "allreduce_digests": sorted({r["allreduce_digest"] for r in per_rank}),
        "bcast_digests": sorted({r["bcast_digest"] for r in per_rank}),
        "wall_s": round(wall_s, 2),
        "negotiations": snap["negotiations"],
        "route_bridge": snap["route_bridge"],
        "bridge_hops": snap["bridge_hops"],
    }


def main() -> None:
    report = {
        "config": {"vendors": VENDORS, "nranks": NRANKS,
                   "ranks_per_node": RANKS_PER_NODE,
                   "sizes": list(SIZES), "iterations": ITERS},
        "rows": [],
    }
    for nbytes in SIZES:
        nelem = nbytes // 4
        row = {"nbytes": nbytes}
        for arm in ARMS:
            row[arm] = _run_arm(arm, nelem)
        # the staged arm must never negotiate or bridge; the
        # bridge arm negotiates exactly once per communicator
        assert row["staged"]["route_bridge"] == 0
        assert row["staged"]["negotiations"] == 0
        assert row["bridge"]["negotiations"] == 1
        assert row["bridge"]["route_bridge"] > 0
        for coll in ("allreduce", "bcast"):
            row[f"{coll}_staged_over_bridge"] = round(
                row["staged"][f"{coll}_us"]
                / row["bridge"][f"{coll}_us"], 3)
            assert (row["staged"][f"{coll}_digests"]
                    == row["bridge"][f"{coll}_digests"]), \
                f"{coll}@{nbytes}B: bridge payload diverged"
            row[f"{coll}_payload_identical"] = True
        report["rows"].append(row)
        print(f"{nbytes >> 20:>3}MiB: "
              + "  ".join(
                  f"{c}: staged={row['staged'][c + '_us']:.0f}us "
                  f"bridge={row['bridge'][c + '_us']:.0f}us "
                  f"(x{row[c + '_staged_over_bridge']:.2f})"
                  for c in ("allreduce", "bcast")),
              flush=True)

    # acceptance: the island-native bridge beats whole-job host
    # staging by >= 2x on the 8 MiB allreduce
    row8 = next(r for r in report["rows"] if r["nbytes"] == 8 << 20)
    ratio = row8["allreduce_staged_over_bridge"]
    assert ratio >= 2.0, \
        f"bridge speedup at 8 MiB is x{ratio}, need >= 2.0"
    report["summary"] = {
        "allreduce_staged_over_bridge_at_8MiB": ratio,
        "best_staged_over_bridge": max(
            r[f"{c}_staged_over_bridge"] for r in report["rows"]
            for c in ("allreduce", "bcast")),
    }

    out = Path(__file__).resolve().parent.parent / "BENCH_hetero.json"
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
