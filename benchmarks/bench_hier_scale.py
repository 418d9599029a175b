"""Multi-node scale benchmark: flat vs node-leader vs pipelined hier.

Sweeps allreduce and bcast over 8 -> 64 -> 512 ranks on a multi-rail
ThetaGPU model (8 NIC rails per node, the DGX A100's HCA count) and
compares three arms in *virtual* time:

* ``flat``   — the staged pipeline on the shape's offline table (its
  flat ring/tree algorithms; one NIC rail effectively carries each
  inter-node collective).
* ``leader`` — the unpipelined node-leader algorithms
  (``repro.mpi.coll.algorithm(coll, "hierarchical")``: whole-message,
  one leader and hence one NIC per node).
* ``hier``   — the same table with ``hier`` rows from 2 MiB (allreduce)
  and 16 MiB (bcast), the site table of ``tools/site_tables.py``: the
  chunk-pipelined, NIC-striped hierarchy of
  :data:`repro.mpi.coll.levels.HIER`.

The 8-rank row spans a single node, where a ``hier`` row degrades to
the flat CCL route the shape's own rows already take there — flat and
hier must agree to the bit, times included.
At 64 ranks (8x8, the aligned schedule) hier must beat flat by >= 1.5x
on at least one inter-node payload; at 512 ranks (16 nodes x 32 ranks,
oversubscribed, the general per-chunk schedule) it must never lose to
the node-leader arm.  Payloads are asserted bit-identical between the
flat and hier arms at every scale (small-integer float32 sums are
exact under any association order).

Each arm is one engine, pinning its own table.

Run with ``make bench-hier`` or::

    PYTHONPATH=src python benchmarks/bench_hier_scale.py

Writes ``BENCH_hier_scale.json`` at the repo root.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path

import numpy as np

SYSTEM = "thetagpu"
NICS = 8
#: (nranks, nodes): 8 = single node (hier inert), 64 = 8x8 (aligned
#: schedule), 512 = 16 nodes x 32 ranks oversubscribed (general
#: schedule; ranks-per-node exceeds the rail count)
SCALES = ((8, 1), (64, 8), (512, 16))
#: inter-node payload sizes (bytes); the smallest sits at the routing
#: threshold, the larger two are where striping pays
SIZES_BY_SCALE = {8: (2 << 20, 8 << 20, 32 << 20),
                  64: (2 << 20, 8 << 20, 32 << 20),
                  512: (2 << 20, 8 << 20)}
ITERS = {8: 3, 64: 3, 512: 2}
ARMS = ("flat", "leader", "hier")
#: where the hier arm's rows start (``tools/site_tables.HIER_FROM``)
HIER_FROM = {"allreduce": 2 << 20, "bcast": 16 << 20}


def _allreduce_once(comm, arm, send, recv, count):
    if arm == "leader":
        from repro.mpi.coll import algorithm
        from repro.mpi.datatypes import FLOAT
        from repro.mpi.ops import SUM
        algorithm("allreduce", "hierarchical")(comm, send, recv, count,
                                               FLOAT, SUM)
    else:
        comm.Allreduce(send, recv)


def _bcast_once(comm, arm, buf, count):
    if arm == "leader":
        from repro.mpi.coll import algorithm
        from repro.mpi.datatypes import FLOAT
        algorithm("bcast", "hierarchical")(comm, buf, count, FLOAT, 0)
    else:
        comm.Bcast(buf, root=0)


def _body(arm, nelem, iters):
    def body(mpx):
        comm = mpx.COMM_WORLD
        rng = np.random.default_rng(97 + comm.rank)
        send = mpx.device_array(nelem)
        send.array[:] = rng.integers(0, 5, nelem)
        recv = mpx.device_array(nelem, fill=0.0)
        out = {}
        # warmup covers CCL init, plan compiles and sub-comm builds
        _allreduce_once(comm, arm, send, recv, nelem)
        t0 = comm.now
        for _ in range(iters):
            _allreduce_once(comm, arm, send, recv, nelem)
        out["allreduce_us"] = (comm.now - t0) / iters
        out["allreduce_digest"] = hashlib.blake2b(
            recv.array.tobytes(), digest_size=16).hexdigest()
        buf = mpx.device_array(nelem, fill=0.0)
        if comm.rank == 0:
            buf.array[:] = rng.integers(0, 5, nelem)
        _bcast_once(comm, arm, buf, nelem)
        t0 = comm.now
        for _ in range(iters):
            _bcast_once(comm, arm, buf, nelem)
        out["bcast_us"] = (comm.now - t0) / iters
        out["bcast_digest"] = hashlib.blake2b(
            buf.array.tobytes(), digest_size=16).hexdigest()
        return out
    return body


def _run_arm(arm, nranks, nodes, nelem, iters):
    from repro import fastpath
    from repro.core import runtime
    from repro.core.tuning_table import site_table, with_route
    from repro.hw.systems import make_system

    cluster = make_system(SYSTEM, nodes, nics=NICS)
    rpn = -(-nranks // nodes)
    table = with_route(site_table(cluster, nranks, rpn), "hier",
                       HIER_FROM) if arm == "hier" else None
    t0 = time.perf_counter()
    per_rank = runtime.run(_body(arm, nelem, iters), system=cluster,
                           nranks=nranks, ranks_per_node=rpn, table=table)
    wall_s = time.perf_counter() - t0
    snap = fastpath.STATS.snapshot()
    return {
        "allreduce_us": round(max(r["allreduce_us"] for r in per_rank), 3),
        "bcast_us": round(max(r["bcast_us"] for r in per_rank), 3),
        "allreduce_digests": sorted({r["allreduce_digest"] for r in per_rank}),
        "bcast_digests": sorted({r["bcast_digest"] for r in per_rank}),
        "wall_s": round(wall_s, 2),
        "route_hier": snap["route_hier"],
        "hier_chunks": snap["hier_chunks"],
        "hier_stripe_ops": snap["hier_stripe_ops"],
    }


def main() -> None:
    report = {
        "config": {"system": SYSTEM, "nics": NICS,
                   "scales": [s for s, _ in SCALES],
                   "sizes": {str(k): list(v)
                             for k, v in SIZES_BY_SCALE.items()},
                   "iterations": ITERS},
        "rows": [],
    }
    for nranks, nodes in SCALES:
        for nbytes in SIZES_BY_SCALE[nranks]:
            nelem = nbytes // 4
            iters = ITERS[nranks]
            row = {"nranks": nranks, "nodes": nodes, "nbytes": nbytes}
            for arm in ARMS:
                row[arm] = _run_arm(arm, nranks, nodes, nelem, iters)
            for coll in ("allreduce", "bcast"):
                row[f"{coll}_flat_over_hier"] = round(
                    row["flat"][f"{coll}_us"] / row["hier"][f"{coll}_us"],
                    3)
                row[f"{coll}_leader_over_hier"] = round(
                    row["leader"][f"{coll}_us"]
                    / row["hier"][f"{coll}_us"], 3)
                # payloads with and without hier rows agree to the bit
                assert (row["flat"][f"{coll}_digests"]
                        == row["hier"][f"{coll}_digests"]), \
                    f"{coll}@{nranks}r/{nbytes}B: hier payload diverged"
                row[f"{coll}_payload_identical"] = True
            if nodes == 1:
                # single node: the hier rows must be inert, virtual
                # times included
                assert row["hier"]["route_hier"] == 0
                for coll in ("allreduce", "bcast"):
                    assert (row["flat"][f"{coll}_us"]
                            == row["hier"][f"{coll}_us"]), \
                        f"{coll}@{nranks}r: hier rows not inert on one node"
            else:
                assert row["hier"]["route_hier"] > 0
            report["rows"].append(row)
            print(f"P={nranks:>4} {nbytes >> 20:>3}MiB: "
                  + "  ".join(
                      f"{c}: flat={row['flat'][c + '_us']:.0f}us "
                      f"leader={row['leader'][c + '_us']:.0f}us "
                      f"hier={row['hier'][c + '_us']:.0f}us "
                      f"(x{row[c + '_flat_over_hier']:.2f} flat, "
                      f"x{row[c + '_leader_over_hier']:.2f} leader)"
                      for c in ("allreduce", "bcast")),
                  flush=True)

    # acceptance: >= 1.5x over flat at 64 ranks on some inter-node
    # payload, and never worse than the node-leader arm at 512 ranks
    rows64 = [r for r in report["rows"] if r["nranks"] == 64]
    best64 = max(r["allreduce_flat_over_hier"] for r in rows64)
    assert best64 >= 1.5, \
        f"hier best speedup over flat at 64 ranks is {best64}, need >= 1.5"
    rows512 = [r for r in report["rows"] if r["nranks"] == 512]
    for r in rows512:
        for coll in ("allreduce", "bcast"):
            assert r[f"{coll}_leader_over_hier"] >= 1.0, \
                f"{coll}@512r/{r['nbytes']}B: hier lost to node-leader"
    report["summary"] = {
        "best_flat_over_hier_at_64": best64,
        "min_leader_over_hier_at_512": min(
            r[f"{c}_leader_over_hier"] for r in rows512
            for c in ("allreduce", "bcast")),
    }

    out = Path(__file__).resolve().parent.parent / "BENCH_hier_scale.json"
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
