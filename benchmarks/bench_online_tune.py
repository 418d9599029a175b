"""Online-tuner benchmark: recovering from a wrong static table.

A deliberately wrong §3.4 table pins every allreduce to the MPI
algorithms at a payload size where the CCL ring is measurably faster.
Three arms run the same 40-iteration 8-rank allreduce loop, compared
in *virtual* time:

* ``wrong``  — the bad table, ``online_tune=False``: every call
  takes the slow route, forever (the paper's frozen-table failure
  mode).
* ``oracle`` — a correct table, tuner off: every call takes the fast
  route from call one.  The best any tuner could do.
* ``tuned``  — the bad table, ``online_tune=True``: the observe /
  explore warm-up pays a few slow-route calls, then the overlay
  follows the measured winner.

The acceptance metric is the oracle-route recovery fraction

    recovery = (t_wrong - t_tuned) / (t_wrong - t_oracle)

which must be >= 0.9: the online tuner claws back at least 90% of the
virtual time a wrong static table loses.  Payload digests are asserted
identical across all three arms.

Run with ``make bench-online-tune`` or::

    PYTHONPATH=src python benchmarks/bench_online_tune.py

Writes ``BENCH_online_tune.json`` at the repo root.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path

import numpy as np

NRANKS = 8
NELEM = 1 << 16          # 256 KiB float32: squarely CCL territory
ITERS = 64   # enough to amortize the ~6-call warm-up well past 90%
ARMS = ("wrong", "oracle", "tuned")


def _tables():
    from repro.core.tuning_table import TuningTable
    colls = ("allreduce", "bcast", "reduce", "allgather", "alltoall",
             "reduce_scatter", "gather", "scatter")
    wrong = TuningTable(backend="nccl", shape_key=("bench", "all-mpi"),
                        entries={c: [(-1, "mpi")] for c in colls})
    oracle = TuningTable(backend="nccl", shape_key=("bench", "all-xccl"),
                         entries={c: [(-1, "xccl")] for c in colls})
    return {"wrong": wrong, "oracle": oracle, "tuned": wrong}


def _body(mpx):
    comm = mpx.COMM_WORLD
    rng = np.random.default_rng(97 + comm.rank)
    send = mpx.device_array(NELEM)
    send.array[:] = rng.integers(0, 5, NELEM)  # exact under reassociation
    recv = mpx.device_array(NELEM, fill=0.0)
    t0 = comm.now
    for _ in range(ITERS):
        comm.Allreduce(send, recv)
    return {
        "total_us": comm.now - t0,
        "digest": hashlib.blake2b(recv.array.tobytes(),
                                  digest_size=16).hexdigest(),
        "xccl_calls": mpx.route_stats.xccl_calls,
        "mpi_calls": mpx.route_stats.mpi_calls,
    }


def _run_arm(arm, table):
    from repro import fastpath
    from repro.core import runtime

    t0 = time.perf_counter()
    per_rank = runtime.run(_body, system="thetagpu", nodes=1,
                           nranks=NRANKS, table=table,
                           online_tune=(arm == "tuned"))
    wall_s = time.perf_counter() - t0
    snap = fastpath.STATS.snapshot()
    return {
        "total_us": round(max(r["total_us"] for r in per_rank), 3),
        "digests": sorted({r["digest"] for r in per_rank}),
        "xccl_calls": per_rank[0]["xccl_calls"],
        "mpi_calls": per_rank[0]["mpi_calls"],
        "wall_s": round(wall_s, 2),
        "online_updates": snap["online_updates"],
        "route_flips": snap["route_flips"],
    }


def main() -> None:
    report = {
        "config": {"system": "thetagpu", "nranks": NRANKS,
                   "nbytes": NELEM * 4, "iterations": ITERS},
    }
    tables = _tables()
    arms = {arm: _run_arm(arm, tables[arm]) for arm in ARMS}

    # all three arms compute the same numbers
    digests = {tuple(a["digests"]) for a in arms.values()}
    assert len(digests) == 1, f"payloads diverged across arms: {digests}"
    # the wrong arm never touches CCL; the oracle always does; the
    # tuned arm flips exactly its warmed-up bucket
    assert arms["wrong"]["xccl_calls"] == 0
    assert arms["oracle"]["mpi_calls"] == 0
    assert arms["tuned"]["online_updates"] >= 1
    assert arms["tuned"]["route_flips"] >= 1

    t_wrong = arms["wrong"]["total_us"]
    t_oracle = arms["oracle"]["total_us"]
    t_tuned = arms["tuned"]["total_us"]
    recovery = (t_wrong - t_tuned) / (t_wrong - t_oracle)
    report["arms"] = arms
    report["recovery_fraction"] = round(recovery, 4)
    report["payload_identical"] = True

    out = Path(__file__).resolve().parent.parent / "BENCH_online_tune.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrong={t_wrong:.1f}us oracle={t_oracle:.1f}us "
          f"tuned={t_tuned:.1f}us recovery={recovery:.3f}")
    assert recovery >= 0.9, \
        f"online tuner recovered only {recovery:.3f} of the oracle gap"
    print(f"OK: wrote {out}")


if __name__ == "__main__":
    main()
