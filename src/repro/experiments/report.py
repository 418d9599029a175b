"""Paper-vs-measured report formatting (feeds EXPERIMENTS.md)."""

from __future__ import annotations

import io
import resource
import sys
import time
from typing import List, Optional, Sequence, Tuple

from repro.experiments.registry import Experiment, all_experiments
from repro.util.records import ResultSet


def _fmt(value: float) -> str:
    if value != value:  # NaN
        return "-"
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    if abs(value) >= 10:
        return f"{value:.1f}"
    return f"{value:.3f}"


def timed_run(exp: Experiment, scale: str) -> ResultSet:
    """``exp.run(scale)``, then ``<id>: <wall> s, peak RSS <MiB>`` (the
    process peak so far) on stderr: a CI log is each figure's trajectory."""
    t0 = time.perf_counter()
    results = exp.run(scale)
    wall = time.perf_counter() - t0
    # Linux reports ru_maxrss in KiB
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{exp.id}: {wall:.1f} s, peak RSS {peak:.0f} MiB",
          file=sys.stderr, flush=True)
    return results


def experiment_report(exp: Experiment, results: ResultSet) -> str:
    """Markdown section for one experiment."""
    out = io.StringIO()
    out.write(f"### {exp.id}: {exp.title}\n\n")
    out.write(f"*Paper reference: {exp.paper_ref}; evaluation method: "
              f"{exp.method}.*\n\n")
    rows = exp.check_all(results)
    if not rows:
        out.write("(no quantitative anchors for this experiment)\n")
        return out.getvalue()
    out.write("| anchor | paper | measured | deviation | within tol |\n")
    out.write("|---|---:|---:|---:|:--:|\n")
    for row in rows:
        out.write(
            f"| {row['label']} | {_fmt(row['paper'])} {row['unit']} "
            f"| {_fmt(row['measured'])} {row['unit']} "
            f"| {row['deviation']:+.1%} "
            f"| {'yes' if row['passed'] else 'NO'} |\n")
    return out.getvalue()


def full_report(scale: str = "paper",
                only: Optional[Sequence[str]] = None) -> Tuple[str, bool]:
    """Run every experiment and render the full markdown report;
    returns ``(markdown, every anchor within tolerance)``."""
    out = io.StringIO()
    out.write("# EXPERIMENTS — paper vs. measured\n\n")
    out.write(
        "Measured numbers are virtual-time results from the simulated\n"
        "runtime (see DESIGN.md for the substitution map and the anchor\n"
        "calibration).  Absolute agreement is not the goal — the authors'\n"
        "testbed is real hardware — but who wins, by roughly what factor,\n"
        "and where crossovers fall, must match.\n\n")
    summary: List[str] = []
    passed = True
    for exp in all_experiments():
        if only and exp.id not in only:
            continue
        results = timed_run(exp, scale)
        out.write(experiment_report(exp, results))
        out.write("\n")
        rows = exp.check_all(results)
        ok = sum(1 for r in rows if r["passed"])
        passed = passed and ok == len(rows)
        summary.append(f"- {exp.id}: {ok}/{len(rows)} anchors within tolerance")
    out.write("## Summary\n\n")
    out.write("\n".join(summary) + "\n")
    out.write(NOTES)
    return out.getvalue(), passed


NOTES = """
## Notes on methods and deviations

* **Engine vs model.**  "engine" experiments run SPMD rank programs in
  virtual time at the paper's rank counts, fig1 and fig6 (128 ranks,
  about 3.5 minutes on 2 CPUs) included.  table1 ("model") audits the
  system presets and simulates nothing.  fig7 ("mixed") projects its
  128-GPU half in closed form: on the engine at 16 x 8 (bs128) the
  scalar UCX large-buffer penalty gives Open MPI + UCX 13,039 img/s
  against the projection's 73,419 (hybrid: 101,646 vs 101,656).  The
  MPI models behind it are cross-validated in `tests/test_perfmodel.py`.
* **Storage-free sweeps.**  The OMB-driven engine experiments —
  fig3 and fig4 (`osu_latency` / `osu_bw` / `osu_bibw`) and fig1, fig5
  and fig6 (every `run_collective_panel`) — and the Horovod panels of
  figs 7-10 (`tf_panel`) run on clusters built with `payloads=False`:
  their device buffers carry count, dtype and placement but no
  contents, O(1) memory each.  OMB times what it moves and never reads
  it (real OMB validates only under `-c`), the synthetic trainer's
  gradients are never read, and virtual time is a function of counts,
  dtypes and placement, so their numbers cannot move: the storage-free
  arms of `tests/test_conformance.py` replay every frozen reference
  case with clocks `==`, `tests/test_storage_free.py` holds each
  trainer stack's throughput `==`, and the quick fig3/fig4/fig5
  records are bit-identical both ways.  The examples and every rank
  program that checks its results keep real payloads.
* **Launch floors** (fig3) run 5-25% above the paper's quoted
  overheads because our small-message latency includes the per-step
  link alpha on top of the launch constant; the paper quotes the launch
  component alone.
* **Fig 5e absolute latencies** sit ~40% above the paper's 23/14 us
  while reproducing the claimed shrink (~1.6x): OMB averages rooted
  collectives across ranks, and our leaf-rank completion model differs
  from MVAPICH's in how early an eager sender retires.
* **TF integration presets** (figs 7-10): the paper's application-level
  gaps exceed what raw allreduce latency differences produce; per-stack
  Horovod integration factors (fusion effectiveness, overlap, large-
  buffer pathologies) are calibrated to the reported throughputs and
  documented in `repro/dl/presets.py`.  Stack *ordering* and
  *ratios* are reproduced; the presets encode, not predict, the
  absolute gaps.
* The headline "4.6x over Open MPI" (conclusion) corresponds to the
  UCC-vs-hybrid alltoall/allreduce gaps of figs 5-6 combined with the
  TF multi-node results; our measured peak stack-vs-stack ratios are
  in the 2.9-4.5x range at the cited operating points.
"""
