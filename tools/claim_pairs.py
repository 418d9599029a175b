"""The benchmark README's "Recipe for a claim" as a command.

    python tools/claim_pairs.py --parent <rev|path> --workload W \
                                [--pairs 10] [--seed0 S]

Runs ``benchmarks/e2e/run.py --workload W --seed S`` on the parent tree
and on this one in alternating order (``A B``, ``B A``, ...), a fresh
seed per pair, and reads only the one-line JSON each run prints last.
Every pair is printed, then for each end-to-end metric of
``BENCHMARK.json`` both medians and quartiles, the wins, and the
recipe's verdict:

* ``gain``  — this tree wins at least nine tenths of the pairs (ties
  count for neither side) and the medians differ by more than the
  distance between the quartiles of the parent's own runs;
* ``worse`` — the same, with the parent winning;
* ``unresolved`` — anything else, and always with fewer than ten
  pairs: reported as unresolved, never as unchanged.

``--parent`` is a directory holding a checkout, or a revision, which is
checked out with ``git worktree add`` into a temporary directory and
removed afterwards.  Nothing under ``benchmarks/e2e/`` is edited or
imported.  The exit status is non-zero when a run reports failed ops.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: share of the pairs one side must win, and the fewest pairs that
#: carry a verdict at all
WIN_SHARE = 0.9
MIN_PAIRS = 10


def quartiles(values):
    """``(first quartile, median, third quartile)``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(parent, change, better="higher"):
    """The recipe's verdict on paired runs of one metric.

    ``parent[i]`` and ``change[i]`` are the two sides of pair ``i``;
    ``better`` says which direction is an improvement.  Returns
    ``(verdict, wins, losses)``.
    """
    if not parent or len(parent) != len(change):
        raise ValueError("need the same, non-zero number of runs per side")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    q1, parent_median, q3 = quartiles(parent)
    shift = sign * (quartiles(change)[1] - parent_median)
    needed = WIN_SHARE * len(parent)
    if len(parent) >= MIN_PAIRS and abs(shift) > q3 - q1:
        if shift > 0 and wins >= needed:
            return "gain", wins, losses
        if shift < 0 and losses >= needed:
            return "worse", wins, losses
    return "unresolved", wins, losses


def run_once(tree, workload, seed):
    """One ``run.py`` run in ``tree``: its last-line JSON object."""
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
         "--seed", str(seed)], cwd=tree, text=True, stdout=subprocess.PIPE)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{tree}: run.py printed nothing "
                           f"(exit {proc.returncode})")
    return json.loads(lines[-1])


def report(metrics, runs):
    """Markdown rows for every metric; ``runs`` is ``[(parent object,
    change object)]``, one per pair.  Returns the lines."""
    out = ["| metric | parent q1 / median / q3 | change q1 / median / q3 "
           "| median change | wins | verdict |", "|---|---|---|---|---|---|"]
    for metric in metrics:
        name = metric["name"]
        parent = [p["metrics"][name]["value"] for p, _c in runs]
        change = [c["metrics"][name]["value"] for _p, c in runs]
        what, wins, losses = verdict(parent, change, metric["better"])
        pq, cq = quartiles(parent), quartiles(change)
        out.append(
            f"| `{name}` ({metric['unit']}, {metric['better']} is better) "
            f"| {pq[0]:.4g} / {pq[1]:.4g} / {pq[2]:.4g} "
            f"| {cq[0]:.4g} / {cq[1]:.4g} / {cq[2]:.4g} "
            f"| {(cq[1] / pq[1] - 1) * 100:+.1f} % of {pq[1]:.4g} "
            f"| {wins} of {len(runs)} (parent {losses}) | {what} |")
    return out


@contextlib.contextmanager
def parent_tree(spec):
    """The parent's checkout: ``spec`` itself when it is a directory,
    else that revision in a temporary ``git worktree``."""
    if Path(spec).is_dir():
        yield Path(spec).resolve()
        return
    with tempfile.TemporaryDirectory(prefix="claim-parent-") as tmp:
        tree = Path(tmp) / "tree"
        subprocess.run(["git", "worktree", "add", "--detach", str(tree), spec],
                       cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        try:
            yield tree
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", str(tree)],
                           cwd=ROOT, check=False)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True,
                    help="revision, or directory holding the parent tree")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1000,
                    help="seed of the first pair; pair i uses seed0 + i")
    args = ap.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    runs = []
    with parent_tree(args.parent) as tree:
        for i in range(args.pairs):
            seed = args.seed0 + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            got = {side: run_once(tree if side == "parent" else ROOT,
                                  args.workload, seed) for side in order}
            parent, change = got["parent"], got["change"]
            runs.append((parent, change))
            moves = "  ".join(
                f"{m['name']} {parent['metrics'][m['name']]['value']:.4g}"
                f" -> {change['metrics'][m['name']]['value']:.4g}"
                for m in metrics)
            print(f"pair {i + 1:2d} seed {seed} ({order[0]} first): {moves}"
                  f"  failed {parent['failed']}/{change['failed']}",
                  flush=True)
    print(f"\n{args.workload}, {len(runs)} alternating pairs, seeds "
          f"{args.seed0}..{args.seed0 + len(runs) - 1}:\n")
    print("\n".join(report(metrics, runs)))
    failed = sum(p["failed"] + c["failed"] for p, c in runs)
    print(f"\nfailed ops over all runs: {failed}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
