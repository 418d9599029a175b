"""``mpix-experiments``: run the paper's experiments from the shell.

``run`` and ``report`` exit 1 when any paper anchor falls outside its
tolerance.

Examples::

    mpix-experiments list
    mpix-experiments run fig5 --scale quick
    mpix-experiments report --scale paper -o EXPERIMENTS.md
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.experiments.registry import all_experiments, get_experiment
from repro.experiments.report import experiment_report, full_report


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point."""
    parser = argparse.ArgumentParser(prog="mpix-experiments",
                                     description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments")

    run_p = sub.add_parser("run", help="run one experiment")
    run_p.add_argument("id", help="experiment id, e.g. fig5")
    run_p.add_argument("--scale", default="paper",
                       choices=("paper", "quick"))
    run_p.add_argument("-o", "--output", default=None,
                       help="write results CSV here")

    rep_p = sub.add_parser("report", help="full paper-vs-measured report")
    rep_p.add_argument("--scale", default="paper", choices=("paper", "quick"))
    rep_p.add_argument("--only", nargs="*", default=None)
    rep_p.add_argument("-o", "--output", default=None)

    args = parser.parse_args(argv)

    if args.command == "list":
        for exp in all_experiments():
            print(f"{exp.id:8s} [{exp.method:6s}] {exp.title} ({exp.paper_ref})")
        return 0

    if args.command == "run":
        exp = get_experiment(args.id)
        results = exp.run(args.scale)
        print(experiment_report(exp, results))
        if args.output:
            results.save(args.output)
            print(f"results written to {args.output}")
        return 0 if all(row["passed"] for row in exp.check_all(results)) else 1

    text, passed = full_report(args.scale, args.only)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"report written to {args.output}")
    else:
        print(text)
    return 0 if passed else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
