"""Reach probe: the functions of ``src/repro`` that no product entry
point enters (``make reach``).

    python tools/reach.py

Runs every product entry point in this one process under
``sys.setprofile`` / ``threading.setprofile`` (rank fibers are
threads), records each code object entered, and prints every ``def``
under ``src/repro`` never entered that the allowlist does not name:

* the five examples;
* ``mpix-experiments run <id>`` for every registered experiment, at
  paper scale except fig6 (quick), plus ``list`` and a one-figure
  ``report``;
* the trace, scale, hier, hetero and elastic smokes as the Makefile
  spells them (the scale smoke's pytest half is tests, not product);
* every ``mpix-omb`` benchmark once at one small size, every
  ``mpix-trace`` subcommand on the smoke's trace, ``mpix-tune --show``
  (writing its table), and ``run table1 -o`` in both output formats.

The allowlist, ``tools/reach_allow.txt`` beside this file, holds one
line per function, ``module:qualname  kind  note``, where ``kind`` is
one of :data:`KINDS`; an ``api`` note names the function's reader (one
of :data:`READERS`).  An entry without a kind, an ``api`` entry whose
note names no reader, a duplicate, an entry whose function no longer
exists and one whose function is now reached are problems too.  The exit status is 1 when anything is printed, 2
when an entry point fails.

About two and a half minutes on 2 CPUs.  The probe runs the tree it
sits in, so a copy of this file in another checkout probes that
checkout; with no allowlist there it lists every unreached function.
"""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import io
import os
import runpy
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import (Callable, Dict, Iterable, Iterator, List, NamedTuple,
                    Set, Tuple)
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: a missing file is an empty allowlist
ALLOWLIST = ROOT / "tools" / "reach_allow.txt"

#: allowlist reasons: MPI / xCCL surface a reader needs; a test seam
#: the ROADMAP keeps; the fault-plan API; safety code only a legal but
#: rare program reaches; a name the benchmark's span table
#: (benchmarks/e2e/spans.py) wraps
KINDS = ("api", "seam", "faults", "safety", "bench")
#: what an ``api`` note names as the function's reader: a docs/api.md
#: entry, a PAPER.md section or an example
READERS = ("docs/api.md", "PAPER.md §", "examples/")


class Function(NamedTuple):
    path: str       # resolved source path
    line: int       # first line (the first decorator's, as in co_firstlineno)
    lines: int      # source lines of the def, decorators included


def defined(src: Path = SRC) -> Dict[str, Function]:
    """Every ``def`` under ``src/repro``, keyed ``module:qualname``
    (lambdas and comprehensions are not counted)."""
    found: Dict[str, Function] = {}
    for path in sorted((src / "repro").rglob("*.py")):
        rel = path.relative_to(src).with_suffix("")
        module = ".".join(rel.parts[:-1] if rel.name == "__init__"
                          else rel.parts)
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        resolved = str(path.resolve())

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in
                                                  child.decorator_list])
                    name = f"{module}:{prefix}{child.name}"
                    if name in found:       # a property's setter
                        name = f"{name}@{first}"
                    found[name] = Function(resolved, first,
                                           child.end_lineno - first + 1)
                    visit(child, f"{prefix}{child.name}.<locals>.")
                else:
                    visit(child, prefix)

        visit(tree, "")
    return found


@contextlib.contextmanager
def entered() -> Iterator[Set]:
    """Collect the code object of every Python function entered, in
    this thread and in every thread started inside the block."""
    seen: Set = set()
    add = seen.add

    def profile(frame, event, _arg):
        if event == "call":
            add(frame.f_code)

    sys.setprofile(profile)
    threading.setprofile(profile)
    try:
        yield seen
    finally:
        sys.setprofile(None)
        threading.setprofile(None)


def unreached(seen: Iterable, functions: Dict[str, Function]) -> Set[str]:
    """Names of ``functions`` whose code object is not in ``seen``."""
    where: Dict[str, str] = {}
    hits = set()
    for code in seen:
        path = where.get(code.co_filename)
        if path is None:
            path = where[code.co_filename] = os.path.realpath(
                code.co_filename)
        hits.add((path, code.co_firstlineno))
    return {name for name, fn in functions.items()
            if (fn.path, fn.line) not in hits}


def read_allowlist(lines: Iterable[str], functions: Dict[str, Function],
                   missed: Set[str]) -> Tuple[Set[str], List[str]]:
    """``(allowed names, problems)`` of an allowlist's lines."""
    allowed: Set[str] = set()
    problems: List[str] = []
    for number, raw in enumerate(lines, 1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        name, *reason = text.split()
        where = f"allowlist line {number}: {name}"
        if not reason or reason[0] not in KINDS:
            problems.append(f"{where}: no reason (start it with one of "
                            f"{', '.join(KINDS)})")
        elif reason[0] == "api" and not any(
                reader in " ".join(reason[1:]) for reader in READERS):
            problems.append(f"{where}: an api note names no reader (one "
                            f"of {', '.join(READERS)})")
        elif name in allowed:
            problems.append(f"{where}: listed twice")
        elif name not in functions:
            problems.append(f"{where}: stale, no such function")
        elif name not in missed:
            problems.append(f"{where}: stale, an entry point reaches it")
        allowed.add(name)
    return allowed, problems


def entry_points(tmp: Path) -> List[Tuple[str, Callable[[], object]]]:
    """``(label, call)`` of every product entry point, in run order."""
    from repro.core import tune_cli
    from repro.experiments import cli as experiments
    from repro.experiments.registry import all_experiments
    from repro.obs import cli as trace
    from repro.omb import cli as omb
    from repro.omb.collective import COLLECTIVE_BENCHMARKS

    spec = importlib.util.spec_from_file_location(
        "elastic_smoke", ROOT / "tools" / "elastic_smoke.py")
    elastic = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(elastic)

    smoke, bulk = str(tmp / "trace.json"), str(tmp / "bulk.json")
    hier, hetero = str(tmp / "hier.json"), str(tmp / "hetero.json")
    fault = str(tmp / "elastic.json")
    short = ["--iterations", "2", "--warmup", "1"]
    tables = ROOT / "tools" / "tables"

    def example(path: Path) -> Callable[[], object]:
        def run() -> None:
            argv, sys.argv = sys.argv, [str(path)]
            try:
                runpy.run_path(str(path), run_name="__main__")
            finally:
                sys.argv = argv
        return run

    def with_table(name: str, call: Callable[[], object]):
        def run() -> object:
            with mock.patch.dict(os.environ,
                                 MPIX_TUNING_FILE=str(tables / name)):
                return call()
        return run

    points: List[Tuple[str, Callable[[], object]]] = [
        (f"examples/{path.name}", example(path))
        for path in sorted((ROOT / "examples").glob("*.py"))]
    points.append(("mpix-experiments list", lambda: experiments.main(["list"])))
    for exp in all_experiments():
        scale = "quick" if exp.id == "fig6" else "paper"
        points.append((f"mpix-experiments run {exp.id} --scale {scale}",
                       lambda argv=["run", exp.id, "--scale", scale]:
                       experiments.main(argv)))
    points += [
        (f"mpix-experiments run table1 -o table1.{ext}",
         lambda ext=ext: experiments.main(
             ["run", "table1", "-o", str(tmp / f"table1.{ext}")]))
        for ext in ("csv", "json")]
    points += [
        ("mpix-experiments report --only table1",
         lambda: experiments.main(["report", "--scale", "quick", "--only",
                                   "table1", "-o", str(tmp / "report.md")])),
        ("trace-smoke", lambda: omb.main(
            ["allreduce", "alltoallv", "--system", "thetagpu", "--nodes",
             "1", "--sizes", "4K:256K", *short, "--trace", smoke])),
        ("trace-smoke bulk", lambda: omb.main(
            ["alltoall", "--stack", "ccl", "--system", "thetagpu",
             "--nodes", "2", "--sizes", "4K:64K", *short, "--trace", bulk])),
        ("hier-smoke", with_table("hier_smoke.json", lambda: omb.main(
            ["allreduce", "bcast", "--system", "thetagpu", "--topology",
             "4x8", "--nics", "8", "--sizes", "2M:16M", *short, "--stats",
             "--trace", hier]))),
        ("hetero-smoke", with_table("hetero_smoke.json", lambda: omb.main(
            ["allreduce", "bcast", "--vendors", "nvidia:2,amd:2", "--sizes",
             "256K:4M", *short, "--stats", "--trace", hetero]))),
        ("elastic-smoke", lambda: elastic.main(["elastic_smoke", fault])),
    ]
    points += [
        (f"scale-smoke {name}", lambda name=name: omb.main(
            [name, "--system", "thetagpu", "--nodes", "4", "--ranks", "256",
             "--sizes", "4:4", *short]))
        for name in ("barrier", "allreduce")]
    for name in sorted(COLLECTIVE_BENCHMARKS) + list(omb.PT2PT):
        points.append((f"mpix-omb {name}", lambda name=name: omb.main(
            [name, "--sizes", "4K:4K", "--iterations", "1",
             "--warmup", "0"])))
    for path in (smoke, bulk, hier, hetero, fault):
        points.append((f"mpix-trace validate {Path(path).name}",
                       lambda path=path: trace.main(["validate", path])))
        points.append((f"mpix-trace summarize {Path(path).name}",
                       lambda path=path: trace.main(["summarize", path])))
    points += [
        ("mpix-trace diff", lambda: trace.main(["diff", smoke, bulk])),
        ("mpix-trace tune-report", lambda: trace.main(
            ["tune-report", fault, "--system", "thetagpu", "--nodes", "2",
             "--ranks", "16"])),
        ("mpix-tune --show", lambda: tune_cli.main(
            ["--system", "thetagpu", "--nodes", "4", "--show", "-o",
             str(tmp / "table.json")])),
    ]
    return points


def run_entry_points() -> Tuple[Set, List[str]]:
    """Run every entry point under :func:`entered`: the code objects
    entered, and the entry points that failed."""
    failures: List[str] = []
    with tempfile.TemporaryDirectory(prefix="mpix-reach-") as tmp:
        with entered() as seen:
            # imports run decorators and registries: build inside
            points = entry_points(Path(tmp))
            for label, call in points:
                start = time.perf_counter()
                out = io.StringIO()
                try:
                    with contextlib.redirect_stdout(out), \
                            contextlib.redirect_stderr(out):
                        status = call()
                except SystemExit as exc:
                    status = exc.code
                except Exception as exc:  # noqa: BLE001 - reported below
                    status = f"{type(exc).__name__}: {exc}"
                if status not in (0, None):
                    failures.append(f"{label}: {status}\n{out.getvalue()}")
                print(f"reach: {label}: {time.perf_counter() - start:.1f} s",
                      file=sys.stderr, flush=True)
    return seen, failures


def main() -> int:
    sys.path.insert(0, str(SRC))

    # the defs as they stand when the probe starts: a source edited
    # while the entry points run must not read as unreached
    functions = defined()
    seen, failures = run_entry_points()
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    if failures:
        return 2

    missed = unreached(seen, functions)
    lines: List[str] = []
    if ALLOWLIST.exists():
        lines = ALLOWLIST.read_text(encoding="utf-8").splitlines()
    allowed, problems = read_allowlist(lines, functions, missed)
    listed = sorted(missed - allowed)
    for name in listed:
        fn = functions[name]
        print(f"{name}  {fn.lines} lines  "
              f"{os.path.relpath(fn.path, ROOT)}:{fn.line}")
    for problem in problems:
        print(problem)
    print(f"reach: {len(functions)} functions, {len(missed)} unreached "
          f"({sum(functions[n].lines for n in missed)} lines), "
          f"{len(allowed & missed)} allowed, {len(listed)} listed, "
          f"{len(problems)} allowlist problems", file=sys.stderr)
    return 1 if listed or problems else 0


if __name__ == "__main__":
    sys.exit(main())
