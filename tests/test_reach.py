"""The reach probe's parts (tools/reach.py), on tiny inputs: the
collector, the unreached-function report and the allowlist reader.
``make reach`` runs the entry points themselves."""

from __future__ import annotations

import importlib.util
import threading
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "reach", Path(__file__).resolve().parents[1] / "tools" / "reach.py")
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)


def _entered_one():
    return 1


def _never_entered():
    return 2


def _in_a_thread():
    return 3


def _functions(*fns):
    """``defined()``'s shape for a few functions of this file."""
    return {f"tests.test_reach:{fn.__qualname__}":
            reach.Function(str(Path(fn.__code__.co_filename).resolve()),
                           fn.__code__.co_firstlineno, 2)
            for fn in fns}


def test_collector_reports_what_it_never_entered():
    with reach.entered() as seen:
        _entered_one()
        worker = threading.Thread(target=_in_a_thread)
        worker.start()
        worker.join()
    missed = reach.unreached(
        seen, _functions(_entered_one, _never_entered, _in_a_thread))
    assert missed == {"tests.test_reach:_never_entered"}


def test_defined_names_every_def(tmp_path):
    pkg = tmp_path / "repro"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("def top():\n    pass\n")
    (pkg / "mod.py").write_text(
        "class C:\n"
        "    @property\n"
        "    def x(self):\n"
        "        return 1\n"
        "\n"
        "    @x.setter\n"
        "    def x(self, value):\n"
        "        def inner():\n"
        "            pass\n")
    functions = reach.defined(tmp_path)
    assert sorted(functions) == ["repro.mod:C.x", "repro.mod:C.x.<locals>.inner",
                                 "repro.mod:C.x@6", "repro:top"]
    assert functions["repro.mod:C.x"].line == 2       # the decorator's
    assert functions["repro.mod:C.x@6"].lines == 4


def test_allowlist_reader():
    functions = _functions(_entered_one, _never_entered, _in_a_thread)
    missed = {"tests.test_reach:_never_entered",
              "tests.test_reach:_in_a_thread"}
    lines = ["# a comment", "",
             "tests.test_reach:_never_entered  api  docs/api.md MPI_Foo",
             "tests.test_reach:_in_a_thread",
             "tests.test_reach:_entered_one  seam  reached since",
             "tests.test_reach:_gone  safety  deleted since",
             "tests.test_reach:_never_entered  api  docs/api.md again"]
    allowed, problems = reach.read_allowlist(lines, functions, missed)
    assert "tests.test_reach:_never_entered" in allowed
    assert problems == [
        "allowlist line 4: tests.test_reach:_in_a_thread: no reason "
        "(start it with one of api, seam, faults, safety, bench)",
        "allowlist line 5: tests.test_reach:_entered_one: stale, an entry "
        "point reaches it",
        "allowlist line 6: tests.test_reach:_gone: stale, no such function",
        "allowlist line 7: tests.test_reach:_never_entered: listed twice",
    ]


def test_a_reason_must_name_its_kind():
    functions = _functions(_never_entered)
    missed = set(functions)
    _, problems = reach.read_allowlist(
        ["tests.test_reach:_never_entered  because"], functions, missed)
    assert problems and "no reason" in problems[0]


def test_an_api_note_must_name_its_reader():
    functions = _functions(_never_entered, _in_a_thread)
    missed = set(functions)
    _, problems = reach.read_allowlist(
        ["tests.test_reach:_never_entered  api  MPI_Foo",
         "tests.test_reach:_in_a_thread  api  PAPER.md §3.3 Gatherv"],
        functions, missed)
    assert problems == [
        "allowlist line 1: tests.test_reach:_never_entered: an api note "
        "names no reader (one of docs/api.md, PAPER.md §, examples/)"]


def test_the_defs_are_read_before_any_entry_point_runs(monkeypatch, tmp_path):
    """``main`` snapshots the defs first: a source file edited while the
    entry points run must not list its functions as unreached."""
    order = []

    def defined():
        order.append("defined")
        return {}

    def run_entry_points():
        order.append("entry points")
        return set(), []

    monkeypatch.setattr(reach, "defined", defined)
    monkeypatch.setattr(reach, "run_entry_points", run_entry_points)
    monkeypatch.setattr(reach, "ALLOWLIST", tmp_path / "none.txt")
    monkeypatch.setattr(reach.sys, "path", list(reach.sys.path))
    assert reach.main() == 0
    assert order == ["defined", "entry points"]
