"""Per-layer spans, recorded from outside the program.

The span table below is data: one ``(layer, dotted target, kind)`` row
per public function the benchmark wraps.  Wrapping happens at class or
module level only — assigning ``Mailbox.post`` on an *instance* flips
``Mailbox.patched`` and silently degrades zero-copy and group fusion,
which would make the traced program a different program.

A target that no longer resolves is skipped and reported
(``Recorder.absent``); the metrics that need it come out as ``None``.
That is what lets later changes delete ``ThreadWaitq``, ``bridge.py`` or
``fastpath.STATS`` without editing the benchmark.

Spans live in per-thread ``array('q')`` buffers (seven ints per span:
name, parent, start ns, end ns, tag, thread CPU ns, aux) and are
aggregated with numpy when the run ends.  A span's *self* time is its
duration minus the part its child spans cover — once on the wall clock
(``perf_counter_ns``: includes waiting for locks and for the GIL) and
once on the thread's CPU clock (``thread_time_ns``: busy time only).
Each span belongs to the phase its thread was in when it started; a
rank sets its own phase at a program point, so attribution to the timed
batches is exact per rank.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
import time
from array import array

import numpy as np

SETUP, TIMED, OTHER = 0, 1, 2
PHASES = ("setup", "timed", "other")

#: (layer, dotted target, kind) — kinds are the ``_TAGGERS`` keys below
#: plus the two argument-wrapping kinds ``wait`` and ``engine_run``.
SPANS = (
    ("sim.engine", "repro.sim.engine.Engine.__init__", "engine_init"),
    ("sim.engine", "repro.sim.engine.Engine.run", "engine_run"),
    ("sim.engine", "repro.sim.engine.CollectiveSlot.exchange", "span"),
    ("sim.engine", "repro.sim.engine.CollectiveSlot.consume_barrier", "span"),
    ("sim.engine", "repro.sim.engine.GroupExchangeSlot.exchange_for", "span"),
    ("sim.sched", "repro.sim.sched.ThreadWaitq.wait_for", "wait"),
    ("sim.sched", "repro.sim.sched.CoopWaitq.wait_for", "wait"),
    ("sim.sched", "repro.sim.sched.CoopScheduler.park", "span"),
    ("sim.mailbox", "repro.sim.mailbox.Mailbox.post", "msg_kind"),
    ("sim.mailbox", "repro.sim.mailbox.Mailbox.post_many", "len_arg"),
    ("sim.mailbox", "repro.sim.mailbox.Mailbox.match", "span"),
    ("sim.mailbox", "repro.sim.mailbox.Mailbox.match_many", "len_arg"),
    ("sim.mailbox", "repro.sim.mailbox.Mailbox.try_match", "span"),
    ("sim.wire", "repro.sim.wire.WireTracker.book", "span"),
    ("sim.wire", "repro.sim.wire.WireTracker.book_many", "len_arg"),
    ("core.dispatch", "repro.core.dispatch.CollectivePipeline.run", "span"),
    ("core.dispatch", "repro.core.dispatch.CollectivePipeline.decide", "span"),
    ("core.dispatch", "repro.core.dispatch.CollectivePipeline.execute", "route"),
    ("core.plan", "repro.core.plan.PlanCache.lookup", "hit"),
    ("core.plan", "repro.core.plan.BufferPool.acquire", "hit"),
    ("core.tuning_table", "repro.core.tuning_table.cached_table", "span"),
    ("core.tuning_table", "repro.core.tuning_table.tune_offline", "span"),
    ("perfmodel", "repro.perfmodel.ccl_models.collective_time", "span"),
    ("perfmodel", "repro.perfmodel.ccl_models.allreduce_time", "span"),
    ("perfmodel", "repro.perfmodel.ccl_models.bcast_time", "span"),
    ("perfmodel", "repro.perfmodel.ccl_models.reduce_time", "span"),
    ("perfmodel", "repro.perfmodel.ccl_models.allgather_time", "span"),
    ("perfmodel", "repro.perfmodel.ccl_models.reduce_scatter_time", "span"),
    ("perfmodel", "repro.perfmodel.ccl_models.alltoall_time", "span"),
    ("perfmodel", "repro.perfmodel.ccl_models.p2p_time", "span"),
    ("perfmodel", "repro.perfmodel.mpi_models.collective_time", "span"),
    ("perfmodel", "repro.perfmodel.mpi_models.p2p_step", "span"),
    ("perfmodel", "repro.perfmodel.mpi_models.barrier_time", "span"),
    ("mpi.coll", "repro.mpi.coll.MPICollDispatcher.barrier", "span"),
    ("mpi.coll", "repro.mpi.coll.MPICollDispatcher.bcast", "span"),
    ("mpi.coll", "repro.mpi.coll.MPICollDispatcher.reduce", "span"),
    ("mpi.coll", "repro.mpi.coll.MPICollDispatcher.allreduce", "span"),
    ("mpi.coll", "repro.mpi.coll.MPICollDispatcher.allgather", "span"),
    ("mpi.coll", "repro.mpi.coll.MPICollDispatcher.allgatherv", "span"),
    ("mpi.coll", "repro.mpi.coll.MPICollDispatcher.alltoall", "span"),
    ("mpi.coll", "repro.mpi.coll.MPICollDispatcher.alltoallv", "span"),
    ("mpi.coll", "repro.mpi.coll.MPICollDispatcher.gather", "span"),
    ("mpi.coll", "repro.mpi.coll.MPICollDispatcher.scatter", "span"),
    ("mpi.coll", "repro.mpi.coll.MPICollDispatcher.reduce_scatter_block", "span"),
    ("mpi.p2p", "repro.mpi.p2p.P2PEndpoint.send", "span"),
    ("mpi.p2p", "repro.mpi.p2p.P2PEndpoint.isend", "span"),
    ("mpi.p2p", "repro.mpi.p2p.P2PEndpoint.recv", "span"),
    ("mpi.p2p", "repro.mpi.p2p.P2PEndpoint.irecv", "span"),
    ("mpi.p2p", "repro.mpi.p2p.P2PEndpoint.sendrecv", "span"),
    ("mpi.p2p", "repro.mpi.request.Request.wait", "span"),
    ("xccl.backend", "repro.xccl.backend.CCLBackend.all_reduce", "span"),
    ("xccl.backend", "repro.xccl.backend.CCLBackend.broadcast", "span"),
    ("xccl.backend", "repro.xccl.backend.CCLBackend.reduce", "span"),
    ("xccl.backend", "repro.xccl.backend.CCLBackend.all_gather", "span"),
    ("xccl.backend", "repro.xccl.backend.CCLBackend.reduce_scatter", "span"),
    ("xccl.backend", "repro.xccl.backend.CCLBackend.send", "span"),
    ("xccl.backend", "repro.xccl.backend.CCLBackend.recv", "span"),
    ("xccl.backend", "repro.xccl.backend.group_end", "span"),
    ("hw.memory", "repro.hw.memory.Buffer.copy_from", "nbytes"),
    ("mpi.ops", "repro.mpi.ops.Op.reduce_into", "nbytes"),
    ("sim.tracing", "repro.sim.tracing.Trace.record", "span"),
)

#: program counters read (defensively) for ratios no wrapper can see
COUNTERS_TARGET = "repro.fastpath.snapshot"

_now = time.perf_counter_ns
_cpu = time.thread_time_ns
_WIDTH = 7  # ints per span in a thread buffer
_NAME, _PARENT, _START, _END, _TAG, _CPU, _AUX = range(_WIDTH)
#: summed per group by :meth:`Recorder.aggregate`
FIELDS = ("n", "total_ns", "self_ns", "cpu_ns", "cpu_self_ns", "tag_sum",
          "aux_sum")


def short_name(target):
    """``repro.sim.mailbox.Mailbox.post`` -> ``Mailbox.post``."""
    return ".".join(target.split(".")[-2:])


def resolve(target):
    """``(owner, attribute name)`` of a dotted target, or ``None`` when
    any part of the path is gone."""
    parts = target.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for attr in parts[cut:-1]:
                owner = getattr(owner, attr)
            getattr(owner, parts[-1])
        except AttributeError:
            return None
        return owner, parts[-1]
    return None


def read_counters():
    """The program's own counters, or ``{}`` when they are gone."""
    found = resolve(COUNTERS_TARGET)
    if found is None:
        return {}
    try:
        snap = getattr(*found)()
        return {k: v for k, v in snap.get("counters", {}).items()
                if isinstance(v, (int, float))}
    except Exception:  # noqa: BLE001 - a foreign API that changed shape
        return {}


class _ThreadState:
    __slots__ = ("buf", "top", "marks")

    def __init__(self, phase):
        self.buf = array("q")
        self.top = -1
        #: (first span index, phase) boundaries, in order
        self.marks = [(0, phase)]


class Recorder:
    """Installs the span table and owns every thread's span buffer."""

    def __init__(self):
        self.enabled = False
        #: phase of threads that have not marked themselves yet
        self.default_phase = SETUP
        self.names = []           # span name per name id
        self.layers = []          # layer per name id
        self.kinds = []           # span kind per name id
        self.absent = []          # targets that did not resolve
        self.labels = ["-"]       # categorical tag label per tag id
        self._label_ids = {"-": 0}
        self._local = threading.local()
        self._states = []
        self._lock = threading.Lock()
        self._undo = []
        #: program counters accumulated across engines (``Engine()``
        #: zeroes the process-global counters; see the engine_init kind)
        self.counter_totals = {}

    # -- per-thread state ---------------------------------------------------

    def _state(self):
        st = self._local.__dict__.get("st")
        if st is None:
            st = self._local.st = _ThreadState(self.default_phase)
            with self._lock:
                self._states.append(st)
        return st

    def mark(self, phase):
        """Spans this thread starts from now on belong to ``phase``."""
        st = self._state()
        st.marks.append((len(st.buf) // _WIDTH, phase))

    def label_id(self, label):
        """Small-int id of a categorical tag."""
        got = self._label_ids.get(label)
        if got is None:
            with self._lock:
                got = self._label_ids.setdefault(label, len(self.labels))
                if got == len(self.labels):
                    self.labels.append(label)
        return got

    # -- installation -------------------------------------------------------

    def install(self, table=SPANS):
        """Wrap every resolvable target of ``table``; returns self."""
        for layer, target, kind in table:
            found = resolve(target)
            owner, attr = found if found else (None, None)
            # a class target must be defined by that class, not inherited
            raw = None if found is None else (
                owner.__dict__.get(attr) if isinstance(owner, type)
                else getattr(owner, attr))
            if raw is None:
                self.absent.append(target)
                continue
            name_id = len(self.names)
            self.names.append(short_name(target))
            self.layers.append(layer)
            self.kinds.append(kind)
            binder = type(raw) if isinstance(raw, (staticmethod, classmethod)) \
                else None
            fn = raw.__func__ if binder else raw
            wrapped = self._wrap(fn, name_id, kind, binder is staticmethod)
            wrapped.__wrapped__ = fn
            wrapped.__name__ = getattr(fn, "__name__", attr)
            self._set(owner, attr, raw, binder(wrapped) if binder else wrapped)
            if not isinstance(owner, type):
                # ``from module import fn`` copies: patch those bindings too
                for mod in list(sys.modules.values()):
                    if mod is not owner \
                            and getattr(mod, "__name__", "").startswith("repro.") \
                            and mod.__dict__.get(attr) is raw:
                        self._set(mod, attr, raw, wrapped)
        self.enabled = True
        return self

    def _set(self, owner, attr, old, new):
        setattr(owner, attr, new)
        self._undo.append((owner, attr, old))

    def uninstall(self):
        """Restore every wrapped attribute."""
        self.enabled = False
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()

    # -- the wrappers -------------------------------------------------------

    def _wrap(self, fn, name_id, kind, is_static):
        rec = self
        state = self._state
        tagger = _TAGGERS.get(kind)
        first = 0 if is_static or not _takes_self(fn) else 1

        def open_span(st):
            base = len(st.buf)
            st.buf.extend((name_id, st.top, _now(), 0, 0, _cpu(), 0))
            st.top = base // _WIDTH
            return base

        def close_span(st, base, tag, aux=0):
            buf = st.buf
            buf[base + _CPU] = _cpu() - buf[base + _CPU]
            buf[base + _END] = _now()
            buf[base + _TAG] = tag
            buf[base + _AUX] = aux
            st.top = buf[base + _PARENT]

        if kind == "wait":
            # the predicate is the *caller's* work (a mailbox match runs
            # inside it): time it apart — wall in tag, CPU in aux
            def wrapper(self, predicate, *args, **kwargs):
                if not rec.enabled:
                    return fn(self, predicate, *args, **kwargs)
                spent = [0, 0]

                def timed_predicate():
                    wall, cpu = _now(), _cpu()
                    try:
                        return predicate()
                    finally:
                        spent[0] += _now() - wall
                        spent[1] += _cpu() - cpu

                st = state()
                base = open_span(st)
                try:
                    return fn(self, timed_predicate, *args, **kwargs)
                finally:
                    close_span(st, base, spent[0], spent[1])
            return wrapper

        if kind == "engine_run":
            # tag = the longest rank body, so run - tag is the engine's own
            def wrapper(self, body, *args, **kwargs):
                if not rec.enabled:
                    return fn(self, body, *args, **kwargs)
                longest = [0]

                def timed_body(*a, **k):
                    began = _now()
                    try:
                        return body(*a, **k)
                    finally:
                        longest[0] = max(longest[0], _now() - began)

                st = state()
                base = open_span(st)
                try:
                    return fn(self, timed_body, *args, **kwargs)
                finally:
                    close_span(st, base, longest[0])
            return wrapper

        if kind == "engine_init":
            def wrapper(*args, **kwargs):
                if not rec.enabled:
                    return fn(*args, **kwargs)
                rec.bank_counters()  # the constructor zeroes them
                st = state()
                base = open_span(st)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close_span(st, base, 0)
            return wrapper

        if tagger is None and kind != "span":
            raise ValueError(f"unknown span kind {kind!r}")

        def wrapper(*args, **kwargs):
            if not rec.enabled:
                return fn(*args, **kwargs)
            st = state()
            base = open_span(st)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                close_span(st, base, 0)
                raise
            close_span(st, base,
                       tagger(rec, args[first:], result) if tagger else 0)
            return result
        return wrapper

    def bank_counters(self):
        """Add the program's current counters to the running totals."""
        for key, value in read_counters().items():
            self.counter_totals[key] = self.counter_totals.get(key, 0) + value

    # -- aggregation --------------------------------------------------------

    def aggregate(self):
        """Group every closed span by (name, parent name, phase,
        categorical tag): rows of ``{"name", "parent", "phase", "tag"}``
        plus the sums :data:`FIELDS`.  Numeric tags are summed into
        ``tag_sum``; categorical ones split the group."""
        categorical = np.array([k in _CATEGORICAL for k in self.kinds],
                               dtype=bool)
        sums = {}
        with self._lock:
            states = list(self._states)
        for st in states:
            spans = np.array(st.buf, dtype=np.int64).reshape(-1, _WIDTH)
            closed = spans[:, _END] > 0
            if not closed.any():
                continue
            name, parent = spans[:, _NAME], spans[:, _PARENT]
            wall = np.where(closed, spans[:, _END] - spans[:, _START], 0)
            cpu = np.where(closed, spans[:, _CPU], 0)
            nested = (parent >= 0) & closed
            count = len(spans)

            def minus_children(dur):
                return dur - np.bincount(parent[nested], weights=dur[nested],
                                         minlength=count).astype(np.int64)

            parent_name = np.where(parent >= 0,
                                   spans[np.maximum(parent, 0), _NAME], -1)
            phase = np.empty(count, dtype=np.int64)
            starts = [first for first, _phase in st.marks] + [count]
            for (lo, ph), hi in zip(st.marks, starts[1:]):
                phase[lo:hi] = ph
            is_cat = categorical[name]
            label = np.where(is_cat, spans[:, _TAG], 0)
            key = (((name * _KEY_NAMES + parent_name + 1) * len(PHASES)
                    + phase) * _KEY_LABELS + label)[closed]
            columns = (np.ones(count), wall, minus_children(wall), cpu,
                       minus_children(cpu),
                       np.where(is_cat, 0, spans[:, _TAG]), spans[:, _AUX])
            uniq, inverse = np.unique(key, return_inverse=True)
            totals = [np.bincount(inverse, weights=col[closed])
                      for col in columns]
            for i, k in enumerate(uniq.tolist()):
                row = sums.setdefault(k, [0] * len(FIELDS))
                for j, col in enumerate(totals):
                    row[j] += int(col[i])
        out = []
        for k in sorted(sums):
            rest, label = divmod(k, _KEY_LABELS)
            rest, phase = divmod(rest, len(PHASES))
            name, parent_name = divmod(rest, _KEY_NAMES)
            row = {"name": self.names[name],
                   "parent": self.names[parent_name - 1] if parent_name
                   else None,
                   "phase": PHASES[phase], "tag": self.labels[label]}
            row.update(zip(FIELDS, sums[k]))
            out.append(row)
        return out

    def span_count(self):
        """Spans recorded so far, all threads."""
        with self._lock:
            return sum(len(st.buf) // _WIDTH for st in self._states)

    def dump(self, path):
        """Write every raw span as JSON lines: thread, name, parent index
        within the thread, start ns, end ns, tag, CPU ns, aux."""
        with self._lock:
            states = list(self._states)
        with open(path, "w", encoding="utf-8") as fh:
            for tid, st in enumerate(states):
                buf = st.buf
                for i in range(0, len(buf), _WIDTH):
                    fh.write(json.dumps(
                        [tid, self.names[buf[i]]] + buf[i + 1:i + _WIDTH]
                        .tolist()) + "\n")


#: key packing of :meth:`Recorder.aggregate` (names incl. "no parent")
_KEY_NAMES = 512
_KEY_LABELS = 4096


def _takes_self(fn):
    code = getattr(fn, "__code__", None)
    return bool(code and code.co_argcount and code.co_varnames[0] == "self")


def _tag_len(rec, args, result):
    return len(args[0])


def _tag_nbytes(rec, args, result):
    return int(getattr(args[0], "nbytes", 0))


def _tag_route(rec, args, result):
    route = getattr(getattr(result, "route", None), "value", None)
    fallback = getattr(result, "is_fallback", False)
    return rec.label_id(f"{route}{'+fallback' if fallback else ''}")


def _tag_hit(rec, args, result):
    return rec.label_id("miss" if result is None else "hit")


def _tag_msg_kind(rec, args, result):
    meta = getattr(args[0], "meta", None) or {}
    return rec.label_id(str(meta.get("kind")))


_TAGGERS = {"len_arg": _tag_len, "nbytes": _tag_nbytes, "route": _tag_route,
            "hit": _tag_hit, "msg_kind": _tag_msg_kind}
_CATEGORICAL = {"route", "hit", "msg_kind"}
