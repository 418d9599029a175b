"""The data plan of a central program: its payloads, solved ahead.

A :class:`~repro.mpi.coll.replay.CentralProgram` runs every member's
rows of a hot key in one pass.  What those rows do to payloads is a
pure function of the key, like their rounds: each message reads its
send window at its departure and lands it in its receive window, each
copy and block permutation moves a window, each fold reduces one window
into another.  Its *data tape* is those steps, in the pass's order:

* ``(READ, message, member, role, offset, count)`` — a departure;
* ``(LAND, message, member, role, offset, count)``;
* ``(COPY, member, dst, doff, src, soff, count)``;
* ``(BLOCKS, member, dst, drows, src, srows, count)`` — block
  ``drows[i]`` of ``dst`` takes block ``srows[i]`` of ``src`` (None:
  ``i``), blocks of ``count`` elements;
* ``(FOLD, member, op, acc, aoff, operand, ooff, count)``.

A role is a member's buffer as the rows name it: 0 its send buffer, 1
its receive buffer, then its staging buffers.

:func:`solve` runs the tape once, symbolically.  A role's contents are
*runs*: intervals, each mapped to a *source* and an offset there.  The
sources are the call's buffers and the staging buffers as they were
when the call began, and one node per fold.  A message, a copy or a
permutation then moves no bytes; it maps runs.  So a chain of pack,
send, land and unpack becomes one gather.  What is left is a
:class:`DataPlan`:

* each fold, on the operands the rows would have read, in their order,
  into a node the plan keeps from call to call;
* one gather for each group of touching runs of a call buffer whose
  contents changed.  A group that another buffer already holds is
  copied from that buffer once it is written.

The plan holds runs, never an element each.

A storage-free buffer takes nothing and gives nothing.  When a step
would land a storage-free buffer's contents in real memory, the plan
raises what that step would have raised.  Which buffers hold storage is
part of the plan's key.
"""

from __future__ import annotations

from array import array
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.errors import InvalidBufferError
from repro.hw.memory import NO_CONTENTS, as_array

# data tape kinds
READ, LAND, COPY, BLOCKS, FOLD = range(5)

#: the source of a storage-free buffer's contents: nothing
NOTHING = -1
#: per tape kind, the fields of a step that are objects, not ints
_OBJECTS = {READ: (), LAND: (), COPY: (), BLOCKS: (3, 5), FOLD: (2,)}
#: per tape kind, the fields of a step
_WIDTH = {READ: 6, LAND: 6, COPY: 7, BLOCKS: 7, FOLD: 8}


class Tape:
    """A data tape as it is written and kept between solves: its steps
    as one flat array of ints, the objects among their fields (ops,
    block rows) aside — about half what the steps take as tuples.
    Iterating gives the steps back."""

    __slots__ = ("ints", "objects")

    def __init__(self) -> None:
        self.ints = array("q")
        self.objects: list = []

    def append(self, step: tuple) -> None:
        fields = _OBJECTS[step[0]]
        if fields:
            objects = self.objects
            step = list(step)
            for i in fields:
                objects.append(step[i])
                step[i] = len(objects) - 1
        self.ints.extend(step)

    def __iter__(self):
        ints, objects = self.ints, self.objects
        at, end = 0, len(ints)
        while at < end:
            kind = ints[at]
            step = ints[at:at + _WIDTH[kind]].tolist()
            at += len(step)
            for i in _OBJECTS[kind]:
                step[i] = objects[step[i]]
            yield tuple(step)


class DataPlan:
    """What a central call does to payloads (:func:`solve`): its folds
    in recorded order, then its gathers."""

    __slots__ = ("inputs", "scratch", "folds", "copied", "writes",
                 "nsources", "error")

    def __init__(self, inputs=(), scratch=(), folds=(), copied=(), writes=(),
                 nsources=0, error=False) -> None:
        #: ``(source, member, role)`` of each call buffer read
        self.inputs = inputs
        #: ``(source, staged index)`` of each staging buffer read where
        #: the call never wrote it
        self.scratch = scratch
        #: ``(ufunc or op, is a ufunc, node, acc, operand)``
        self.folds = folds
        #: sources read from a copy taken before any gather writes
        self.copied = copied
        #: ``(member, role, ((lo, hi, gather), ...))``
        self.writes = writes
        self.nsources = nsources
        #: a storage-free buffer's contents would land in real memory
        self.error = error

    def apply(self, arrs, staged) -> None:
        """Fold, then gather into the call's arrays ``arrs`` (per
        member, by role); ``staged`` holds the staging buffers.  A
        gather is a node's view, a slice ``(source, lo, hi)`` of a
        buffer, or a list of both, concatenated."""
        if self.error:
            raise InvalidBufferError(NO_CONTENTS)
        vals: List[Any] = [None] * self.nsources
        for i, m, r in self.inputs:
            vals[i] = arrs[m][r]
        for i, si in self.scratch:
            vals[i] = as_array(staged[si])
        for fn, ufunc, node, a, b in self.folds:
            if type(a) is tuple:
                a = vals[a[0]][a[1]:a[2]]
            elif type(a) is list:
                a = _concat(a, vals)
            if type(b) is tuple:
                b = vals[b[0]][b[1]:b[2]]
            elif type(b) is list:
                b = _concat(b, vals)
            if ufunc:   # Op.reduce_into's own shortcut
                fn(a, b, out=node)
            else:
                node[...] = a
                fn.reduce_into(node, b)
        for i in self.copied:
            vals[i] = vals[i].copy()
        for m, r, groups in self.writes:
            d = arrs[m][r]
            for lo, hi, spec in groups:
                kind = type(spec)
                if kind is np.ndarray:
                    d[lo:hi] = spec
                elif kind is tuple:
                    d[lo:hi] = vals[spec[0]][spec[1]:spec[2]]
                else:
                    _concat(spec, vals, d[lo:hi])


def _concat(parts, vals, out=None):
    """A gather of several pieces, concatenated (into ``out``)."""
    return np.concatenate([part if type(part) is np.ndarray
                           else vals[part[0]][part[1]:part[2]]
                           for part in parts], out=out)


def solve(data, kinds: Dict[Tuple[int, int], Tuple[Any, Any]],
          roles, stored) -> DataPlan:
    """The data plan of the tape ``data`` for a call whose buffers hold
    storage as ``stored`` says: per member, each of its ``roles`` (its
    call buffers the tape names), then each staging buffer by its
    staged index.  ``kinds`` maps every ``(member, role)`` the tape
    names to ``(dtype, staged index or None)``."""
    at = iter(stored)
    has = {(m, r): next(at) for m, touched in enumerate(roles)
           for r in touched}
    staged = tuple(at)
    runs: Dict[Tuple[int, int], list] = {}  # written runs (lo, hi, src, off)
    sources: list = []  # (member, role, staged index); None: a node
    origin: dict = {}   # (member, role) -> its contents' source
    sent: dict = {}     # message -> the pieces its departure read
    nodes: dict = {}    # a fold's source -> the array it folds into
    steps: list = []    # the folds, compiled as they are met

    def holds(m, r):
        s = has.get((m, r))
        if s is None:
            si = kinds[m, r][1]
            s = staged[si] if si is not None else True
        return s

    def source(m, r):
        i = origin.get((m, r))
        if i is None:
            i = origin[m, r] = len(sources)
            sources.append((m, r, kinds[m, r][1]))
        return i

    def read(m, r, lo, hi):
        """The pieces ``(source, lo, hi)`` role ``r`` holds in
        ``[lo, hi)``."""
        if hi <= lo:
            return []
        if not holds(m, r):
            return [(NOTHING, 0, hi - lo)]
        out, pos = [], lo
        for r_lo, r_hi, src, off in runs.get((m, r), ()):
            if r_hi <= pos:
                continue
            if r_lo >= hi:
                break
            if r_lo > pos:
                out.append((source(m, r), pos, r_lo))
                pos = r_lo
            end = min(r_hi, hi)
            out.append((src, off + pos - r_lo, off + end - r_lo))
            pos = end
        if pos < hi:
            out.append((source(m, r), pos, hi))
        return out

    def write(m, r, lo, pieces) -> bool:
        """Land ``pieces`` at ``lo`` of role ``r``; False where that
        lands nothing in real memory."""
        if not holds(m, r):
            return True
        if any(src == NOTHING for src, _, _ in pieces):
            return False
        hi = lo + sum(p_hi - p_lo for _, p_lo, p_hi in pieces)
        kept = []
        for run in runs.get((m, r), ()):
            r_lo, r_hi, src, off = run
            if r_hi <= lo or r_lo >= hi:
                kept.append(run)
                continue
            if r_lo < lo:
                kept.append((r_lo, lo, src, off))
            if r_hi > hi:
                kept.append((hi, r_hi, src, off + hi - r_lo))
        own, pos = source(m, r), lo
        for src, p_lo, p_hi in pieces:
            if src != own or p_lo != pos:   # not where it already is
                kept.append((pos, pos + p_hi - p_lo, src, p_lo))
            pos += p_hi - p_lo
        kept.sort()
        merged: list = []
        for run in kept:
            if merged:
                m_lo, m_hi, src, off = merged[-1]
                if m_hi == run[0] and src == run[2] \
                        and off + m_hi - m_lo == run[3]:
                    merged[-1] = (m_lo, run[1], src, off)
                    continue
            merged.append(run)
        runs[m, r] = merged
        return True

    ok = True
    for step in data:
        kind = step[0]
        if kind == READ:
            _, k, m, b, o, n = step
            sent[k] = read(m, b, o, o + n)
        elif kind == LAND:
            _, k, m, b, o, n = step
            ok = write(m, b, o, sent.pop(k))
        elif kind == COPY:
            _, m, d, do, s, so, n = step
            ok = write(m, d, do, read(m, s, so, so + n))
        elif kind == BLOCKS:
            _, m, d, drows, s, srows, n = step
            if n and holds(m, d):
                ok = holds(m, s)    # a storage-free source, even unread
                pairs = list(enumerate(srows)) if drows is None else [
                    (db, i if srows is None else srows[i])
                    for i, db in enumerate(drows)]
                moved = [(int(db) * n, read(m, s, int(sb) * n,
                                            int(sb) * n + n))
                         for db, sb in pairs]
                for pos, pieces in moved:
                    ok = ok and write(m, d, pos, pieces)
        else:   # FOLD: a storage-free accumulator folds nothing
            _, m, op, a, ao, b, bo, n = step
            if holds(m, a):
                ok = not n or holds(m, b)
                dtype = kinds[m, a][0]
                ufunc = isinstance(op.fn, np.ufunc) \
                    and dtype == kinds[m, b][0]
                acc = _gather(read(m, a, ao, ao + n), nodes, dtype)
                opnd = _gather(read(m, b, bo, bo + n), nodes, dtype)
                node = len(sources)
                sources.append(None)
                nodes[node] = out = np.empty(n, dtype)
                steps.append((op.fn if ufunc else op, ufunc, out, acc, opnd))
                write(m, a, ao, [(node, 0, n)])
        if not ok:
            return DataPlan(error=True)
    return _compile(steps, nodes, runs, sources)


def _gather(pieces, nodes, dtype=None):
    """What a fold or a write reads: a node (or its view), a slice
    ``(source, lo, hi)`` of a buffer, or a list of both."""
    parts = [(src, lo, hi) if src not in nodes
             else nodes[src] if lo == 0 and hi == len(nodes[src])
             else nodes[src][lo:hi] for src, lo, hi in pieces]
    if not parts:
        return np.empty(0, dtype)
    return parts[0] if len(parts) == 1 else parts


def _compile(steps, nodes, runs, sources) -> DataPlan:
    """The :class:`DataPlan` of a solved tape: its compiled fold
    ``steps`` into ``nodes``, and the final ``runs`` of each role over
    ``sources``."""
    writes = []
    finals: dict = {}   # source -> (member, role): a call buffer as written
    seen: dict = {}     # a group's pieces -> (source, lo) already holding them
    for (m, r), held in sorted(runs.items()):
        if r >= 2 or not held:
            continue    # a staging buffer's contents are scratch
        groups: list = []
        for lo, hi, src, off in held:
            piece = (src, off, off + hi - lo)
            if groups and groups[-1][1] == lo:
                g_lo, _, pieces = groups[-1]
                groups[-1] = (g_lo, hi, pieces + (piece,))
            else:
                groups.append((lo, hi, (piece,)))
        for g, (lo, hi, pieces) in enumerate(groups):
            again = seen.get(pieces)
            if again is not None:
                groups[g] = (lo, hi, ((again[0], again[1],
                                       again[1] + hi - lo),))
            elif len(pieces) > 1:
                final = len(sources)
                sources.append(None)
                finals[final] = (m, r)
                seen[pieces] = (final, lo)
        writes.append((m, r, groups))
    # a call buffer read where a gather writes is read from a copy
    # taken before any gather writes
    copied = {src for _, _, groups in writes for _, _, pieces in groups
              for src, lo, hi in pieces
              if sources[src] is not None and sources[src][2] is None
              and any(r_lo < hi and lo < r_hi for r_lo, r_hi, _, _
                      in runs.get(sources[src][:2], ()))}
    writes = tuple((m, r, tuple((lo, hi, _gather(pieces, nodes))
                                for lo, hi, pieces in groups))
                   for m, r, groups in writes)
    # the sources a gather slices per call (a node's views are ready)
    specs = [spec for step in steps for spec in step[3:]] \
        + [spec for _, _, groups in writes for _, _, spec in groups]
    used = {part[0] for spec in specs
            for part in (spec if type(spec) is list else [spec])
            if type(part) is tuple}
    inputs, scratch = [], []
    for i in sorted(used):
        at = sources[i] or finals[i] + (None,)
        if at[2] is None:
            inputs.append((i, at[0], at[1]))
        else:
            scratch.append((i, at[2]))
    return DataPlan(tuple(inputs), tuple(scratch), tuple(steps),
                    tuple(sorted(copied)), writes, len(sources))
