"""The central pass's data plan delivers what the rows deliver.

On one switched node a hot MPI-route key runs centrally: its payloads
come from the data plan its central program solves
(``repro.mpi.coll.dataplan``), not from the rows.  Here every flat
algorithm's hot key runs centrally and, on a traced engine, per rank
(tracing is observation only, and a traced communicator replays per
rank), on random float32 and float64 payloads, ``SUM``, ``MAX`` and a
user-defined op, ``IN_PLACE`` ``Allreduce``, and counts 0, 1 and
2n + 1, which no rank count divides: result bytes and clocks must be
``==``.  A storage-free source that reaches real memory raises what the
rows raise.  Below, drawn data tapes — storage-free buffers among them
— are held to the primitives a per-rank replay calls.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidBufferError, RankFailedError
from repro.hw.memory import NO_CONTENTS, copy_payload, snapshot, storage_free
from repro.hw.systems import make_system
from repro.mpi import MAX, SUM
from repro.mpi.coll import dataplan
from repro.mpi.communicator import IN_PLACE, Communicator
from repro.mpi.compute import copy_into, fold_into, permute_blocks
from repro.mpi.datatypes import DOUBLE, FLOAT
from repro.mpi.ops import Op
from repro.sim.clock import VirtualClock
from repro.sim.engine import Engine
from tests.test_conformance import REPLAY_ALGORITHMS, REPLAY_POF2, comm_with

#: a user-defined op whose reducer is not a ufunc and tells its
#: accumulator from its operand
LEAN = Op("user_lean", lambda a, b: 0.75 * a + 0.25 * b, commutative=False,
          predefined=False)
REDUCING = {"allreduce", "reduce", "reduce_scatter", "scan", "exscan"}
DTYPES = {"float32": (np.float32, FLOAT), "float64": (np.float64, DOUBLE)}


def _calls(ctx, dtype, dt, rng):
    """Every flat algorithm's keys, each called twice (recorded, then
    hot) with fresh random inputs: payload bytes and the clock after
    every call."""
    p, rank = ctx.engine.nranks, ctx.rank
    log = []
    for coll, name in REPLAY_ALGORITHMS:
        if (coll, name) in REPLAY_POF2 and p & (p - 1):
            continue
        comm = comm_with(ctx, name)
        for op in ((SUM, MAX, LEAN) if coll in REDUCING else (SUM,)):
            for count in (0, 1, 2 * p + 1):
                for in_place in ((False, True) if coll == "allreduce"
                                 else (False,)):
                    root = count % p
                    counts = [(i + count) % 3 for i in range(p)]
                    sendcounts = [(rank + j + count) % 3 for j in range(p)]
                    recvcounts = [(i + rank + count) % 3 for i in range(p)]
                    size = max(count * p, 2 * p)
                    send = ctx.device.zeros(size, dtype=dtype)
                    recv = ctx.device.zeros(size, dtype=dtype)
                    for _ in range(2):
                        send.array[:] = rng.standard_normal(size)
                        recv.array[:] = rng.standard_normal(size)
                        src = IN_PLACE if in_place else send
                        if coll == "barrier":
                            comm.Barrier()
                        elif coll == "allreduce":
                            comm.Allreduce(src, recv, op, count=count)
                        elif coll == "reduce":
                            comm.Reduce(send, recv, op, root=root,
                                        count=count)
                        elif coll == "bcast":
                            comm.Bcast(recv, root=root, count=count)
                        elif coll == "allgather":
                            comm.Allgather(send, recv, count=count)
                        elif coll == "alltoall":
                            comm.Alltoall(send, recv, count=count)
                        elif coll == "reduce_scatter":
                            comm.Reduce_scatter_block(send, recv, op,
                                                      count=count)
                        elif coll == "gather":
                            comm.Gather(send, recv, root=root, count=count,
                                        datatype=dt)
                        elif coll == "scatter":
                            comm.Scatter(send, recv, root=root, count=count,
                                         datatype=dt)
                        elif coll == "allgatherv":
                            comm.Allgatherv(send, recv, counts)
                        elif coll == "alltoallv":
                            comm.Alltoallv(send, sendcounts, recv,
                                           recvcounts)
                        elif coll == "gatherv":
                            comm.Gatherv(send, recv, counts, root=root,
                                         datatype=dt)
                        elif coll == "scatterv":
                            comm.Scatterv(send, counts, recv, root=root)
                        else:   # scan / exscan
                            getattr(comm, coll.capitalize())(
                                send, recv, op, count=count)
                        log.append((recv.array.tobytes(), ctx.now))
    return log


def _run(nranks, dtype, trace):
    """``_calls`` on 1 x ``nranks``: its log, and how many calls ran
    centrally."""
    np_dtype, dt = DTYPES[dtype]

    def body(ctx):
        rng = np.random.default_rng([nranks, ctx.rank, len(dtype)])
        return _calls(ctx, np_dtype, dt, rng)
    engine = Engine(make_system("thetagpu", 1), nranks=nranks, trace=trace,
                    online_tune=False)
    return engine.run(body), engine.central_replays


@pytest.mark.parametrize("nranks,dtype", [
    (2, "float64"), (3, "float32"), (5, "float64"), (8, "float32")])
def test_the_central_pass_delivers_the_per_rank_bytes_and_clocks(nranks,
                                                                  dtype):
    """Every hot call runs centrally on the untraced engine and per rank
    on the traced one: the same bytes and clocks, to the bit."""
    central, ran = _run(nranks, dtype, trace=False)
    per_rank, none = _run(nranks, dtype, trace=True)
    assert none == 0 and ran > 0
    assert central == per_rank


def _storage_free_source(ctx):
    """A hot ``Allgather`` on host arrays whose second call's source on
    rank 0 holds no storage, landing in everyone's real receive
    buffer."""
    comm = Communicator.world(ctx)
    recv = np.zeros(4 * comm.size, dtype=np.float32)
    for k in range(2):
        send = np.full(4, ctx.rank + 1.0, dtype=np.float32)
        if k and ctx.rank == 0:
            send = storage_free(4)
        comm.Allgather(send, recv)
    return recv


@pytest.mark.parametrize("trace", [False, True], ids=["central", "per-rank"])
def test_a_storage_free_source_in_real_memory_raises(trace, monkeypatch):
    """The data plan raises the rows' ``InvalidBufferError``: solved for
    the hot call's storage, it lands nothing and raises on every
    member."""
    solved = []
    solve = dataplan.solve
    monkeypatch.setattr(dataplan, "solve",
                        lambda *args: solved.append(solve(*args))
                        or solved[-1])
    engine = Engine(make_system("thetagpu", 1), nranks=4, trace=trace,
                    online_tune=False)
    with pytest.raises(RankFailedError) as failed:
        engine.run(_storage_free_source)
    assert engine.central_replays == 0
    assert [plan.error for plan in solved] == ([] if trace else [True])
    errors = failed.value.failures.values()
    assert errors and all(isinstance(e, InvalidBufferError)
                          and str(e) == NO_CONTENTS for e in errors)


# -- the planner against the rows' own primitives, on drawn tapes -----------

#: members, their buffers' length, and the tape's reducers
MEMBERS, LENGTH = 2, 12
OPS = (SUM, LEAN)


def _tape(draw):
    """A data tape over two members, each with a send and a receive
    buffer (roles 0, 1) and two staging buffers (roles 2, 3)."""
    role = st.integers(0, 3)
    steps, pending = [], []
    for _ in range(draw(st.integers(1, 14))):
        m = draw(st.integers(0, MEMBERS - 1))
        n = draw(st.integers(0, LENGTH))
        o1, o2 = (draw(st.integers(0, LENGTH - n)) for _ in range(2))
        what = draw(st.sampled_from(("send", "land", "copy", "blocks",
                                     "fold")))
        if what == "send":
            k = len(pending) + sum(s[0] == dataplan.LAND for s in steps)
            steps.append((dataplan.READ, k, m, draw(role), o1, n))
            pending.append((k, n))
        elif what == "land" and pending:
            k, n = pending.pop(draw(st.integers(0, len(pending) - 1)))
            steps.append((dataplan.LAND, k, m, draw(role),
                          draw(st.integers(0, LENGTH - n)), n))
        elif what == "copy":
            steps.append((dataplan.COPY, m, draw(role), o1, draw(role), o2,
                          n))
        elif what == "blocks":
            count = draw(st.sampled_from((2, 3, 4)))
            nblocks = LENGTH // count
            perm = draw(st.permutations(range(nblocks)))
            picked = np.array(perm[:draw(st.integers(0, nblocks))], int)
            drows, srows = draw(st.sampled_from((
                (None, picked), (picked, None),
                (picked, np.array(perm[nblocks - len(picked):], int)))))
            steps.append((dataplan.BLOCKS, m, draw(role), drows, draw(role),
                          srows, count))
        else:
            steps.append((dataplan.FOLD, m, draw(st.sampled_from(OPS)),
                          draw(role), o1, draw(role), o2, n))
    for k, n in pending:    # every message lands
        steps.append((dataplan.LAND, k, 0, 1, 0, n))
    return tuple(steps)


def _rows(tape, bufs):
    """The tape run step by step on the arrays ``bufs`` (per member, by
    role) with the primitives a per-rank replay calls."""
    ctx = SimpleNamespace(clock=VirtualClock())
    sent = {}
    for step in tape:
        kind = step[0]
        if kind == dataplan.READ:
            _, k, m, b, o, n = step
            sent[k] = snapshot(bufs[m][b][o:o + n])
        elif kind == dataplan.LAND:
            _, k, m, b, o, n = step
            copy_payload(bufs[m][b][o:o + n], sent.pop(k))
        elif kind == dataplan.COPY:
            _, m, d, do, s, so, n = step
            copy_into(ctx, bufs[m][d][do:do + n], bufs[m][s][so:so + n], None)
        elif kind == dataplan.BLOCKS:
            _, m, d, drows, s, srows, n = step
            permute_blocks(ctx, bufs[m][d], drows, bufs[m][s], srows, n, 0.0)
        else:
            _, m, op, a, ao, b, bo, n = step
            fold_into(ctx, op, bufs[m][a][ao:ao + n], bufs[m][b][bo:bo + n],
                      None)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(data=st.data())
def test_a_solved_tape_is_its_rows(data):
    """Any tape the planner takes — moves, packs, permutations in place
    or not, folds of staged or received windows, scratch read before it
    is written, buffers read where others are written — lands the bytes
    the rows' own primitives land, or raises what they raise, for every
    way its buffers may or may not hold storage."""
    tape = _tape(data.draw)
    holds = [[data.draw(st.booleans()) if data.draw(st.integers(0, 3)) == 0
              else True for _ in range(4)] for _ in range(MEMBERS)]
    rng = np.random.default_rng(len(tape))
    start = [[rng.standard_normal(LENGTH) if h else storage_free(
        LENGTH, np.float64) for h in row] for row in holds]
    rows = [[a.copy() if a.strides[0] else a for a in row] for row in start]
    try:
        _rows(tape, rows)
        raised = False
    except InvalidBufferError as exc:
        assert str(exc) == NO_CONTENTS
        raised = True
    kinds = {(m, r): (np.dtype(np.float64), None if r < 2 else 2 * m + r - 2)
             for m in range(MEMBERS) for r in range(4)}
    stored = [h for row in holds for h in row[:2]] \
        + [h for row in holds for h in row[2:]]
    plan = dataplan.solve(tape, kinds, [(0, 1)] * MEMBERS, stored)
    arrs = [[a.copy() if a.strides[0] else a for a in row[:2]]
            for row in start]
    staged = [a for row in start for a in row[2:]]
    if raised:
        with pytest.raises(InvalidBufferError, match=NO_CONTENTS):
            plan.apply(arrs, staged)
        return
    plan.apply(arrs, staged)
    for m in range(MEMBERS):
        for r in range(2):
            if holds[m][r]:
                assert arrs[m][r].tobytes() == rows[m][r].tobytes()


def test_a_storage_free_permutation_source_raises_even_unread():
    """``permute_blocks`` refuses a storage-free source for a real
    destination before it looks at the rows, and so does the plan."""
    tape = ((dataplan.BLOCKS, 0, 1, None, 0, np.array([], int), 2),)
    kinds = {(0, 0): (np.dtype(np.float64), None),
             (0, 1): (np.dtype(np.float64), None)}
    plan = dataplan.solve(tape, kinds, [(0, 1)], [False, True])
    with pytest.raises(InvalidBufferError, match=NO_CONTENTS):
        plan.apply([[storage_free(4, np.float64), np.zeros(4)]], [])
