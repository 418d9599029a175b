"""The fused group is staged as columns: same verdicts, linear work.

``CCLBackend._execute_group`` turns a queued group into columns in one
pass.  These tests pin what that rewrite must not change — the
copy-on-write aliasing verdict (``np.may_share_memory``'s, window by
window), the copy counters, payloads and exact virtual clocks on
multi-node topologies (``tests/frozen_reference.py``) — and what it
must: work linear in the number of queued ops, and a flush that ends
on the rank's clock.
Every pinned number was recorded at the parent commit (``e33ff3d``),
before the staging loop was touched.
"""

from __future__ import annotations

import random
import sys

import numpy as np
import pytest

from repro import fastpath
from repro.core import runtime
from repro.hw.memory import Buffer, aliasing_probe, as_array
from repro.hw.systems import make_system
from repro.mpi.communicator import IN_PLACE
from tests.test_conformance import conforms

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - hypothesis is a CI dependency
    given = None

# -- the aliasing verdict is numpy's ------------------------------------------

ELEMS = 48  # elements per allocation the windows are cut from


def _windows(picks):
    """Cut one window per ``(allocation, start, length, step)`` pick from
    four allocations: two host arrays (one reached through a 2-D
    parent), a device buffer (cut with ``DeviceBuffer.view``) and a byte
    string numpy does not own.  ``step`` 1 gives the contiguous windows
    the collectives use; other steps give strided and reversed host
    views.  Windows of one allocation nest, touch, overlap or are empty
    as the picks fall."""
    device = make_system("thetagpu", 1).devices[0]
    allocations = [np.zeros(ELEMS, dtype=np.float32),
                   np.zeros((4, ELEMS // 4), dtype=np.float32),
                   device.zeros(ELEMS, dtype=np.float32),
                   np.frombuffer(bytes(4 * ELEMS), dtype=np.float32)]
    out = []
    for which, start, length, step in picks:
        home = allocations[which % len(allocations)]
        length = min(length, ELEMS - start)
        if step == 1 and isinstance(home, Buffer):
            out.append(as_array(home.view(start, length))[:length])
        else:
            out.append(as_array(home)[start:start + length][::step])
    return out


def _assert_verdicts_match(send_picks, recv_picks):
    """Every send window gets numpy's verdict against the receive
    windows (all cut from the same four allocations)."""
    views = _windows(send_picks + recv_picks)
    sends, recvs = views[:len(send_picks)], views[len(send_picks):]
    probe = aliasing_probe(recvs)
    for view in sends:
        assert probe(view) == any(np.may_share_memory(view, w)
                                  for w in recvs), (view, recvs)


if given is not None:
    _pick = st.tuples(st.integers(0, 3), st.integers(0, ELEMS - 1),
                      st.integers(0, ELEMS), st.sampled_from([1, 1, 1, 2, -1]))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_pick, min_size=1, max_size=6),
           st.lists(_pick, min_size=0, max_size=6))
    def test_aliasing_verdict_equals_numpy_scan(send_picks, recv_picks):
        _assert_verdicts_match(send_picks, recv_picks)
else:  # pragma: no cover - seeded fallback where hypothesis is absent
    def test_aliasing_verdict_equals_numpy_scan():
        rng = random.Random(19)
        for _ in range(300):
            picks = [[(rng.randrange(4), rng.randrange(ELEMS),
                       rng.randrange(ELEMS + 1), rng.choice([1, 1, 1, 2, -1]))
                      for _ in range(rng.randrange(lo, 7))] for lo in (1, 0)]
            _assert_verdicts_match(*picks)


def test_aliasing_verdict_shared_allocation_cases():
    """The named shapes, spelled out: nested, adjacent, partially
    overlapping, zero-length, identical, another allocation, strided."""
    recv = [(0, 8, 8, 1), (0, 24, 8, 1)]
    _assert_verdicts_match(
        [(0, 10, 2, 1), (0, 16, 8, 1), (0, 12, 8, 1), (0, 10, 0, 1),
         (0, 8, 8, 1), (1, 8, 8, 1), (0, 0, ELEMS, 2), (0, 31, 1, 1)], recv)
    views = _windows([(0, 10, 2, 1), (0, 16, 8, 1)] + recv)
    probe = aliasing_probe(views[2:])
    assert [probe(v) for v in views[:2]] == [True, False]


def test_zero_length_extents_overlap_nothing():
    """An empty window whose pointer lies strictly inside another one
    (slicing never makes one: numpy parks an empty slice at its
    parent's start) still aliases nothing, on either side — numpy's
    rule, kept."""
    home = np.zeros(ELEMS, dtype=np.float32)
    empty = np.ndarray((0,), dtype=np.float32, buffer=home, offset=40)
    around = home[8:16]
    assert not np.may_share_memory(empty, around)
    assert aliasing_probe([around])(empty) is False
    assert aliasing_probe([empty])(around) is False
    assert aliasing_probe([empty, home[12:14]])(around) is True


# -- multi-node legs of the frozen reference ----------------------------------

def _filled(ctx, count, seed):
    buf = ctx.device.zeros(count, dtype=np.float32)
    buf.array[:] = np.arange(count, dtype=np.float32) * 0.25 + 1000.0 * seed
    return buf


@pytest.mark.parametrize("nodes", [2, 8])
def test_multinode_matches_frozen_reference(nodes):
    """The Listing-1 collectives across nodes are frozen."""
    conforms(f"multinode:{nodes}x8")


# -- copy counters through the engine ----------------------------------------

P, N = 8, 256   # ranks of the counter bodies, elements per block


def _in_place_allgatherv(mpx):
    """Every one of a rank's P sends is its own segment of ``recvbuf``,
    which aliases its receive window: all P are forced copies."""
    comm = mpx.COMM_WORLD
    p, r = comm.size, comm.rank
    counts = [i % 3 + 1 for i in range(p)]
    displs = [sum(counts[:i]) for i in range(p)]
    buf = comm.ctx.device.zeros(sum(counts), dtype=np.float32)
    buf.array[displs[r]:displs[r] + counts[r]] = r + 1
    comm.Allgatherv(IN_PLACE, buf, counts, displs)
    return buf.array.copy(), np.repeat(np.arange(1.0, p + 1), counts)


def _partly_aliased_alltoallv(mpx):
    """Send and receive buffers cut from one allocation, the receive
    side starting half a block before the third-last send block: exactly
    the three send blocks under a receive window are snapshotted."""
    comm = mpx.COMM_WORLD
    p, r = comm.size, comm.rank
    big = comm.ctx.device.zeros(2 * p * N, dtype=np.float32)
    send = big.view(0, p * N)
    send.array[:] = np.arange(p * N, dtype=np.float32) + 10000.0 * r
    recv = big.view((p - 2) * N - N // 2, p * N)
    expect = np.concatenate([
        np.arange(r * N, (r + 1) * N, dtype=np.float32) + 10000.0 * i
        for i in range(p)])
    comm.Alltoallv(send, [N] * p, recv, [N] * p)
    return recv.array.copy(), expect


def _separate_alltoall(mpx):
    """Separate allocations: every send travels as a borrowed view."""
    comm = mpx.COMM_WORLD
    p, r = comm.size, comm.rank
    send = _filled(comm.ctx, p * N, r)
    recv = comm.ctx.device.zeros(p * N, dtype=np.float32)
    comm.Alltoall(send, recv, count=N)
    expect = np.concatenate([
        np.arange(r * N, (r + 1) * N, dtype=np.float32) * 0.25 + 1000.0 * i
        for i in range(p)])
    return recv.array.copy(), expect


#: body -> (copies_forced, copies_elided) over the whole run, recorded
#: at the parent commit
COPY_PINS = [(_in_place_allgatherv, 64, 0),
             (_partly_aliased_alltoallv, 24, 40),
             (_separate_alltoall, 0, 64)]


@pytest.mark.parametrize("body,forced,elided", COPY_PINS,
                         ids=[b.__name__.strip("_") for b, _f, _e in COPY_PINS])
def test_copy_counters_equal_the_parents(body, forced, elided):
    out = runtime.run(body, system="thetagpu", nodes=1, ranks_per_node=P,
                      mode="pure_xccl")
    stats = fastpath.STATS.snapshot()
    for got, expect in out:
        np.testing.assert_array_equal(got, expect)
    assert (stats["copies_forced"], stats["copies_elided"]) == (forced, elided)
    assert (stats["fusion_flushes"], stats["fusion_msgs"],
            stats["fusion_exchanges"], stats["fusion_fallbacks"]) \
        == (P, P * P, P, 0)


def test_separate_buffers_never_reach_the_numpy_scan(monkeypatch):
    """One ``Alltoall`` on 16 ranks with separate buffers: the parent
    asked ``np.may_share_memory`` 256 times per rank (every send
    against every receive window); staging by columns never asks."""
    calls = []
    real = np.may_share_memory
    monkeypatch.setattr(np, "may_share_memory",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    out = runtime.run(_separate_alltoall, system="thetagpu", nodes=2,
                      ranks_per_node=8, mode="pure_xccl")
    for got, expect in out:
        np.testing.assert_array_equal(got, expect)
    assert len(calls) == 0


# -- a flush ends on the rank clock -------------------------------------------

def _flush_body(mpx):
    """The rank's clock after each group flush: two hinted exchanges,
    two rooted bulk groups, and one hand-written group of three sends
    and three receives."""
    from repro.mpi.datatypes import FLOAT
    from repro.xccl.api import (xcclGroupEnd, xcclGroupStart, xcclRecv,
                                xcclSend, xcclStreamSynchronize)
    comm = mpx.COMM_WORLD
    ctx = comm.ctx
    p, r = comm.size, comm.rank
    xc = comm.coll.layer.ccl_comm(comm)
    a, b = _filled(ctx, 64 * p, r), ctx.device.zeros(64 * p, dtype=np.float32)

    def ring():
        xcclGroupStart()
        for i in range(3):
            xcclSend(a.view(8 * i, 8), 8, FLOAT, (r + 1) % p, xc)
            xcclRecv(b.view(8 * i, 8), 8, FLOAT, (r - 1) % p, xc)
        xcclGroupEnd()

    log = []
    for call in (lambda: comm.Alltoall(a, b, count=64),
                 lambda: comm.Allgatherv(a.view(0, 16), b, [16] * p),
                 lambda: comm.Gather(a.view(0, 32), b, root=1, count=32),
                 lambda: comm.Scatter(a, b.view(0, 64), root=2, count=64),
                 ring):
        call()
        log.append((ctx.now, xcclStreamSynchronize(xc), ctx.now))
    return log


#: per rank, the rank's clock after each of _flush_body's five flushes —
#: recorded as the ready time of the device stream the CCL calls used to
#: join, which never held work past the caller's clock
READY_TIMES = [
    [23.302954280879327, 46.60369285109916, 66.60369285109917,
     89.90568619647952, 113.20640170099715],
    [23.302954280879327, 46.60369285109916, 69.90468952378936,
     89.90568619647952, 113.20640170099715],
    [23.302954280879327, 46.60369285109916, 66.60369285109917,
     87.10369285109917, 113.20640170099715],
    [23.302954280879327, 46.60369285109916, 66.60369285109917,
     89.90568619647952, 110.4044083556168],
]


def test_each_flush_ends_on_the_rank_clock():
    """A flush has completed on the rank's clock when it returns: the
    join after it moves nothing and returns that clock."""
    out = runtime.run(_flush_body, system="thetagpu", nodes=1,
                      ranks_per_node=4, mode="pure_xccl")
    for log, ready in zip(out, READY_TIMES):
        assert [(t, t, t) for t in ready] == log


# -- the per-message chain of a group, counted --------------------------------

def _count_group_calls(mpx, iters):
    """Python-level ``call`` events (C calls excluded) of this rank over
    ``iters`` warm ``Alltoall`` calls of 256 elements per peer."""
    comm = mpx.COMM_WORLD
    p = comm.size
    send = mpx.device_array(256 * p, fill=comm.rank + 1)
    recv = mpx.device_array(256 * p)
    for _ in range(2):                  # plans compiled, routes priced
        comm.Alltoall(send, recv, count=256)
    calls = [0]

    def profiler(frame, event, arg):
        if event == "call":
            calls[0] += 1

    sys.setprofile(profiler)
    try:
        for _ in range(iters):
            comm.Alltoall(send, recv, count=256)
    finally:
        sys.setprofile(None)
    return calls[0]


#: the bound on Python-level calls per group message (one send, with
#: its receive) of a warm ``Alltoall`` on 2 x 8 ranks
GROUP_CALLS_PER_MESSAGE = 15


def test_python_calls_per_group_message():
    """No wall clock: Python-level calls per message of the §3.3
    ``Alltoall``, everything from ``comm.Alltoall`` to the last landed
    row included (untraced).  While every queued op was an object and
    every segment a ``DeviceBuffer``, the chain made 49.4 (37 911 calls
    over 768 messages); queueing rows and staging them as columns
    without a call per message took it to 8.9.  A new helper call on
    the per-row path (queueing, staging, booking, landing) fails it."""
    nodes, rpn, iters = 2, 8, 3
    out = runtime.run(_count_group_calls, system="thetagpu", nodes=nodes,
                      ranks_per_node=rpn, mode="pure_xccl", trace=False,
                      iters=iters)
    p = nodes * rpn
    messages = iters * p * p
    # every message of the five calls rode a group flush
    assert fastpath.STATS.snapshot()["fusion_msgs"] == (2 + iters) * p * p
    assert sum(out) / messages <= GROUP_CALLS_PER_MESSAGE, sum(out)
