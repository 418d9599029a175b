"""Zero-copy datapath: bit-identity, leaks, gate combos, fault safety.

Handing payloads off as borrowed views may only change how fast the
simulator runs — never what it computes.  These tests pin that contract
on every CCL stack: payload bytes AND virtual clocks are bit-identical
to what defensive snapshots gave (the frozen zero-copy-off arm,
``tests/frozen_reference.py``, cases of ``tests/test_conformance.py``),
borrowed views are never retained after
completion, randomized collective sequences reproduce their frozen
reference under the remaining gates, and fault injection leaves the
leased handoff engaged without ever corrupting a sender's live buffer.
"""

from __future__ import annotations

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from repro import fastpath
from repro.core import runtime
from repro.errors import CommRevokedError, RankFailedError
from repro.hw.systems import make_system
from repro.mpi import FLOAT, SUM, Communicator
from repro.mpi.communicator import IN_PLACE
from repro.mpi.config import mvapich_gpu
from repro.mpi.derived import contiguous
from repro.mpi.request import waitall, waitany
from repro.sim.engine import Engine
from repro.sim.faults import FaultPlan, with_faults
from tests.test_conformance import ALL_ON, REAL, RNDV, STACKS, conforms


@pytest.mark.parametrize("stack", list(STACKS))
def test_bit_identical_zero_copy_on_vs_off(stack):
    """The leased datapath reproduces the frozen snapshot arm, and
    engaged."""
    stats = conforms(f"zero_copy:{stack}").counters
    # the leased paths must actually have engaged
    assert stats["copies_elided"] > 0
    assert stats["accumulator_reuses"] > 0


@pytest.mark.parametrize("seed", [7, 23])
def test_randomized_sequences_identical_under_all_gate_combos(seed):
    """Randomized sequences are frozen, options all off and all on."""
    for arm in (REAL, ALL_ON):
        conforms(f"random:{seed}", arm)


def test_no_payload_refs_retained_after_completion():
    """After collectives, group flushes, and leased p2p complete, no
    CollectiveSlot, GroupExchangeSlot, or mailbox bucket may retain a
    reference to any payload array (borrowed views pin their base)."""
    refs = []

    def body(mpx):
        comm = mpx.COMM_WORLD
        ctx = comm.ctx
        p, r = comm.size, comm.rank
        send = ctx.device.zeros(256, dtype=np.float32)
        send.array[:] = r + 1
        out = ctx.device.zeros(256, dtype=np.float32)
        ag = ctx.device.zeros(256 * p, dtype=np.float32)
        comm.Allreduce(send, out, SUM)
        comm.Allgather(send, ag, count=256)
        a2a = ctx.device.zeros(64 * p, dtype=np.float32)
        a2a.array[:] = r
        a2a_r = ctx.device.zeros(64 * p, dtype=np.float32)
        comm.Alltoall(a2a, a2a_r, count=64)
        big_s = ctx.device.zeros(RNDV, dtype=np.float32)
        big_s.array[:] = r
        big_r = ctx.device.zeros(RNDV, dtype=np.float32)
        comm.Sendrecv(big_s, (r + 1) % p, big_r, (r - 1) % p)
        # lent nonblocking rendezvous sends, completed by waitall
        lent = [ctx.device.zeros(RNDV, dtype=np.float32) for _ in range(2)]
        inbox = [ctx.device.zeros(RNDV, dtype=np.float32) for _ in range(2)]
        reqs = [comm.Irecv(b, source=(r - 1) % p, tag=40 + k)
                for k, b in enumerate(inbox)]
        reqs += [comm.Isend(b, (r + 1) % p, tag=40 + k)
                 for k, b in enumerate(lent)]
        waitall(reqs)
        refs.extend(weakref.ref(a) for a in
                    (send.array, ag.array, a2a.array, big_s.array,
                     *(b.array for b in lent)))
        return True

    assert all(runtime.run(body, system="thetagpu", nodes=1,
                           ranks_per_node=4, mode="pure_xccl"))
    gc.collect()
    alive = [i for i, ref in enumerate(refs) if ref() is not None]
    assert not alive, f"payload arrays still referenced: {alive}"


def test_blocking_send_buffer_safe_to_reuse(thetagpu1):
    """A blocking rendezvous send with the lease active completes only
    after the receiver consumed the view: mutating the buffer right
    after Send returns must never corrupt the received data."""
    captured = {}

    def body(ctx):
        comm = Communicator.world(ctx)
        buf = ctx.device.zeros(RNDV)
        if ctx.rank == 0:
            buf.fill(7.0)
            comm.Send(buf, 1)
            buf.fill(-1.0)   # reuse immediately: lease must be settled
        else:
            comm.Recv(buf, source=0)
            captured["got"] = buf.array.copy()

    engine = Engine(thetagpu1, nranks=2)
    fastpath.STATS.reset()
    engine.run(body)
    stats = fastpath.STATS.snapshot()
    assert stats["copies_elided"] > 0
    assert (captured["got"] == 7.0).all()


def test_delayed_rendezvous_send_keeps_the_lease(thetagpu1):
    """A delay rule re-times the RTS, it does not hold the payload: the
    leased handoff stays engaged (elided, not forced), and the delayed
    delivery still sees the original bytes although the sender mutates
    its buffer right after Send returns."""
    captured = {}

    def body(ctx):
        comm = Communicator.world(ctx)
        buf = ctx.device.zeros(RNDV)
        if ctx.rank == 0:
            buf.fill(3.0)
            comm.Send(buf, 1)
            buf.fill(-5.0)
        else:
            comm.Recv(buf, source=0)
            captured["got"] = buf.array.copy()

    engine = Engine(thetagpu1, nranks=2)
    injector = with_faults(engine, FaultPlan().delay(0, 1, 250.0))
    fastpath.STATS.reset()
    engine.run(body)
    stats = fastpath.STATS.snapshot()
    # exactly one leased send -> exactly one elided copy: the reclaim
    # counts once per send, never once per handshake message
    assert stats["copies_forced"] == 0
    assert stats["copies_elided"] == 1
    assert len(injector.delayed) == 1
    assert (captured["got"] == 3.0).all()


def test_fault_path_leaves_no_stale_lease(thetagpu1):
    """A delayed send still lends its buffer: no PayloadLease may
    survive the run, and the sender's buffer must be released once the
    run completes."""
    from repro.sim.mailbox import PayloadLease
    refs = []

    def body(ctx):
        comm = Communicator.world(ctx)
        buf = ctx.device.zeros(RNDV)
        if ctx.rank == 0:
            buf.fill(9.0)
            comm.Send(buf, 1)
            refs.append(weakref.ref(buf.array))
        else:
            comm.Recv(buf, source=0)

    engine = Engine(thetagpu1, nranks=2)
    with_faults(engine, FaultPlan().delay(0, 1, 250.0))
    fastpath.STATS.reset()
    engine.run(body)
    stats = fastpath.STATS.snapshot()
    assert stats["copies_elided"] == 1 and stats["copies_forced"] == 0
    del engine      # its injector keeps the delayed message for inspection
    gc.collect()
    leases = [o for o in gc.get_objects() if isinstance(o, PayloadLease)]
    assert not leases, f"{len(leases)} PayloadLease objects survived"
    assert all(ref() is None for ref in refs), \
        "sender payload array still referenced after the delayed send"


def test_rank_failure_leaves_live_buffers_intact(thetagpu1):
    """A dropped message deadlocks the receiver; the failure must not
    corrupt any sender's live buffer (borrowed views are read-only, so
    nothing downstream can scribble into caller memory)."""
    survivors = {}

    def body(ctx):
        comm = Communicator.world(ctx)
        if ctx.rank in (0, 1):
            peer = 1 - ctx.rank
            buf = ctx.device.zeros(RNDV)
            buf.fill(float(ctx.rank) + 1.0)
            out = ctx.device.zeros(RNDV)
            comm.Sendrecv(buf, peer, out, peer)
            assert (buf.array == ctx.rank + 1.0).all()
            survivors[ctx.rank] = out.array[0]
        elif ctx.rank == 2:
            comm.Send(ctx.device.zeros(RNDV), 3)
        else:
            comm.Recv(ctx.device.zeros(RNDV), source=2)

    engine = Engine(thetagpu1, nranks=4)
    with_faults(engine, FaultPlan().drop(2, 3, nth=0))
    with pytest.raises(RankFailedError):
        engine.run(body)
    assert survivors == {0: 2.0, 1: 1.0}


def test_in_place_allgather_skips_own_segment_copy():
    """The in-place allgather's own segment is already in the receive
    buffer: zero-copy must leave it untouched and still produce the
    exact gathered message."""
    def body(mpx):
        comm = mpx.COMM_WORLD
        ctx = comm.ctx
        p, r = comm.size, comm.rank
        n = 64
        out = ctx.device.zeros(n * p, dtype=np.float32)
        out.array[r * n:(r + 1) * n] = r + 1
        comm.Allgather(IN_PLACE, out, count=n)
        return out.array.copy()

    got = runtime.run(body, system="thetagpu", nodes=1,
                      ranks_per_node=4, mode="pure_xccl")
    expect = np.repeat(np.arange(1, 5, dtype=np.float32), 64)
    for rank, arr in enumerate(got):
        assert (arr == expect).all(), f"rank {rank} gathered wrong bytes"



@pytest.mark.parametrize("aliasing_ranks", [(0, 1, 2, 3), (0,)],
                         ids=["all-ranks", "one-rank"])
def test_aliased_allgather_send_window_copies_on_write(aliasing_ranks):
    """A send window that is a view into the receive buffer (the
    nonstandard in-place spelling) is snapshotted — per rank, whatever
    the other ranks pass — and the gathered message is still exact."""
    def body(mpx):
        comm = mpx.COMM_WORLD
        ctx = comm.ctx
        p, r = comm.size, comm.rank
        n = 64
        out = ctx.device.zeros(n * p, dtype=np.float32)
        if r in aliasing_ranks:
            send = out.view(r * n, n)
        else:
            send = ctx.device.zeros(n, dtype=np.float32)
        send.array[:] = r + 1
        comm.Allgather(send, out, count=n)
        return out.array.copy()

    fastpath.STATS.reset()
    got = runtime.run(body, system="thetagpu", nodes=1,
                      ranks_per_node=4, mode="pure_xccl")
    stats = fastpath.STATS.snapshot()
    assert stats["copies_forced"] == len(aliasing_ranks)
    assert stats["copies_elided"] == 4 - len(aliasing_ranks)
    expect = np.repeat(np.arange(1, 5, dtype=np.float32), 64)
    for rank, arr in enumerate(got):
        assert (arr == expect).all(), f"rank {rank} gathered wrong bytes"


# -- the lent nonblocking rendezvous send ------------------------------------

#: messages in one window, as in OMB's bandwidth test and ``p2p_2``
WINDOW = 32
#: elements of one window message (64 KiB of float32: rendezvous)
WINDOW_F32 = 1 << 14

#: name -> (nodes, ranks per node, MPI personality or None)
ROUTES = {"intra-node": (1, 2, None), "inter-node": (2, 1, None),
          "staged": (1, 2, mvapich_gpu().with_(gpu_direct=False))}


def _window_body(mpx):
    """A ``WINDOW`` x ``WINDOW_F32`` ``Isend`` / ``Irecv`` window from
    rank 0 to rank 1: the received windows, and on rank 0 how far
    ``tracemalloc``'s peak rose above what was traced when it posted."""
    comm = mpx.COMM_WORLD
    bufs = [mpx.device_array(WINDOW_F32) for _ in range(WINDOW)]
    flag = mpx.device_array(1)      # eager hand-shakes: snapshots, uncounted
    if comm.rank == 0:
        for i, buf in enumerate(bufs):
            buf.array[:] = np.arange(WINDOW_F32, dtype=np.float32) + i
        comm.Recv(flag, source=1, tag=WINDOW)       # rank 1 allocated
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        waitall([comm.Isend(buf, 1, tag=i) for i, buf in enumerate(bufs)])
        growth = tracemalloc.get_traced_memory()[1] - base
        comm.Send(flag, 1, tag=WINDOW)
        return growth
    comm.Send(flag, 0, tag=WINDOW)
    waitall([comm.Irecv(buf, source=0, tag=i) for i, buf in enumerate(bufs)])
    comm.Recv(flag, source=0, tag=WINDOW)           # rank 0 measured
    return [buf.array.copy() for buf in bufs]


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_isend_window_is_lent_not_snapshotted(route):
    """Every rendezvous ``Isend`` of a window lends its buffer: the bytes
    arrive, each send counts one elided copy and none forced, and the
    sender's traced memory never holds a window of snapshots."""
    nodes, rpn, config = ROUTES[route]
    fastpath.STATS.reset()
    tracemalloc.start()
    try:
        growth, got = runtime.run(_window_body, system="thetagpu",
                                  nodes=nodes, ranks_per_node=rpn,
                                  mode="pure_mpi", mpi_config=config)
    finally:
        tracemalloc.stop()
    stats = fastpath.STATS.snapshot()
    for i, arr in enumerate(got):
        np.testing.assert_array_equal(
            arr, np.arange(WINDOW_F32, dtype=np.float32) + i)
    assert (stats["copies_elided"], stats["copies_forced"]) == (WINDOW, 0)
    assert growth < WINDOW * WINDOW_F32 * 4, \
        f"sender traced {growth} B more while its window was in flight"


def test_isend_reclaims_once_whichever_call_completes_it():
    """A lent ``Isend`` completed by ``test()``, by ``waitany`` and by
    ``waitall`` reclaims its lease once, and the buffer rewritten right
    after completion never reaches the receiver."""
    def body(ctx):
        comm = Communicator.world(ctx)
        bufs = [ctx.device.zeros(RNDV) for _ in range(5)]
        if ctx.rank == 1:
            for k, buf in enumerate(bufs):
                comm.Recv(buf, source=0, tag=k)
            return [float(b.array.min()) for b in bufs] \
                + [float(b.array.max()) for b in bufs]
        for k, buf in enumerate(bufs):
            buf.fill(k + 1.0)
        req = comm.Isend(bufs[0], 1, tag=0)
        while not req.test()[0]:
            pass
        bufs[0].fill(-1.0)
        pending = [(comm.Isend(bufs[k], 1, tag=k), bufs[k]) for k in (1, 2)]
        while pending:
            i, _status = waitany([req for req, _buf in pending])
            pending.pop(i)[1].fill(-1.0)
        waitall([comm.Isend(bufs[k], 1, tag=k) for k in (3, 4)])
        for buf in bufs[3:]:
            buf.fill(-1.0)
        return None

    engine = Engine(make_system("thetagpu", 1), nranks=2)
    fastpath.STATS.reset()
    got = engine.run(body)[1]
    stats = fastpath.STATS.snapshot()
    assert got == [1.0, 2.0, 3.0, 4.0, 5.0] * 2
    assert (stats["copies_elided"], stats["copies_forced"]) == (5, 0)


def test_persistent_send_lends_each_start():
    """``Send_init`` restarted three times, the buffer rewritten between
    completions: each ``Start`` lends, each completion reclaims once,
    and each round delivers that round's bytes."""
    def body(ctx):
        comm = Communicator.world(ctx)
        buf = ctx.device.zeros(RNDV)
        if ctx.rank == 0:
            req = comm.Send_init(buf, 1, tag=5)
            for it in range(3):
                buf.fill(10.0 + it)
                req.Start()
                req.wait()
                buf.fill(-1.0)
            return None
        req = comm.Recv_init(buf, source=0, tag=5)
        got = []
        for _ in range(3):
            req.Start()
            req.wait()
            got.append((float(buf.array.min()), float(buf.array.max())))
        return got

    engine = Engine(make_system("thetagpu", 1), nranks=2)
    fastpath.STATS.reset()
    got = engine.run(body)[1]
    stats = fastpath.STATS.snapshot()
    assert got == [(10.0, 10.0), (11.0, 11.0), (12.0, 12.0)]
    assert (stats["copies_elided"], stats["copies_forced"]) == (3, 0)


#: how the receive is typed: ``RNDV`` floats, or one derived instance of
#: them (landed in scratch, then unpacked into the window)
RECV_TYPES = {"predefined": {},
              "derived": {"count": 1, "datatype": contiguous(RNDV, FLOAT)}}


@pytest.mark.parametrize("typed", sorted(RECV_TYPES))
def test_pending_isend_is_copy_on_write_against_its_ranks_irecv(typed):
    """An ``Isend`` and an ``Irecv`` on overlapping windows of one
    allocation, pending together on both ranks: the receive landing on
    the lent memory snapshots the send first, so each rank receives the
    bytes its peer had when it posted (what a snapshot at posting gave)."""
    half = RNDV // 2

    def body(ctx):
        comm = Communicator.world(ctx)
        peer = 1 - ctx.rank
        buf = ctx.device.zeros(RNDV + half)
        buf.array[:] = np.arange(RNDV + half) + 1000.0 * ctx.rank
        reqs = [comm.Irecv(buf.view(half, RNDV), source=peer,
                           **RECV_TYPES[typed]),
                comm.Isend(buf.view(0, RNDV), peer)]
        waitall(reqs)
        return buf.array.copy()

    fastpath.STATS.reset()
    got = Engine(make_system("thetagpu", 1), nranks=2).run(body)
    stats = fastpath.STATS.snapshot()
    for r in (0, 1):
        mine = np.arange(RNDV + half) + 1000.0 * r
        theirs = np.arange(RNDV + half) + 1000.0 * (1 - r)
        expect = np.concatenate([mine[:half], theirs[:RNDV]])
        np.testing.assert_array_equal(got[r], expect)
    # one copy counted per lent send, whether its reclaim or the
    # copy-on-write took it
    assert stats["copies_elided"] + stats["copies_forced"] == 2
    assert stats["copies_forced"] >= 1


#: a rendezvous block for 4 ThetaGPU ranks (16 KiB of float32 a peer)
A2A_BLOCK = 1 << 12


def _aliased_alltoall(mpx):
    """``Alltoall(buf, buf)``: the scattered algorithm lands receives in
    the memory its lent sends expose."""
    comm = mpx.COMM_WORLD
    p, r = comm.size, comm.rank
    buf = mpx.device_array(A2A_BLOCK * p)
    buf.array[:] = np.arange(A2A_BLOCK * p, dtype=np.float32) + 1e5 * r
    comm.Alltoall(buf, buf, count=A2A_BLOCK)
    return buf.array.copy()


def _aliased_alltoall_expect(p, r):
    return np.concatenate([
        np.arange(r * A2A_BLOCK, (r + 1) * A2A_BLOCK, dtype=np.float32)
        + 1e5 * s for s in range(p)])


def _aliased_alltoallv(mpx):
    """``Alltoallv`` from and into one buffer: to peer ``d`` the first
    half of block ``d``, from peer ``s`` into the middle half of block
    ``s`` — every receive window overlaps a send window."""
    comm = mpx.COMM_WORLD
    p, r = comm.size, comm.rank
    n, q = 2 * A2A_BLOCK, A2A_BLOCK // 2
    buf = mpx.device_array(n * p)
    buf.array[:] = np.arange(n * p, dtype=np.float32) + 1e5 * r
    counts = [A2A_BLOCK] * p
    sdispls = [d * n for d in range(p)]
    rdispls = [s * n + (0 if s == r else q) for s in range(p)]
    comm.Alltoallv(buf, counts, buf, counts, sdispls, rdispls)
    return buf.array.copy()


def _aliased_alltoallv_expect(p, r):
    n, q = 2 * A2A_BLOCK, A2A_BLOCK // 2
    expect = np.arange(n * p, dtype=np.float32) + 1e5 * r
    for s in range(p):
        if s != r:
            expect[s * n + q:s * n + q + A2A_BLOCK] = \
                np.arange(r * n, r * n + A2A_BLOCK, dtype=np.float32) + 1e5 * s
    return expect


@pytest.mark.parametrize("body,expect", [
    (_aliased_alltoall, _aliased_alltoall_expect),
    (_aliased_alltoallv, _aliased_alltoallv_expect)],
    ids=["alltoall", "alltoallv"])
def test_aliased_scattered_exchange_keeps_its_sends(body, expect):
    """An aliased ``Alltoall`` / ``Alltoallv`` on ``pure_mpi`` at a
    rendezvous block: the lent ``_isend`` rounds stay copy-on-write
    against the receives that land in the same buffer, so every block
    arrives as it was when its send was posted."""
    fastpath.STATS.reset()
    got = runtime.run(body, system="thetagpu", nodes=1, ranks_per_node=4,
                      mode="pure_mpi")
    for r, arr in enumerate(got):
        np.testing.assert_array_equal(arr, expect(len(got), r))
    assert fastpath.STATS.snapshot()["copies_forced"] > 0


@pytest.mark.parametrize("fault", ["drop", "kill"])
def test_fault_path_leaves_no_stale_isend_lease(fault):
    """A lent ``Isend`` that never completes — its RTS dropped, or its
    receiver killed — leaves no ``PayloadLease``, registry entry or
    payload array behind once the engine is dropped, with the cycle
    collector off (the engine itself is cyclic)."""
    from repro.sim.mailbox import PayloadLease
    refs, registries = [], []

    def body(ctx):
        comm = Communicator.world(ctx)
        registries.append(ctx.lent)
        if ctx.rank == 1:
            if fault == "kill":
                ctx.clock.advance(1.0)      # dies here
            comm.Recv(ctx.device.zeros(RNDV), source=0)
            return None
        buf = ctx.device.zeros(RNDV)
        buf.fill(9.0)
        refs.append(weakref.ref(buf.array))
        req = comm.Isend(buf, 1)
        try:
            req.wait()
        except CommRevokedError:
            return "revoked"
        return "sent"

    plan = FaultPlan().drop(0, 1) if fault == "drop" else FaultPlan().kill(1)
    gc.collect()
    gc.disable()
    try:
        engine = Engine(make_system("thetagpu", 1), nranks=2)
        injector = with_faults(engine, plan)
        try:
            outcome = engine.run(body)[0]
        except RankFailedError:
            outcome = "failed"
        del engine, injector
        assert outcome == ("failed" if fault == "drop" else "revoked")
        assert registries and not any(registries)
        leases = [o for o in gc.get_objects() if isinstance(o, PayloadLease)]
        assert not leases, f"{len(leases)} PayloadLease objects survived"
        assert refs and all(ref() is None for ref in refs), \
            "sender payload array still referenced after the run"
    finally:
        gc.enable()
