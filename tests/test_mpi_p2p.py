"""Point-to-point protocols through the communicator."""

import functools
import sys
import threading

import numpy as np
import pytest

from repro.core import runtime
from repro.errors import (MPICommError, MPICountError, MPIRankError,
                          MPITruncateError, RankFailedError)
from repro.mpi import FLOAT, SUM, Communicator
from repro.mpi.communicator import ANY_SOURCE, ANY_TAG
from repro.mpi.config import mvapich_gpu
from repro.mpi.request import waitall
from repro.sim.mailbox import Mailbox
from tests.test_conformance import REAL, TRACED, conforms
from tests.test_elastic import P2P_SPELLINGS


def world(ctx, config=None):
    return Communicator.world(ctx, config)


class TestBlocking:
    def test_send_recv_data(self, thetagpu1, spmd):
        def body(ctx):
            comm = world(ctx)
            buf = ctx.device.zeros(16)
            if ctx.rank == 0:
                buf.fill(3.5)
                comm.Send(buf, 1, tag=7)
                return None
            status = comm.Recv(buf, source=0, tag=7)
            assert np.all(buf.array == 3.5)
            return (status.source, status.tag, status.count)

        out = spmd(thetagpu1, body, nranks=2)
        assert out[1] == (0, 7, 16)

    def test_eager_send_completes_immediately(self, thetagpu1, spmd):
        def body(ctx):
            comm = world(ctx)
            if ctx.rank == 0:
                comm.Send(ctx.device.zeros(16), 1)
                t_send = ctx.now
                # blocking recv so the run terminates cleanly
                comm.Recv(ctx.device.zeros(1), source=1)
                return t_send
            comm.Recv(ctx.device.zeros(16), source=0)
            comm.Send(ctx.device.zeros(1), 0)
            return None

        t_send = spmd(thetagpu1, body, nranks=2)[0]
        assert t_send < 5.0  # local completion, no round trip

    def test_rendezvous_send_waits_for_receiver(self, thetagpu1, spmd):
        big = 1 << 20  # > eager threshold

        def body(ctx):
            comm = world(ctx)
            if ctx.rank == 0:
                comm.Send(ctx.device.zeros(big), 1)
                return ctx.now
            ctx.clock.advance(500.0)  # receiver arrives late
            comm.Recv(ctx.device.zeros(big), source=0)
            return ctx.now

        t_send, t_recv = spmd(thetagpu1, body, nranks=2)
        assert t_send >= 500.0  # sender blocked on the match

    def test_message_ordering_non_overtaking(self, thetagpu1, spmd):
        def body(ctx):
            comm = world(ctx)
            if ctx.rank == 0:
                for i in range(4):
                    buf = ctx.device.zeros(4)
                    buf.fill(float(i))
                    comm.Send(buf, 1, tag=5)
                return None
            got = []
            buf = ctx.device.zeros(4)
            for _ in range(4):
                comm.Recv(buf, source=0, tag=5)
                got.append(buf.array[0])
            return got

        assert spmd(thetagpu1, body, nranks=2)[1] == [0, 1, 2, 3]

    def test_wildcard_source_and_tag(self, thetagpu1, spmd):
        def body(ctx):
            comm = world(ctx)
            if ctx.rank == 2:
                buf = ctx.device.zeros(4)
                s1 = comm.Recv(buf, source=ANY_SOURCE, tag=ANY_TAG)
                s2 = comm.Recv(buf, source=ANY_SOURCE, tag=ANY_TAG)
                return sorted([s1.source, s2.source])
            comm.Send(ctx.device.zeros(4), 2, tag=ctx.rank)
            return None

        assert spmd(thetagpu1, body, nranks=3)[2] == [0, 1]

    def test_truncation_error(self, thetagpu1, spmd):
        def body(ctx):
            comm = world(ctx)
            if ctx.rank == 0:
                comm.Send(ctx.device.zeros(64), 1)
            else:
                comm.Recv(ctx.device.zeros(8), source=0)

        with pytest.raises(RankFailedError) as exc_info:
            spmd(thetagpu1, body, nranks=2)
        assert isinstance(exc_info.value.failures[1], MPITruncateError)

    def test_dtype_conversion_on_recv(self, thetagpu1, spmd):
        def body(ctx):
            comm = world(ctx)
            if ctx.rank == 0:
                src = ctx.device.empty(4, dtype=np.float32)
                src.array[:] = [1, 2, 3, 4]
                comm.Send(src, 1)
            else:
                dst = ctx.device.zeros(4, dtype=np.float64)
                comm.Recv(dst, source=0, count=4, datatype=FLOAT)
                return list(dst.array)

        assert spmd(thetagpu1, body, nranks=2)[1] == [1, 2, 3, 4]


class TestNonblocking:
    def test_isend_irecv_waitall(self, thetagpu1, spmd):
        def body(ctx):
            comm = world(ctx)
            peer = 1 - ctx.rank
            send = ctx.device.zeros(32)
            send.fill(float(ctx.rank))
            recv = ctx.device.zeros(32)
            reqs = [comm.Isend(send, peer), comm.Irecv(recv, source=peer)]
            waitall(reqs)
            return recv.array[0]

        assert spmd(thetagpu1, body, nranks=2) == [1.0, 0.0]

    def test_symmetric_large_exchange_no_deadlock(self, thetagpu1, spmd):
        big = 1 << 20

        def body(ctx):
            comm = world(ctx)
            peer = 1 - ctx.rank
            send = ctx.device.zeros(big)
            recv = ctx.device.zeros(big)
            rs = comm.Isend(send, peer)
            rr = comm.Irecv(recv, source=peer)
            rr.wait()
            rs.wait()
            return True

        assert spmd(thetagpu1, body, nranks=2) == [True, True]

    # the poller is the lower rank in one leg: it gets the run token
    # first, and a poll that never yields would starve the sender
    @pytest.mark.parametrize("sender", [0, 1])
    def test_test_polls(self, thetagpu1, spmd, sender):
        def body(ctx):
            comm = world(ctx)
            if ctx.rank == sender:
                comm.Send(ctx.device.zeros(4), 1 - sender)
                return None
            req = comm.Irecv(ctx.device.zeros(4), source=sender)
            done = False
            for _ in range(100):
                done, _status = req.test()
                if done:
                    break
            return done

        assert spmd(thetagpu1, body, nranks=2)[1 - sender] is True

    @pytest.mark.parametrize("sender", [0, 1])
    def test_iprobe(self, thetagpu1, spmd, sender):
        def body(ctx):
            comm = world(ctx)
            if ctx.rank == sender:
                comm.Send(ctx.device.zeros(4), 1 - sender, tag=3)
                return None
            status = None
            for _ in range(100):
                status = comm.Iprobe(source=sender, tag=3)
                if status is not None:
                    break
            comm.Recv(ctx.device.zeros(4), source=sender, tag=3)
            return status.tag

        assert spmd(thetagpu1, body, nranks=2)[1 - sender] == 3

    def test_iprobe_sees_past_another_communicators_message(self, thetagpu1,
                                                            spmd):
        """A queued message with the same source and tag on another
        communicator comes first in the queue; ``Iprobe`` still finds
        this communicator's."""
        def body(ctx):
            comm = world(ctx)
            dup = comm.Dup()
            if ctx.rank == 0:
                dup.Send(ctx.device.zeros(4), 1, tag=5)
                comm.Send(ctx.device.zeros(8), 1, tag=5)
            comm.Barrier()
            if ctx.rank == 0:
                return None
            found = comm.Iprobe(source=0, tag=5)
            comm.Recv(ctx.device.zeros(8), source=0, tag=5)
            dup.Recv(ctx.device.zeros(4), source=0, tag=5)
            return found.count

        assert spmd(thetagpu1, body, nranks=2)[1] == 8

    def test_persistent_test_polls_as_lower_rank(self, thetagpu1, spmd):
        def body(ctx):
            comm = world(ctx)
            if ctx.rank == 1:
                comm.Send(ctx.device.zeros(4), 0)
                return None
            req = comm.Recv_init(ctx.device.zeros(4), source=1).Start()
            for _ in range(100):
                if req.test()[0]:
                    return True
            return False

        assert spmd(thetagpu1, body, nranks=2)[0] is True


@pytest.mark.xfail(raises=RankFailedError, strict=True,
                   reason="waitall completes in list order: a rendezvous "
                          "send listed ahead of the receive that feeds its "
                          "CTS deadlocks (ROADMAP item 11(a): completion "
                          "is order-free)")
def test_waitall_send_ahead_of_its_feeding_receive(thetagpu1, spmd):
    """Two ranks each ``waitall([Isend(rendezvous), Irecv])``: a correct
    program.  ``waitall`` blocks on the send's CTS, which the peer sends
    only once its own receive completes, behind its own blocked send."""
    def body(ctx):
        comm = world(ctx)
        peer = 1 - ctx.rank
        send = ctx.device.zeros(1 << 14)
        send.fill(ctx.rank + 1.0)
        recv = ctx.device.zeros(1 << 14)
        waitall([comm.Isend(send, peer), comm.Irecv(recv, source=peer)])
        return float(recv.array[0])

    assert spmd(thetagpu1, body, nranks=2) == [2.0, 1.0]


#: every receive spelling, as ``(comm, buf, source) -> Status``; the
#: sender is communicator rank ``source`` (``Sendrecv`` is symmetric)
_RECEIVES = {
    "Recv": lambda c, b, src: c.Recv(b, src),
    "Irecv": lambda c, b, src: c.Irecv(b, src).wait(),
    "Recv_init": lambda c, b, src: c.Recv_init(b, src).Start().wait(),
    "Iprobe": lambda c, b, src: _probe_then_recv(c, b, src),
    "Sendrecv": lambda c, b, src: c.Sendrecv(b, src, b, src),
}


def _probe_then_recv(comm, buf, source):
    status = None
    while status is None:
        status = comm.Iprobe(source)
    comm.Recv(buf, source)
    return status


@pytest.mark.parametrize("spelling", sorted(_RECEIVES))
def test_status_source_is_the_communicator_rank(thetagpu1, spmd, spelling):
    """On a reversed split, communicator rank 0 is world rank 3: every
    receive spelling reports the sender as 0."""
    def body(ctx):
        comm = world(ctx).Split(0, key=-ctx.rank)
        buf = ctx.device.zeros(4)
        if comm.rank == 1:
            return _RECEIVES[spelling](comm, buf, 0).source
        if comm.rank == 0:
            if spelling == "Sendrecv":
                comm.Sendrecv(buf, 1, buf, 1)
            else:
                comm.Send(buf, 1)
        return None

    assert spmd(thetagpu1, body, nranks=4) == [None, None, 0, None]


#: every p2p spelling, as ``f(comm, buf, peer, count)``
_SENDS = {
    "Send": lambda c, b, p, n: c.Send(b, p, count=n),
    "Isend": lambda c, b, p, n: c.Isend(b, p, count=n),
    "Send_init": lambda c, b, p, n: c.Send_init(b, p, count=n),
}
_RECVS = {
    "Recv": lambda c, b, p, n: c.Recv(b, p, count=n),
    "Irecv": lambda c, b, p, n: c.Irecv(b, p, count=n),
    "Recv_init": lambda c, b, p, n: c.Recv_init(b, p, count=n),
}
_SENDRECV = {"Sendrecv": lambda c, b, p, n: c.Sendrecv(b, p, b, p)}
_ALL = dict(_SENDS, **_RECVS, **_SENDRECV)
#: ``(row, peer, count, error, spellings)`` on 4-element buffers of a
#: 4-rank communicator; ``freed`` runs on a freed ``Dup``
_BAD_P2P = [
    ("peer-size", 4, None, MPIRankError, _ALL),
    ("peer-minus-3", -3, None, MPIRankError, _ALL),
    ("any-source-dest", ANY_SOURCE, None, MPIRankError,
     dict(_SENDS, **_SENDRECV)),
    ("negative-count", 1, -1, MPICountError, dict(_SENDS, **_RECVS)),
    ("count-beyond-buffer", 1, 1000, MPICountError, dict(_SENDS, **_RECVS)),
    ("freed", 1, None, MPICommError, _ALL),
]


class TestP2PArguments:
    """A bad p2p argument is refused where the call is resolved:
    the same error on every rank, no virtual time spent, and the
    communicator still usable."""

    @staticmethod
    def _refused(cluster, spmd, error, call, setup=None):
        def body(ctx):
            comm = world(ctx)
            target = comm if setup is None else setup(comm)
            buf = ctx.device.zeros(4)
            before = comm.now
            with pytest.raises(error) as exc_info:
                call(target, buf)
            assert exc_info.type is error
            assert comm.now == before
            buf.fill(1.0)
            out = ctx.device.zeros(4)
            comm.Allreduce(buf, out, SUM)
            return float(out.array[0])

        assert spmd(cluster, body, nranks=4) == [4.0] * 4

    @pytest.mark.parametrize("spelling,row,peer,count,error", [
        pytest.param(name, row, peer, count, error, id=f"{name}-{row}")
        for row, peer, count, error, spellings in _BAD_P2P
        for name in spellings])
    def test_bad_argument_rejected_before_anything_is_sent(
            self, thetagpu1, spmd, spelling, row, peer, count, error):
        def freed(comm):
            dup = comm.Dup()
            dup.Free()
            return dup

        self._refused(thetagpu1, spmd, error,
                      lambda c, b: _ALL[spelling](c, b, peer, count),
                      freed if row == "freed" else None)

    @pytest.mark.parametrize("spelling", sorted(dict(_SENDS, **_RECVS)))
    def test_no_buffer_fits_count_zero_only(self, thetagpu1, spmd, spelling):
        """``None`` is an empty buffer: a non-zero count does not fit
        it, refused like any count beyond a buffer."""
        self._refused(thetagpu1, spmd, MPICountError,
                      lambda c, b: _ALL[spelling](c, None, 1, 1))


#: every p2p spelling of the elastic contract, plus ``Sendrecv``, as
#: ``(comm, buf, peer) -> None``
_EMPTY_SPELLINGS = dict(
    P2P_SPELLINGS, Sendrecv=lambda c, b, p: c.Sendrecv(b, p, b, p))


@pytest.mark.parametrize("spelling", sorted(_EMPTY_SPELLINGS))
def test_no_buffer_moves_an_empty_message(thetagpu1, spmd, spelling):
    """``None`` for the buffer (count omitted or 0) moves an empty
    message on every spelling, against the mirror spelling: it once
    crashed the send and left the receive to deadlock."""
    def body(ctx):
        comm = world(ctx)
        peer = 1 - comm.rank
        if comm.rank == 0 or spelling == "Sendrecv":
            _EMPTY_SPELLINGS[spelling](comm, None, peer)
        else:
            P2P_SPELLINGS["Recv" if "Send" in spelling else "Send"](
                comm, None, peer)
        status = comm.Sendrecv(None, peer, None, peer)
        assert (status.source, status.count, status.nbytes) == (peer, 0, 0)
        return comm.now > 0

    assert spmd(thetagpu1, body, nranks=2) == [True, True]


class TestSendrecvAndTiming:
    def test_sendrecv_exchanges(self, thetagpu1, spmd):
        def body(ctx):
            comm = world(ctx)
            peer = 1 - ctx.rank
            send = ctx.device.zeros(8)
            send.fill(float(ctx.rank + 10))
            recv = ctx.device.zeros(8)
            comm.Sendrecv(send, peer, recv, peer)
            return recv.array[0]

        assert spmd(thetagpu1, body, nranks=2) == [11.0, 10.0]

    def test_inter_node_slower_than_intra(self, thetagpu2, spmd):
        def body(ctx):
            comm = world(ctx)
            if ctx.rank == 0:
                comm.Send(ctx.device.zeros(1024), 1)
                comm.Recv(ctx.device.zeros(4), source=1)
                return ctx.now
            comm.Recv(ctx.device.zeros(1024), source=0)
            comm.Send(ctx.device.zeros(4), 0)
            return None

        t_intra = spmd(thetagpu2, body, nranks=2)[0]
        t_inter = spmd(thetagpu2, body, nranks=2, ranks_per_node=1)[0]
        assert t_inter > t_intra

    def test_staged_runtime_slower(self, thetagpu1, spmd):
        big = 1 << 20

        def body(ctx, config):
            comm = world(ctx, config)
            if ctx.rank == 0:
                comm.Send(ctx.device.zeros(big), 1)
                comm.Recv(ctx.device.zeros(4), source=1)
                return ctx.now
            comm.Recv(ctx.device.zeros(big), source=0)
            comm.Send(ctx.device.zeros(4), 0)
            return None

        from repro.sim.engine import Engine
        t_direct = Engine(thetagpu1, nranks=2).run(body, mvapich_gpu())[0]
        t_staged = Engine(thetagpu1, nranks=2).run(
            body, mvapich_gpu().with_(gpu_direct=False))[0]
        assert t_staged > t_direct

    def test_host_buffers_work_too(self, thetagpu1, spmd):
        def body(ctx):
            comm = world(ctx)
            buf = np.zeros(16, dtype=np.float32)
            if ctx.rank == 0:
                buf[:] = 9
                comm.Send(buf, 1)
                return None
            comm.Recv(buf, source=0)
            return buf[0]

        assert spmd(thetagpu1, body, nranks=2)[1] == 9.0


# -- multi-node legs of the frozen reference ----------------------------------

#: the conformance suite's ``p2p:<nodes>x<ranks per node>`` programs
P2P_SHAPES = ("2x8", "4x32")


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("shape", P2P_SHAPES)
def test_p2p_matches_frozen_reference(shape, trace):
    """Payloads, clocks and all 28 counters are frozen."""
    conforms(f"p2p:{shape}", TRACED if trace else REAL)


# -- the per-message chain, counted -------------------------------------------

_LOCK_TYPE = type(threading.Lock())


def _count_calls_body(mpx, iters, loop, warm):
    """Python-level ``call`` events (C calls excluded), mailbox posts,
    lock constructions and ``lock.__exit__`` C calls of this rank over a
    hot run of the calls ``loop(mpx, comm)`` returns, after ``warm``
    runs (plans compiled, paths priced, data plans solved), and the
    collectives the engine ran centrally and compiled by then."""
    comm = mpx.COMM_WORLD
    ops = loop(mpx, comm)
    for _ in range(warm):
        for op in ops:
            op()
    post_code = Mailbox.post.__code__
    counts = [0, 0, 0, 0]

    def profiler(frame, event, arg):
        if event == "call":
            counts[0] += 1
            if frame.f_code is post_code:
                counts[1] += 1
        elif event == "c_call":
            name = getattr(arg, "__name__", None)
            if name == "allocate_lock":
                counts[2] += 1
            elif name == "__exit__" \
                    and type(getattr(arg, "__self__", None)) is _LOCK_TYPE:
                counts[3] += 1

    sys.setprofile(profiler)
    try:
        for _ in range(iters):
            for op in ops:
                op()
    finally:
        sys.setprofile(None)
    engine = mpx.ctx.engine
    return counts + [engine.central_replays, engine.compiled_replays]


def _guard_loop(mpx, comm):
    """A 4-float ``Allreduce`` and a ``Barrier`` (partials: no frame of
    their own to count)."""
    send = mpx.device_array(4, fill=comm.rank + 1)
    recv = mpx.device_array(4)
    return functools.partial(comm.Allreduce, send, recv), comm.Barrier


def _small_loop(mpx, comm, n=256):
    """The five collectives of the ``small_8`` workload at ``n`` floats,
    root 0."""
    send = mpx.device_array(n, fill=comm.rank + 1)
    recv = mpx.device_array(n)
    blocks = mpx.device_array(n * comm.size, fill=1.0)
    gathered = mpx.device_array(n * comm.size)
    call = functools.partial
    return (call(comm.Allreduce, send, recv),
            call(comm.Bcast, recv, root=0),
            call(comm.Reduce, send, recv, root=0),
            call(comm.Allgather, send, gathered),
            call(comm.Alltoall, blocks, gathered))


#: 8 ranks replaying per rank: a multi-node communicator, whose hot
#: synchronising keys run compiled (on one switched node the same loops
#: run centrally)
PER_RANK = (2, 4)
#: 8 ranks on one switched node: hot keys run centrally
CENTRAL = (1, 8)


def _calls_per_message(loop, iters=5, shape=PER_RANK):
    """``(calls, posts, lock constructions, lock exits, collectives run
    centrally, collectives run compiled)`` of ``iters`` hot runs of
    ``loop`` on 8 ranks (``shape``: nodes, ranks per node) under
    ``pure_mpi``, summed over the ranks.  A key runs centrally from its
    second call and solves its data plan there; it compiles on its
    second call and solves its data plan on its third."""
    nodes, rpn = shape
    out = runtime.run(_count_calls_body, system="thetagpu", nodes=nodes,
                      ranks_per_node=rpn, mode="pure_mpi", trace=False,
                      online_tune=False, iters=iters, loop=loop,
                      warm=2 if shape == CENTRAL else 3)
    *sums, _, _ = (sum(col) for col in zip(*out))
    return (*sums, out[0][4], out[0][5])


#: the bound on Python-level calls per message of the guard's loop
CALLS_PER_MESSAGE = 13
#: the messages of five runs of ``_guard_loop`` on 8 ranks: recursive
#: doubling and dissemination, three rounds each
GUARD_MESSAGES = 5 * 8 * (3 + 3)


def test_python_calls_per_message():
    """No wall clock: Python-level calls per message, everything between
    ``comm.Allreduce`` / ``comm.Barrier`` and the last message included,
    on 2 x 4 ranks, a contended shape: both keys synchronise, so their
    hot calls run compiled and post nothing — the messages are the
    rows', counted in ``GUARD_MESSAGES``.

    Before the eager path was flattened the chain made 78.54 (18 850
    over 240 messages), after it 53.71; a bound of 70 % of the former
    (54.98) guarded it until it was tightened to 53.04, the count when
    point-to-point came to be resolved in one step (untraced: a trace
    record is calls of its own).  A collective's rounds then left the
    public API for the endpoint, and no window builds a buffer view:
    45.04 (10 810 calls; 39.04 in a draft whose exchange spelled its
    eager leg inline instead of sharing the send and receive helpers),
    bounded at 46.  A plan hit that goes straight to its round program,
    replayed in one loop instead of the algorithm body, made it 33.54
    (8 050 calls; 44.04 just before), bounded at 34.  Those counts were
    taken on one node, whose hot keys now run centrally (below); on
    2 x 4, where every rank still replays its own rows, the loop made
    33.21 (7 970 calls) once ``Communicator._uniform`` resolved its
    arguments inline, and 32.88 (7 890 calls), bounded at 33, once an
    eager landing merged its arrival inline (the call it saved pays for
    the shared overlap rule, ``p2p.lends``).  A new helper call on the
    round → ``sendrecv`` →
    ``post`` → ``match`` path fails it.  ``as_array`` repeats
    ``DeviceBuffer._check_live``'s freed-flag test at the call site to
    save a call per window.  Compiled replay — each member runs its own
    priced steps, no ``Message``, lease, view or ``Status`` per message
    — made it 11.27 (2 704 calls over the same 240 messages, now
    counted from the rows instead of ``Mailbox.post``, which compiled
    keys never call) while a departure spelled ``WireTracker.book``'s
    arithmetic inline; with the booking left to the tracker
    (``WireTracker.book``, one booking policy) it makes 12.27 (2 944 calls),
    bounded at 13."""
    calls, posts, allocs, exits, central, compiled = _calls_per_message(
        _guard_loop)
    assert central == 0
    assert compiled == 6 * 2 and posts == 0     # the third warm-up too
    assert calls / GUARD_MESSAGES <= CALLS_PER_MESSAGE, calls
    # the same pass, C level: the run token is the per-message lock, so
    # no message builds one (a payload lease once did: 1.00) and only
    # the scheduler takes its own (1.02; 3.02 while the mailbox and the
    # slots kept theirs, 7.52 with every lock)
    assert allocs == 0, allocs
    assert exits / GUARD_MESSAGES <= 1.5, exits


#: the bound on Python-level calls per message of ``small_8``'s loop
SMALL_CALLS_PER_MESSAGE = 22


def test_python_calls_per_message_of_small_collectives():
    """The same count over the five collectives of the ``small_8``
    benchmark workload (256 floats, 8 ranks, ``pure_mpi``, root 0):
    rounds of ``Send`` / ``Recv`` and window cuts, which the guard
    above never runs.  It was 80.54 (34 631 calls over 430 messages)
    while every round went through the public point-to-point API and
    cut a buffer view per window; rounds below the API made it 62.65
    (26 941 calls), bounded at 64.  Replayed round programs made it
    41.60 (17 886 calls; 61.65 just before), bounded at 42 — on one
    node; on 2 x 4, which still replays per rank, 40.48 (17 406 calls)
    with ``_uniform``'s arguments resolved inline, and 40.01 (17 206
    calls), bounded at 41, with an eager landing's merge inline.  With
    the three synchronising keys compiled (``Bcast`` and ``Reduce``
    still replay per rank and post their 70 messages) it made 20.20
    (8 687 calls over the rows' 430 messages) with a compiled
    departure's booking inline, and makes 21.25 (9 137 calls), bounded
    at 22, with it booked by ``WireTracker.book`` and each per-rank
    call counted in its call record (``compiled.pass_by``), which tells
    a compiled key's members that another key runs the call."""
    calls, posts, allocs, exits, central, compiled = _calls_per_message(
        _small_loop)
    assert central == 0
    assert compiled == 6 * 3 and posts == 5 * (7 + 7)
    assert calls / SMALL_MESSAGES <= SMALL_CALLS_PER_MESSAGE, calls
    assert allocs == 0, allocs
    # 1.10 (3.10 with mailbox locks)
    assert exits / SMALL_MESSAGES <= 1.5, exits


#: the messages of five runs of ``_small_loop`` on 8 ranks: recursive
#: doubling, two binomial trees, recursive doubling, Bruck
SMALL_MESSAGES = 5 * (8 * 3 + 7 + 7 + 8 * 3 + 8 * 3)
#: the bounds on Python-level calls per recorded message of the guard's
#: loop and of ``small_8``'s when their hot keys run centrally
CENTRAL_CALLS_PER_MESSAGE = 10
CENTRAL_SMALL_CALLS_PER_MESSAGE = 16


@pytest.mark.parametrize("loop,messages,bound", [
    (_guard_loop, 5 * 8 * (3 + 3), CENTRAL_CALLS_PER_MESSAGE),
    (_small_loop, SMALL_MESSAGES, CENTRAL_SMALL_CALLS_PER_MESSAGE)],
    ids=["guard", "small"])
def test_python_calls_per_message_of_central_replay(loop, messages, bound):
    """The same loops on one switched node, where the last member to
    reach a hot key runs every member's rows: no message touches a
    mailbox, and the calls per recorded message — entry, rendezvous,
    the timing list's wire booking per message, each member's staging,
    the data plan — are 9.12 (2 190 calls) and 15.37 (6 610 calls),
    against 32.88 and 40.01 replayed per rank.  They were 12.31 and 20.86 while the pass ran
    the rows' payload steps one by one (a ``p2p.lends`` per exchange, a
    ``snapshot`` per copied payload, a ``copy_payload`` per landing, a
    call per copy, fold, permutation and staging step); the data plan
    moves each payload once, and judges a ``Sendrecv``'s lent view by
    ``lends`` only where two call buffers could alias."""
    calls, posts, allocs, exits, central, _ = _calls_per_message(
        loop, shape=CENTRAL)
    # every hot call: the five counted passes and the second warm-up
    assert central == 6 * (2 if loop is _guard_loop else 5)
    assert posts == 0
    assert calls / messages <= bound, calls
    assert allocs == 0, allocs
    assert exits / messages <= 0.5, exits   # 0.33 and 0.47: one per park


#: the bound on Python-level calls from ``comm.Allreduce`` to its first
#: endpoint call on a plan hit
CALLS_TO_FIRST_ROUND = 21


def _calls_to_first_round(mpx):
    """Python-level ``call`` events from a hot 256-float ``Allreduce``'s
    entry to its first ``P2PEndpoint`` call or its compiled replay
    (which is not counted)."""
    from repro.mpi.coll import compiled
    from repro.mpi.p2p import P2PEndpoint
    comm = mpx.COMM_WORLD
    send = mpx.device_array(256, fill=comm.rank + 1)
    recv = mpx.device_array(256)
    for _ in range(2):                  # plan compiled, rounds recorded
        comm.Allreduce(send, recv)
    rounds = {getattr(P2PEndpoint, name).__code__
              for name in ("send", "recv", "isend", "irecv", "sendrecv")}
    rounds.add(compiled.run.__code__)
    calls = [0, True]

    def profiler(frame, event, arg):
        if event == "call" and calls[1]:
            if frame.f_code in rounds:
                calls[1] = False
            else:
                calls[0] += 1

    sys.setprofile(profiler)
    try:
        comm.Allreduce(send, recv)
    finally:
        sys.setprofile(None)
    return calls[0]


def test_python_calls_to_the_first_round_of_a_plan_hit():
    """No wall clock: what a hot collective costs before its first
    message — the builder's argument checks, the elastic guard, one
    plan lookup, and the replayed rows before the first exchange (the
    input copy and the staging acquire) — on 2 x 4 ranks, which replay
    per rank.  The parent of replayed round programs made 62: five
    pipeline stages, stage markers that returned at once untraced and
    ``DispatchMode``'s Python-level ``__hash__`` in the plan key (41
    calls before ``allreduce_recursive_doubling`` started), then the
    algorithm body's own; 25 since, and 21 once ``_uniform`` resolved
    the datatype, the default count and the op's validity inline
    instead of through ``datatype_of`` → ``Buffer.dtype`` →
    ``from_numpy_dtype``, a second ``as_array`` and ``Op.validate``.
    A hot key on 2 x 4 now runs compiled, which calls no endpoint: the
    count runs to the compiled replay's entry: 14 (its staging and
    input copy are no longer calls before the first message)."""
    nodes, rpn = PER_RANK
    out = runtime.run(_calls_to_first_round, system="thetagpu", nodes=nodes,
                      ranks_per_node=rpn, mode="pure_mpi", trace=False)
    assert max(out) <= CALLS_TO_FIRST_ROUND, out
