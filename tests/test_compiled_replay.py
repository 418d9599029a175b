"""Compiled replay: a contended hot key's members run their own priced
steps, and its payloads move once.

On a contended shape (several nodes, two ranks on one device, a PCIe
bus) a synchronising MPI-route key compiles on its second call and runs
compiled from its third (``repro.mpi.coll.replay``).  Tracing keeps
every call on the per-rank replay, which makes it the reference here:
the compiled runs must give the same payload bytes, the same clock
after every call and every ``fastpath`` counter the same — parks and
run-token switches included, since the compiled steps keep the run
token's order.  Then the cases that must not compile, the counter that
says which did, members that switch their buffers under a compiled key
(which must give the per-rank answer, clocks included), the failure
paths and the staging pool's storage.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import fastpath
from repro.core import runtime
from repro.errors import CommRevokedError, InvalidBufferError, RankFailedError
from repro.hw.memory import storage_free
from repro.hw.systems import make_system
from repro.mpi import Communicator
from repro.mpi.coll import MPICollDispatcher, compiled as compiled_replay
from repro.mpi.communicator import IN_PLACE
from repro.mpi.ops import MAX, SUM, user_op
from repro.sim.engine import Engine

#: an op numpy does not know: the data plan folds it through
#: ``Op.reduce_into``
HALF_SUM = user_op(lambda a, b: a + 0.5 * b, name="HALF_SUM")

#: every flat algorithm whose members all depend on one another (the
#: keys that compile), by collective
SYNCHRONISING = (
    ("allreduce", "recursive_doubling"), ("allreduce", "ring"),
    ("allreduce", "rabenseifner"), ("allgather", "bruck"),
    ("allgather", "recursive_doubling"), ("allgather", "ring"),
    ("alltoall", "bruck"), ("alltoall", "pairwise"),
    ("reduce_scatter", "pairwise"), ("reduce_scatter", "recursive_halving"),
    ("barrier", None), ("allgatherv", None))
#: ``(dtype, op, count, in place)``: ``"odd"`` is ``2 p + 1``
VARIANTS = ((np.float32, SUM, "odd", False), (np.float64, MAX, 1, True),
            (np.float32, HALF_SUM, 0, False), (np.float64, HALF_SUM, "odd",
                                                True))
#: the 64-rank shape runs a few of them
QUICK = (("allreduce", "recursive_doubling"), ("alltoall", "pairwise"),
         ("barrier", None))

#: ``(system, nodes, ranks per node, algorithms, variants)``
SHAPES = {
    "2x4": ("thetagpu", 2, 4, SYNCHRONISING, VARIANTS),
    "4x2": ("thetagpu", 4, 2, SYNCHRONISING, VARIANTS),
    "8x8": ("thetagpu", 8, 8, QUICK, VARIANTS[:1]),
    "1x16": ("thetagpu", 1, 16, SYNCHRONISING, VARIANTS[1:3]),
    "mri-1x2": ("mri", 1, 2, SYNCHRONISING, VARIANTS),
}
#: calls per key: recorded, replayed (it compiles), twice compiled
CALLS = 4


def _body(ctx, algorithms, variants):
    """Each algorithm, forced, on each variant, called :data:`CALLS`
    times with fresh inputs: the payload bytes and the clock after every
    call."""
    p, rank = ctx.engine.nranks, ctx.rank
    log = []
    for coll, name in algorithms:
        comm = Communicator.world(ctx)
        comm.coll = MPICollDispatcher(force=name)
        # a barrier's key is the same in every variant
        for dtype, op, count, in_place in variants[:1] if coll == "barrier" \
                else variants:
            count = 2 * p + 1 if count == "odd" else count
            in_place = in_place and coll not in ("alltoall", "barrier")
            wide = count * p
            counts = [(i + count) % 3 for i in range(p)]
            displs = [sum(counts[:i]) for i in range(p)]
            send = ctx.device.zeros(max(wide, 2 * p), dtype=dtype)
            recv = ctx.device.zeros(max(wide, 2 * p), dtype=dtype)
            for k in range(CALLS):
                fill = (np.arange(send.count) % 5 + rank + 4 * k).astype(dtype)
                send.array[:] = fill
                recv.array[:] = -1
                src = IN_PLACE if in_place else send
                if coll == "barrier":
                    comm.Barrier()
                elif coll == "allreduce":
                    if in_place:
                        recv.array[:count] = fill[:count]
                    comm.Allreduce(src, recv, op, count=count)
                elif coll == "allgather":
                    if in_place:
                        recv.array[rank * count:(rank + 1) * count] = \
                            fill[:count]
                    comm.Allgather(src, recv, count=count)
                elif coll == "alltoall":
                    comm.Alltoall(send, recv, count=count)
                elif coll == "reduce_scatter":
                    if in_place:
                        recv.array[:wide] = fill[:wide]
                    comm.Reduce_scatter_block(src, recv, op, count=count)
                else:   # allgatherv
                    mine = slice(displs[rank], displs[rank] + counts[rank])
                    if in_place:
                        recv.array[mine] = fill[:counts[rank]]
                    comm.Allgatherv(src, recv, counts)
                log.append((recv.array.tobytes(), ctx.now))
    return log


def _run(shape, trace, payloads=True):
    """The shape's program: per rank its log, the counters, and how many
    collectives ran compiled."""
    system, nodes, rpn, algorithms, variants = SHAPES[shape]
    engine = Engine(make_system(system, nodes, payloads=payloads),
                    nranks=nodes * rpn, ranks_per_node=rpn, trace=trace,
                    online_tune=False)
    logs = engine.run(_body, algorithms, variants)
    return logs, fastpath.STATS.snapshot(), engine.compiled_replays


@pytest.mark.parametrize("shape,payloads", [
    (shape, payloads) for shape in sorted(SHAPES)
    for payloads in (True, False) if payloads or shape != "8x8"],
    ids=lambda v: v if isinstance(v, str) else "real" if v
    else "storage_free")
def test_compiled_equals_per_rank(shape, payloads):
    """Compiled (untraced) and per-rank (traced) runs of every
    synchronising algorithm: payload bytes (real buffers), clocks and
    all ``fastpath`` counters ``==``."""
    logs, counters, compiled = _run(shape, False, payloads)
    ref_logs, ref_counters, ref_compiled = _run(shape, True, payloads)
    _, _, _, algorithms, variants = SHAPES[shape]
    keys = (len(algorithms) - 1) * len(variants) + 1    # one barrier key
    # all but a few empty keys (a member with nothing to receive leaves
    # before the others come) compile, and run compiled twice
    assert keys * (CALLS - 2) - compiled <= 4 and ref_compiled == 0
    assert [[clock for _, clock in log] for log in logs] == \
        [[clock for _, clock in log] for log in ref_logs]
    if payloads:
        assert [[data for data, _ in log] for log in logs] == \
            [[data for data, _ in log] for log in ref_logs]
    assert counters == ref_counters


def _mixed(mpx, calls=4):
    """Each of a hot ``Allreduce``, ``Barrier``, ``Bcast``, ``Reduce``
    and a rendezvous-sized ``Allreduce``, ``calls`` times."""
    comm = mpx.COMM_WORLD
    small = mpx.device_array(4, fill=comm.rank + 1)
    out = mpx.device_array(4)
    big = mpx.device_array(1 << 18, fill=1.0)     # 1 MiB: rendezvous
    big_out = mpx.device_array(1 << 18)
    for _ in range(calls):
        comm.Allreduce(small, out)
        comm.Barrier()
        comm.Bcast(out, root=1)
        comm.Reduce(small, out, root=2)
        comm.Allreduce(big, big_out)
    return mpx.ctx.engine.compiled_replays


def test_only_hot_synchronising_eager_keys_compile():
    """``engine.compiled_replays`` counts collectives run compiled: the
    small ``Allreduce`` and the ``Barrier`` from their third call on —
    not the ``Bcast`` and ``Reduce`` (a member leaves before every
    member has come), nor the rendezvous ``Allreduce``; none at all on
    one switched node (central replay) or traced."""
    def compiled(nodes, rpn, **options):
        out = runtime.run(_mixed, system="thetagpu", nodes=nodes,
                          ranks_per_node=rpn, mode="pure_mpi",
                          online_tune=False, **options)
        return out[0]

    assert compiled(2, 4, trace=False) == 2 * (4 - 2)
    assert compiled(1, 8, trace=False) == 0
    assert compiled(2, 4, trace=True) == 0


def _switching(ctx, pattern, coll="allreduce", algorithm=None):
    """One ``Allreduce`` (or ``Alltoall``) of 5 floats a rank per entry
    of ``pattern``, ``algorithm`` forced: the ranks an entry lists pass
    host arrays, the others device buffers — legal MPI whose members'
    keys differ on those calls.  The bytes and clock after every call,
    and the call records left open after a closing ``Barrier``."""
    comm = Communicator.world(ctx)
    if algorithm is not None:
        comm.coll = MPICollDispatcher(force=algorithm)
    wide = 5 * comm.size
    log = []
    for k, hosts in enumerate(pattern):
        if ctx.rank in hosts:
            send = np.zeros(wide, dtype=np.float32)
            recv = out = np.zeros(wide, dtype=np.float32)
            send[:] = np.arange(wide) % 7 + ctx.rank + 3 * k
        else:
            send, recv = ctx.device.zeros(wide), ctx.device.zeros(wide)
            send.array[:] = np.arange(wide) % 7 + ctx.rank + 3 * k
            out = recv.array
        if coll == "allreduce":
            comm.Allreduce(send, recv, SUM, count=5)
        else:
            comm.Alltoall(send, recv, count=5)
        log.append((out.tobytes(), ctx.now))
    comm.Barrier()
    return log, len(comm.record.call_records)


def test_a_member_that_switches_its_buffers_finishes_per_rank(thetagpu2):
    """On 2 x 2 ranks, five ``Allreduce`` calls of device buffers where
    rank 0 passes host arrays on the fifth: the key compiled on the
    second call, and rank 0's fifth call is another key, run live.  Its
    call record tells the others, who replay that call per rank: the
    program finishes with the per-rank replay's bytes and clocks (it
    once ended in ``DeadlockError`` on every rank)."""
    pattern = ((),) * 4 + ((0,),)

    def run(trace):
        engine = Engine(thetagpu2, nranks=4, ranks_per_node=2, trace=trace,
                        online_tune=False)
        return engine.run(_switching, pattern), engine.compiled_replays

    got, compiled = run(False)
    assert compiled == 2
    assert got == run(True)[0]
    assert all(left == 0 for _, left in got)


#: ``(name, pattern, whether a compiled call falls back part-way)``:
#: rank 0 reaches its other key first, so the others find its record;
#: rank 3 reaches it while others wait in a compiled call; a second key
#: compiles (every rank on host arrays) and the two keys then meet in
#: one call, and again with another split
SWITCHES = (
    ("first", ((),) * 4 + ((0,), ()), False),
    ("later", ((),) * 3 + ((3,), (), ()), True),
    ("two_keys", ((),) * 3 + (tuple(range(8)),) * 3
     + ((0, 1), (2,), ()), True),
)


@pytest.mark.parametrize("coll,algorithm", [
    ("allreduce", "recursive_doubling"), ("allreduce", "ring"),
    ("alltoall", "pairwise")])
@pytest.mark.parametrize("name,pattern,falls_back", SWITCHES,
                         ids=[name for name, _, _ in SWITCHES])
def test_members_that_disagree_get_the_per_rank_answer(
        monkeypatch, name, pattern, falls_back, coll, algorithm):
    """Members of a compiled key that meet a member running another key
    in one call replay that call per rank — from its start when that
    member came first, part-way (their state rebuilt, their departed
    messages posted) when they were already waiting in the compiled
    call: on 2 x 4 ranks, the bytes and every clock of the per-rank
    replay, and no call record left open."""
    cluster = make_system("thetagpu", 2)
    fallbacks = []
    fall_back = compiled_replay._fall_back

    def counted(rec):
        fallbacks.append(rec.tag)
        fall_back(rec)

    monkeypatch.setattr(compiled_replay, "_fall_back", counted)

    def run(trace):
        engine = Engine(cluster, nranks=8, ranks_per_node=4, trace=trace,
                        online_tune=False)
        return engine.run(_switching, pattern, coll, algorithm), \
            engine.compiled_replays

    got, compiled = run(False)
    assert compiled > 0 and bool(fallbacks) == falls_back
    reference, none = run(True)
    assert none == 0
    assert got == reference
    assert all(left == 0 for _, left in got)


@pytest.mark.parametrize("odd", [0, 3])
def test_a_member_whose_key_records_nothing_takes_its_call_record(
        thetagpu2, odd):
    """Rank ``odd`` passes one buffer as both send and receive buffer
    on the fourth call — a key that stays live and records nothing —
    while the others run the compiled key: its dropped recording still
    takes the call record at its first tag, so the call ends with the
    per-rank replay's bytes and clocks (rank 0 comes first and leaves
    the record; rank 3 comes while the others wait, and falls them
    back)."""
    def body(ctx):
        comm = Communicator.world(ctx)
        out = []
        for k in range(5):
            buf, other = ctx.device.zeros(8), ctx.device.zeros(8)
            buf.fill(ctx.rank + k)
            if k == 3 and ctx.rank == odd:
                other = buf
            comm.Allreduce(buf, other, SUM)
            out.append((other.array.tobytes(), ctx.now))
        return out

    def run(trace):
        engine = Engine(thetagpu2, nranks=4, ranks_per_node=2, trace=trace,
                        online_tune=False)
        return engine.run(body), engine.compiled_replays

    got, compiled = run(False)
    assert compiled == 2
    assert got == run(True)[0]


def _hot_then_revoked(ctx):
    comm = Communicator.world(ctx)
    send, recv = ctx.device.zeros(8), ctx.device.zeros(8)
    send.fill(1.0)
    for _ in range(3):
        comm.Allreduce(send, recv, SUM)     # the third runs compiled
    comm.Barrier()      # every member is done with the third
    if ctx.rank == 3:
        comm.Comm_revoke()      # while the others wait in a compiled call
    try:
        comm.Allreduce(send, recv, SUM)
    except CommRevokedError:
        return "revoked", dict(comm.record.call_records)
    return "completed", dict(comm.record.call_records)


def test_revocation_mid_key_raises_on_every_member(thetagpu2):
    """A communicator revoked while members wait in a compiled call:
    every member raises, and no call record is left behind."""
    engine = Engine(thetagpu2, nranks=4, ranks_per_node=2, trace=False,
                    online_tune=False)
    assert engine.run(_hot_then_revoked) == [("revoked", {})] * 4
    assert engine.compiled_replays == 1


def test_comm_free_leaves_no_call_record(thetagpu2):
    """A duplicate's compiled key, then ``Comm_free``: no open call
    record, and the record leaves the engine with the last handle."""
    def body(ctx):
        world = Communicator.world(ctx)
        dup = world.Dup()
        send, recv = ctx.device.zeros(8), ctx.device.zeros(8)
        for _ in range(4):
            dup.Allreduce(send, recv, SUM)
            dup.Barrier()
        record = dup.record
        dup.Free()
        world.Barrier()
        return dict(record.call_records), record.scope in ctx.engine.records

    engine = Engine(thetagpu2, nranks=4, ranks_per_node=2, trace=False,
                    online_tune=False)
    assert engine.run(body) == [({}, False)] * 4
    assert engine.compiled_replays == 2 * 2


def test_a_storage_free_payload_for_real_memory_raises_on_every_member(
        thetagpu2):
    """A compiled call whose data plan would land a storage-free send
    buffer's payload in real memory raises ``NO_CONTENTS`` on every
    member, not only where it lands."""
    def body(ctx):
        comm = Communicator.world(ctx)
        recv = np.zeros(8, dtype=np.float32)
        for k in range(4):
            send = np.full(8, ctx.rank + 1.0, dtype=np.float32)
            if k == 3 and ctx.rank == 0:
                send = storage_free(8)
            comm.Allreduce(send, recv, SUM)

    engine = Engine(thetagpu2, nranks=4, ranks_per_node=2, trace=False,
                    online_tune=False)
    with pytest.raises(RankFailedError) as failed:
        engine.run(body)
    failures = failed.value.failures
    assert sorted(failures) == [0, 1, 2, 3]
    assert all(isinstance(exc, InvalidBufferError)
               for exc in failures.values())


def _real_then_storage_free(mpx):
    """64 host floats twice, then twice storage-free: one key, whose
    staging must follow the call's storage."""
    comm = mpx.COMM_WORLD
    out = []
    for _ in range(2):
        send = np.full(64, comm.rank + 1.0, dtype=np.float32)
        recv = np.zeros(64, dtype=np.float32)
        comm.Allreduce(send, recv, SUM)
        out.append((recv.tobytes(), mpx.ctx.now))
    for _ in range(2):
        comm.Allreduce(storage_free(64), storage_free(64), SUM)
        out.append((None, mpx.ctx.now))
    return out, mpx.ctx.engine.compiled_replays, \
        mpx.ctx.engine.central_replays


@pytest.mark.parametrize("path", ["per_rank", "central", "compiled"])
def test_staging_pools_follow_the_call_storage(path):
    """A key called with real buffers and then with storage-free ones
    of the same shape draws storage-free scratch for the latter — per
    rank (traced, 2 x 2), centrally (1 x 4) and compiled (2 x 2) —
    where it once got real scratch back and every rank raised
    ``NO_CONTENTS``."""
    nodes, rpn = (1, 4) if path == "central" else (2, 2)
    out = runtime.run(_real_then_storage_free, system="thetagpu",
                      nodes=nodes, ranks_per_node=rpn, mode="pure_mpi",
                      trace=path == "per_rank", online_tune=False)
    want = np.full(64, 1.0 + 2 + 3 + 4, dtype=np.float32).tobytes()
    for log, compiled, central in out:
        assert [data for data, _ in log[:2]] == [want] * 2
        assert (compiled, central) == {"per_rank": (0, 0),
                                       "central": (0, 3),
                                       "compiled": (2, 0)}[path]
    if path == "compiled":
        per_rank = runtime.run(_real_then_storage_free, system="thetagpu",
                               nodes=nodes, ranks_per_node=rpn,
                               mode="pure_mpi", trace=True,
                               online_tune=False)
        assert [log for log, _, _ in out] == [log for log, _, _ in per_rank]
