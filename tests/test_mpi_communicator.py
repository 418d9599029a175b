"""Communicator identity, Dup/Split, context isolation."""

import pytest

from repro.core import runtime
from repro.errors import (MPICommError, MPICountError, MPIRankError,
                          RankFailedError)
from repro.mpi import SUM, Communicator
from repro.mpi.communicator import IN_PLACE
from repro.mpi.config import mvapich_gpu
from repro.sim.engine import Engine


def world(ctx):
    return Communicator.world(ctx)


class TestIdentity:
    def test_rank_size(self, thetagpu1, spmd):
        out = spmd(thetagpu1, lambda ctx: (world(ctx).rank, world(ctx).size),
                   nranks=4)
        assert out == [(r, 4) for r in range(4)]

    def test_get_rank_get_size(self, thetagpu1, spmd):
        def body(ctx):
            comm = world(ctx)
            return comm.Get_rank(), comm.Get_size()

        assert spmd(thetagpu1, body, nranks=2) == [(0, 2), (1, 2)]

    def test_world_rank_translation(self, thetagpu1, spmd):
        def body(ctx):
            comm = world(ctx)
            with pytest.raises(MPIRankError):
                comm.world_rank(10)
            return comm.world_rank(1)

        assert spmd(thetagpu1, body, nranks=3)[0] == 1


class TestDup:
    def test_dup_isolates_context(self, thetagpu1, spmd):
        def body(ctx):
            comm = world(ctx)
            dup = comm.Dup()
            peer = 1 - ctx.rank
            a = ctx.device.zeros(4)
            b = ctx.device.zeros(4)
            if ctx.rank == 0:
                a.fill(1.0)
                b.fill(2.0)
                dup.Send(b, peer, tag=0)    # dup traffic first
                comm.Send(a, peer, tag=0)
                return None
            # receive in the opposite order: contexts must not cross
            comm.Recv(a, source=peer, tag=0)
            dup.Recv(b, source=peer, tag=0)
            return (a.array[0], b.array[0])

        assert spmd(thetagpu1, body, nranks=2)[1] == (1.0, 2.0)

    def test_dup_same_group(self, thetagpu1, spmd):
        def body(ctx):
            comm = world(ctx)
            dup = comm.Dup()
            return dup.rank == comm.rank and dup.size == comm.size

        assert all(spmd(thetagpu1, body, nranks=4))


class TestSplit:
    def test_split_even_odd(self, thetagpu1, spmd):
        def body(ctx):
            comm = world(ctx)
            sub = comm.Split(color=ctx.rank % 2, key=ctx.rank)
            return (sub.rank, sub.size)

        out = spmd(thetagpu1, body, nranks=6)
        assert out == [(0, 3), (0, 3), (1, 3), (1, 3), (2, 3), (2, 3)]

    def test_split_key_reorders(self, thetagpu1, spmd):
        def body(ctx):
            comm = world(ctx)
            sub = comm.Split(color=0, key=-ctx.rank)  # reverse order
            return sub.rank

        assert spmd(thetagpu1, body, nranks=4) == [3, 2, 1, 0]

    def test_split_undefined_color(self, thetagpu1, spmd):
        def body(ctx):
            comm = world(ctx)
            sub = comm.Split(color=0 if ctx.rank == 0 else -1)
            return sub is None

        assert spmd(thetagpu1, body, nranks=3) == [False, True, True]

    def test_split_collectives_work(self, thetagpu1, spmd):
        def body(ctx):
            comm = world(ctx)
            sub = comm.Split(color=ctx.rank // 2)
            buf = ctx.device.zeros(4)
            buf.fill(1.0)
            out = ctx.device.zeros(4)
            sub.Allreduce(buf, out, SUM)
            return out.array[0]

        assert spmd(thetagpu1, body, nranks=4) == [2.0] * 4


class TestSharedRecord:
    """One record per communicator, shared by its members (SPMD)."""

    def test_members_share_group_and_rank_map(self, thetagpu1, spmd):
        def body(ctx):
            sub = world(ctx).Split(color=ctx.rank % 2, key=-ctx.rank)
            return sub.record, sub.group, sub._from_world

        out = spmd(thetagpu1, body, nranks=6)
        for color in (0, 1):
            views = out[color::2]
            assert all(rec is views[0][0] and group is rec.group
                       and rank_of is rec.rank_of
                       for rec, group, rank_of in views)
        assert out[0][1] == (4, 2, 0) and out[1][1] == (5, 3, 1)

    def test_diverged_split_is_refused(self, thetagpu1):
        """A member whose ``Split`` result differs from the group its
        peers agreed on raises instead of overwriting what the others
        (and the abort probes) read."""
        engine = Engine(thetagpu1, nranks=4)

        def body(ctx):
            comm = world(ctx)
            if ctx.rank == 2:
                split = comm.Split

                def diverged(color, key=0):
                    sub = split(color, key)
                    return Communicator(ctx, sub.config, sub.group[::-1],
                                        sub.ctx_id)
                comm.Split = diverged
            return comm.Split(color=0).ctx_id

        with pytest.raises(RankFailedError) as ei:
            engine.run(body)
        assert set(ei.value.failures) == {2}
        assert isinstance(ei.value.failures[2], MPICommError)
        (scope,) = set(engine.records) - {"w"}
        assert engine.records[scope].group == (0, 1, 2, 3)

    def test_non_member_error_names_the_size(self, thetagpu1, spmd):
        """Not the whole group: at thousands of ranks that is a
        kilobytes-long exception string."""
        def body(ctx):
            with pytest.raises(MPICommError) as ei:
                Communicator(ctx, mvapich_gpu(), tuple(range(1, 4097)), "big")
            return str(ei.value)

        (msg,) = spmd(thetagpu1, body, nranks=1)
        assert "4096" in msg and len(msg) < 100


class TestFree:
    def test_use_after_free(self, thetagpu1, spmd):
        def body(ctx):
            comm = world(ctx)
            comm.Free()
            try:
                comm.Barrier()
            except MPICommError:
                return "caught"
            return "missed"

        assert spmd(thetagpu1, body, nranks=2) == ["caught", "caught"]


#: every collective entry point that takes a count, a vector or a root,
#: called as ``f(comm, s, r, <one bad argument>)``; ``s`` and ``r`` hold
#: 64 elements per rank of a 4-rank communicator
_V = [64, 64, 64, 64]
_ROOTED = {
    "Bcast": lambda c, s, r, **bad: c.Bcast(r, **bad),
    "Bcast_init": lambda c, s, r, **bad: c.Bcast_init(r, **bad),
    "Ibcast": lambda c, s, r, **bad: c.Ibcast(r, **bad),
    "Reduce": lambda c, s, r, **bad: c.Reduce(s, r, **bad),
    "Reduce_init": lambda c, s, r, **bad: c.Reduce_init(s, r, **bad),
    "Gather": lambda c, s, r, **bad: c.Gather(s, r, **bad),
    "Scatter": lambda c, s, r, **bad: c.Scatter(s, r, **bad),
    "Gatherv": lambda c, s, r, **bad: c.Gatherv(s, r, _V, **bad),
    "Scatterv": lambda c, s, r, **bad: c.Scatterv(s, _V, r, **bad),
}
_COUNTED = dict(
    {name: f for name, f in _ROOTED.items() if not name.endswith("v")},
    **{name: (lambda c, s, r, n=name, **bad: getattr(c, n)(s, r, **bad))
       for name in ("Allreduce", "Allreduce_init", "Iallreduce", "Allgather",
                    "Allgather_init", "Alltoall", "Alltoall_init",
                    "Ialltoall", "Reduce_scatter_block",
                    "Reduce_scatter_block_init", "Scan", "Exscan")})
_VECTOR = {
    "Allgatherv": lambda c, s, r, v, d: c.Allgatherv(s, r, v, d),
    "Gatherv": lambda c, s, r, v, d: c.Gatherv(s, r, v, d),
    "Scatterv": lambda c, s, r, v, d: c.Scatterv(s, v, r, d),
    "Alltoallv-send": lambda c, s, r, v, d: c.Alltoallv(s, v, r, _V, d),
    "Alltoallv-recv": lambda c, s, r, v, d: c.Alltoallv(s, _V, r, v, None, d),
}
_BAD_VECTORS = {
    "short-counts": ([64, 64], None),
    "negative-count": ([64, -1, 64, 64], None),
    "short-displs": (_V, [0, 64]),
    "negative-displ": (_V, [0, -64, 128, 192]),
}
BAD_ARGUMENTS = (
    [pytest.param(lambda c, s, r, f=f: f(c, s, r, count=-1), MPICountError,
                  id=f"{name}-negative-count")
     for name, f in _COUNTED.items()]
    + [pytest.param(lambda c, s, r, f=f, root=root: f(c, s, r, root=root),
                    MPIRankError, id=f"{name}-root-{root}")
       for name, f in _ROOTED.items() for root in (4, -1)]
    + [pytest.param(lambda c, s, r, f=f, v=v, d=d: f(c, s, r, v, d),
                    MPICountError, id=f"{name}-{bad}")
       for name, f in _VECTOR.items()
       for bad, (v, d) in _BAD_VECTORS.items()]
)


class TestCollectiveArguments:
    @pytest.mark.parametrize("call,error", BAD_ARGUMENTS)
    def test_bad_argument_rejected_before_anything_is_sent(
            self, thetagpu1, spmd, call, error):
        """A negative count, a vector that is not one non-negative entry
        per rank, or a root outside the communicator is refused by the
        entry point itself: the same error on every rank, no virtual
        time spent, and the communicator still usable."""
        def body(ctx):
            comm = world(ctx)
            s = ctx.device.zeros(256)
            s.fill(1.0)
            r = ctx.device.zeros(256)
            before = comm.now
            with pytest.raises(error):
                call(comm, s, r)
            assert comm.now == before
            comm.Allreduce(s, r, SUM)
            return r.array[0]

        assert spmd(thetagpu1, body, nranks=4) == [4.0] * 4


ROUTES = ("pure_mpi", "pure_xccl", "hybrid")

#: the ten uniform-count collectives, each as ``(comm, send, recv, n)``
#: with ``count=n`` and root 0 where there is one
UNIFORM = {
    "Bcast": lambda c, s, r, n: c.Bcast(r, 0, count=n),
    "Reduce": lambda c, s, r, n: c.Reduce(s, r, SUM, 0, count=n),
    "Allreduce": lambda c, s, r, n: c.Allreduce(s, r, SUM, count=n),
    "Allgather": lambda c, s, r, n: c.Allgather(s, r, count=n),
    "Alltoall": lambda c, s, r, n: c.Alltoall(s, r, count=n),
    "Reduce_scatter_block":
        lambda c, s, r, n: c.Reduce_scatter_block(s, r, SUM, count=n),
    "Gather": lambda c, s, r, n: c.Gather(s, r, 0, count=n),
    "Scatter": lambda c, s, r, n: c.Scatter(s, r, 0, count=n),
    "Scan": lambda c, s, r, n: c.Scan(s, r, SUM, count=n),
    "Exscan": lambda c, s, r, n: c.Exscan(s, r, SUM, count=n),
}


def _zero_count_body(mpx):
    """Every uniform collective at ``count=0``: nothing is written."""
    comm = mpx.COMM_WORLD
    s = mpx.device_array(4 * comm.size, fill=comm.rank + 1)
    r = mpx.device_array(4 * comm.size, fill=-1.0)
    for call in UNIFORM.values():
        call(comm, s, r, 0)
    return r.array.tolist()


@pytest.mark.parametrize("nodes,rpn", [(1, 3), (2, 4)])
@pytest.mark.parametrize("mode", ROUTES)
def test_zero_count_is_a_no_op_on_every_route(mode, nodes, rpn):
    """``count=0`` moves nothing and returns on every route; the Bruck
    alltoall of the MPI route once raised numpy's ``cannot reshape``
    from ``reshape(-1, 0)``."""
    out = runtime.run(_zero_count_body, system="thetagpu", nodes=nodes,
                      ranks_per_node=rpn, mode=mode)
    assert out == [[-1.0] * 4 * nodes * rpn] * (nodes * rpn)


#: an undersized window per uniform collective (4 ranks, ``count=4``):
#: ``(sizes of send, recv, the text MPICountError carries)``
UNDERSIZED = {
    "Alltoall-send": ("Alltoall", 15, 16,
                      "alltoall: count 4 x 4 does not fit the 15-element "
                      "send buffer"),
    "Alltoall-recv": ("Alltoall", 16, 15,
                      "alltoall: count 4 x 4 does not fit the 15-element "
                      "receive buffer"),
    "Allreduce": ("Allreduce", 4, 3,
                  "allreduce: count 4 x 1 does not fit the 3-element "
                  "receive buffer"),
    "Allgather": ("Allgather", 4, 15,
                  "allgather: count 4 x 4 does not fit the 15-element "
                  "receive buffer"),
    "Reduce_scatter_block": ("Reduce_scatter_block", 15, 4,
                             "reduce_scatter_block: count 4 x 4 does not "
                             "fit the 15-element send buffer"),
    "Bcast": ("Bcast", 4, 3,
              "bcast: count 4 x 1 does not fit the 3-element receive "
              "buffer"),
}


def _undersized_body(mpx, case):
    """The case's collective on undersized windows: the error text, and
    whether the clock stayed put and the communicator stayed usable."""
    comm = mpx.COMM_WORLD
    coll, nsend, nrecv, _text = UNDERSIZED[case]
    s = mpx.device_array(nsend, fill=1.0)
    r = mpx.device_array(nrecv)
    before = comm.now
    with pytest.raises(MPICountError) as err:
        UNIFORM[coll](comm, s, r, 4)
    still = comm.now == before
    ok = mpx.device_array(4)
    comm.Allreduce(mpx.device_array(4, fill=1.0), ok, SUM)
    return str(err.value), still, float(ok.array[0])


@pytest.mark.parametrize("case", sorted(UNDERSIZED))
@pytest.mark.parametrize("mode", ROUTES)
def test_undersized_window_fails_alike_on_every_route(mode, case):
    """A window shorter than what the call moves is refused by the
    entry point with ``MPICountError``, one text on every route, before
    any virtual time is spent — where the MPI route once raised numpy's
    ``cannot reshape`` and the CCL route ``InvalidBufferError`` or
    ``CCLInvalidUsage`` from inside an algorithm."""
    out = runtime.run(_undersized_body, system="thetagpu", nodes=1,
                      ranks_per_node=4, mode=mode, case=case)
    assert out == [(UNDERSIZED[case][3], True, 4.0)] * 4


def test_in_place_and_storage_free_windows_are_checked():
    """In place, the receive window must also hold the contribution;
    a storage-free window is judged by its count like a real one."""
    from repro.hw.systems import make_system

    def body(ctx):
        comm = world(ctx)
        p = comm.size
        r = ctx.device.zeros(4 * p - 1)
        with pytest.raises(MPICountError, match="15-element receive"):
            comm.Reduce_scatter_block(IN_PLACE, r, SUM, count=4)
        comm.Reduce_scatter_block(IN_PLACE, ctx.device.zeros(4 * p), SUM,
                                  count=4)
        with pytest.raises(MPICountError, match="15-element receive"):
            comm.Allgather(IN_PLACE, r, count=4)
        with pytest.raises(MPICountError, match="3-element send"):
            comm.Alltoall(ctx.device.zeros(3), ctx.device.zeros(4 * p),
                          count=4)
        return True

    engine = Engine(make_system("thetagpu", 1, payloads=False), nranks=4)
    assert engine.run(body) == [True] * 4


class TestNonblockingCollectives:
    def test_iallreduce(self, thetagpu1, spmd):
        def body(ctx):
            comm = world(ctx)
            a = ctx.device.zeros(8)
            a.fill(1.0)
            b = ctx.device.zeros(8)
            req = comm.Iallreduce(a, b, SUM)
            req.wait()
            return b.array[0]

        assert spmd(thetagpu1, body, nranks=4) == [4.0] * 4

    def test_ibarrier_ibcast(self, thetagpu1, spmd):
        def body(ctx):
            comm = world(ctx)
            comm.Ibarrier().wait()
            buf = ctx.device.zeros(4)
            if ctx.rank == 0:
                buf.fill(5.0)
            comm.Ibcast(buf, root=0).wait()
            return buf.array[0]

        assert spmd(thetagpu1, body, nranks=3) == [5.0] * 3
