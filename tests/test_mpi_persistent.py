"""Persistent requests (MPI_Send_init / MPI_Recv_init / Start), and the
persistent and nonblocking spellings of the collectives."""

import pytest

from repro.core import runtime
from repro.errors import MPICommError
from repro.mpi import SUM, Communicator


class TestPersistent:
    def test_repeated_halo_exchange(self, thetagpu1, spmd):
        """The canonical use: set up once, Start each iteration."""

        def body(ctx):
            comm = Communicator.world(ctx)
            peer = 1 - ctx.rank
            send = ctx.device.zeros(8)
            recv = ctx.device.zeros(8)
            sreq = comm.Send_init(send, peer, tag=3)
            rreq = comm.Recv_init(recv, source=peer, tag=3)
            got = []
            for it in range(3):
                send.fill(float(ctx.rank * 10 + it))
                rreq.Start()
                sreq.Start()
                sreq.wait()
                rreq.wait()
                got.append(float(recv.array[0]))
            return got

        out = spmd(thetagpu1, body, nranks=2)
        assert out[0] == [10.0, 11.0, 12.0]
        assert out[1] == [0.0, 1.0, 2.0]

    def test_start_twice_without_wait(self, thetagpu1, spmd):
        def body(ctx):
            comm = Communicator.world(ctx)
            if ctx.rank == 0:
                req = comm.Send_init(ctx.device.zeros(1 << 20), 1)
                req.Start()
                try:
                    req.Start()
                except MPICommError:
                    return "rejected"
                finally:
                    req.wait()
                    comm.Recv(ctx.device.zeros(1), source=1)
            else:
                comm.Recv(ctx.device.zeros(1 << 20), source=0)
                comm.Send(ctx.device.zeros(1), 0)
            return "rejected" if ctx.rank == 0 else None

        assert spmd(thetagpu1, body, nranks=2)[0] == "rejected"

    def test_wait_before_start(self, thetagpu1, spmd):
        def body(ctx):
            comm = Communicator.world(ctx)
            req = comm.Recv_init(ctx.device.zeros(4), source=0)
            try:
                req.wait()
            except MPICommError:
                return "rejected"

        assert spmd(thetagpu1, body, nranks=1)[0] == "rejected"

    def test_active_flag(self, thetagpu1, spmd):
        def body(ctx):
            comm = Communicator.world(ctx)
            if ctx.rank == 0:
                comm.Send(ctx.device.zeros(4), 1, tag=9)
                return None
            req = comm.Recv_init(ctx.device.zeros(4), source=0, tag=9)
            before = req.active
            req.Start()
            req.wait()
            after = req.active
            return (before, after)

        assert spmd(thetagpu1, body, nranks=2)[1] == (False, False)


#: the collectives with more than one spelling: blocking method name ->
#: ``(send, recv, n) -> (args, kwargs)`` of that one call
CALLS = {
    "Barrier": lambda s, r, n: ((), {}),
    "Bcast": lambda s, r, n: ((r, 1), {"count": n}),
    "Reduce": lambda s, r, n: ((s, r, SUM, 1), {"count": n}),
    "Allreduce": lambda s, r, n: ((s, r), {"count": n}),
    "Allgather": lambda s, r, n: ((s, r), {"count": n}),
    "Alltoall": lambda s, r, n: ((s, r), {"count": n}),
    "Reduce_scatter_block": lambda s, r, n: ((s, r), {"count": n}),
}
def _blocking(method, args, kwargs):
    return lambda: method(*args, **kwargs)


def _persistent(method, args, kwargs):
    req = method(*args, **kwargs)       # init once, Start every time
    return lambda: req.Start().wait()


def _nonblocking(method, args, kwargs):
    return lambda: method(*args, **kwargs).wait()


#: spelling -> (its method name, ``(method, args, kwargs) -> callable
#: that runs the collective once``)
SPELLINGS = {
    "blocking": (lambda name: name, _blocking),
    "persistent": (lambda name: name + "_init", _persistent),
    "nonblocking": (lambda name: "I" + name.lower(), _nonblocking),
}
TWINS = [(name, spelling) for name in CALLS
         for spelling in ("persistent", "nonblocking")
         if hasattr(Communicator, SPELLINGS[spelling][0](name))]


def _spelled(mpx, name, spelling):
    """``[(payload, clock)]`` after each of four calls of one collective
    (two sizes, either side of the hybrid crossover, twice each)."""
    comm = mpx.COMM_WORLD
    method, prepare = SPELLINGS[spelling]
    log = []
    for n in (64, 1 << 16):
        send = mpx.device_array(n * comm.size, fill=float(mpx.rank + 1))
        recv = mpx.device_array(n * comm.size, fill=0.0)
        once = prepare(getattr(comm, method(name)), *CALLS[name](send, recv, n))
        for _ in range(2):
            once()
            log.append((recv.array.tobytes(), mpx.now))
    return log


class TestThreeSpellingsOneCall:
    def test_every_twin_is_covered(self):
        assert len(TWINS) == 7 + 4

    @pytest.mark.parametrize("mode", ["pure_mpi", "pure_xccl", "hybrid"])
    @pytest.mark.parametrize("name,spelling", TWINS)
    def test_payloads_and_clocks_equal_blocking(self, name, spelling, mode):
        """``X_init().Start()`` and ``IX`` are ``X``: same payloads and
        the same per-rank virtual clocks, to the bit, on every route."""
        def run(how):
            return runtime.run(_spelled, system="thetagpu", nodes=1,
                               ranks_per_node=4, mode=mode, name=name,
                               spelling=how)

        assert run(spelling) == run("blocking")
