"""Point-to-point protocols through the communicator."""

import numpy as np
import pytest

from repro.errors import MPIRankError, MPITruncateError, RankFailedError
from repro.mpi import FLOAT, Communicator
from repro.mpi.communicator import ANY_SOURCE, ANY_TAG
from repro.mpi.config import host_staged, mvapich_gpu
from repro.mpi.request import waitall


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

    def test_invalid_rank(self, thetagpu1, spmd):
        def body(ctx):
            world(ctx).Send(ctx.device.zeros(1), 5)

        with pytest.raises(RankFailedError) as exc_info:
            spmd(thetagpu1, body, nranks=2)
        assert isinstance(exc_info.value.failures[0], MPIRankError)

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
        t_staged = Engine(thetagpu1, nranks=2).run(body, host_staged())[0]
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
