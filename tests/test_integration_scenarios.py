"""Cross-layer integration scenarios (the workflows a user runs)."""

import json

import numpy as np
import pytest

from repro.core import run
from repro.mpi import FLOAT, SUM, vector
from repro.mpi.request import waitall


class TestMultiSystemPortability:
    @pytest.mark.parametrize("system,backend", [
        ("thetagpu", "nccl"), ("mri", "rccl"),
        ("voyager", "hccl"), ("aurora", "oneccl"),
    ])
    def test_same_program_every_vendor(self, system, backend):
        """The paper's core promise across all four ecosystems."""

        def body(mpx):
            comm = mpx.COMM_WORLD
            buf = mpx.device_array(4096, fill=float(mpx.rank + 1))
            out = mpx.device_array(4096)
            comm.Allreduce(buf, out, SUM)
            big = mpx.device_array(1 << 19, fill=1.0)
            comm.Bcast(big, root=0)
            return (mpx.layer.backend_name,
                    float(out.array[0]) == sum(r + 1 for r in range(mpx.size)))

        out = run(body, system=system, nodes=2)
        assert all(ok for _b, ok in out)
        assert out[0][0] == backend

    def test_inter_node_placement(self):
        """ppn=1 spreads ranks across nodes; hybrid still correct."""

        def body(mpx):
            buf = mpx.device_array(1 << 18, fill=2.0)
            out = mpx.device_array(1 << 18)
            mpx.COMM_WORLD.Allreduce(buf, out, SUM)
            return float(out.array[0])

        out = run(body, system="thetagpu", nodes=4, nranks=4,
                  ranks_per_node=1)
        assert out == [8.0] * 4


class TestMixedWorkflow:
    def test_split_p2p_collectives_interleave(self, thetagpu1):
        """Sub-communicators, world point-to-point left in flight, and
        hybrid collectives in one program — context isolation must hold
        throughout."""

        def body(mpx):
            comm = mpx.COMM_WORLD
            sub = mpx.attach(comm.Split(color=mpx.rank % 2, key=mpx.rank))
            contrib = mpx.device_array(4, dtype=np.float64,
                                       fill=float(mpx.rank))
            inbox = [mpx.device_array(4, dtype=np.float64)
                     for _ in range(mpx.size)]
            if mpx.rank == 0:
                reqs = [comm.Irecv(inbox[src], source=src, tag=7)
                        for src in range(1, mpx.size)]
            else:
                reqs = [comm.Isend(contrib, 0, tag=7)]
            # collective on the sub-communicator while world p2p is open
            s = mpx.device_array(1 << 16, fill=1.0)
            r = mpx.device_array(1 << 16)
            sub.Allreduce(s, r, SUM)
            waitall(reqs)
            total = mpx.device_array(4, dtype=np.float64)
            comm.Allreduce(contrib, total, SUM)
            return (float(r.array[0]), float(total.array[0]),
                    sum(float(b.array[0]) for b in inbox))

        out = run(body, system=thetagpu1)
        assert all(v[:2] == (4.0, sum(range(8))) for v in out)
        assert out[0][2] == sum(range(8))          # every send landed

    def test_derived_types_with_hybrid_runtime(self, thetagpu1):
        """Derived-type p2p rides the MPI path while collectives route
        through the CCL — both in one exchange."""

        def body(mpx):
            comm = mpx.COMM_WORLD
            col = vector(8, 1, 8, FLOAT)
            m = mpx.device_array(64)
            if mpx.rank == 0:
                m.array[:] = np.arange(64)
                comm.Send(m, 1, count=1, datatype=col)
            elif mpx.rank == 1:
                comm.Recv(m, source=0, count=1, datatype=col)
            big = mpx.device_array(1 << 18, fill=1.0)
            out = mpx.device_array(1 << 18)
            comm.Allreduce(big, out, SUM)
            column_ok = True
            if mpx.rank == 1:
                column_ok = bool(np.array_equal(
                    m.array.reshape(8, 8)[:, 0], np.arange(0, 64, 8)))
            return (column_ok, mpx.route_stats.xccl_calls >= 1)

        out = run(body, system=thetagpu1)
        assert all(a and b for a, b in out)

    def test_cart_grid_with_hybrid(self, thetagpu1):
        def body(mpx):
            comm = mpx.COMM_WORLD
            # a periodic 2 x 4 grid, row-major: shift along the rows
            row, col = divmod(mpx.rank, 4)
            right, left = row * 4 + (col + 1) % 4, row * 4 + (col - 1) % 4
            send = mpx.device_array(16, fill=float(mpx.rank))
            recv = mpx.device_array(16)
            comm.Sendrecv(send, right, recv, left)
            big = mpx.device_array(1 << 18, fill=1.0)
            out = mpx.device_array(1 << 18)
            comm.Allreduce(big, out, SUM)
            return recv.array[0], float(out.array[0])

        out = run(body, system=thetagpu1)
        # each rank receives from its left neighbour within its row,
        # wrapping periodically (rank 0's left neighbour is rank 3)
        assert out[1][0] == 0.0 and out[0][0] == 3.0
        assert all(total == 8.0 for _, total in out)

    def test_latency_monotone_across_stacks(self, thetagpu1):
        """Every stack's allreduce latency grows with message size."""
        from repro.omb.collective import osu_allreduce
        from repro.omb.harness import OMBConfig
        from repro.omb.stacks import make_stack
        from repro.sim.engine import Engine

        cfg = OMBConfig(sizes=(256, 65536, 1 << 20), warmup=1, iterations=2)
        for stack in ("hybrid", "mpi", "ccl", "ucc"):
            def body(ctx, stack=stack):
                return osu_allreduce(ctx, make_stack(ctx, stack), cfg)

            stats = Engine(thetagpu1, nranks=4).run(body)[0]
            lats = [stats[s].avg_us for s in cfg.sizes]
            assert lats[0] < lats[-1], stack


class TestTraceIntegration:
    def test_traced_hybrid_run_exports(self, thetagpu1, tmp_path):
        from repro.sim.timeline import chrome_trace

        def body(mpx):
            buf = mpx.device_array(1 << 16, fill=1.0)
            out = mpx.device_array(1 << 16)
            mpx.COMM_WORLD.Allreduce(buf, out, SUM)
            small = mpx.device_array(16, fill=1.0)
            mpx.COMM_WORLD.Allreduce(small, mpx.device_array(16), SUM)
            return mpx.ctx.trace

        traces = run(body, system=thetagpu1, trace=True)
        path = tmp_path / "run.json"
        path.write_text(json.dumps(chrome_trace(traces)))
        assert path.stat().st_size > 100
        # the hybrid run must show both p2p (MPI path) and CCL events
        kinds = {e.kind for t in traces for e in t.events}
        assert "send" in kinds or "recv" in kinds
