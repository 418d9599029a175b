"""Fused group transport: bit-identity, ordering, counters, smoke.

Batching a group call may only change how fast the simulator runs —
never what it computes.  These tests pin that contract for every
send-recv collective on every CCL stack: payload bytes AND virtual
clocks are bit-identical to what one mailbox round trip per message
gave (the frozen fusion-off arm, ``tests/frozen_reference.py``, a
case of ``tests/test_conformance.py``), group
flushes keep per-(src, tag) FIFO order, and the fused paths actually
engage (counters > 0) so a silent fallback cannot masquerade as a pass.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import fastpath
from repro.core import runtime
from tests.test_conformance import STACKS, conforms

@pytest.mark.parametrize("stack", list(STACKS))
def test_bit_identical_fusion_on_vs_off(stack):
    """The fused transport reproduces the frozen message-by-message
    arm, and engaged."""
    stats = conforms(f"group_fusion:{stack}").counters
    # the fused transport must actually have engaged
    assert stats["fusion_flushes"] > 0
    assert stats["fusion_exchanges"] > 0
    assert stats["fusion_msgs"] > 0


def test_group_flush_preserves_pair_fifo():
    """Several sends to the same peer inside one group arrive in
    program order on both transports: MPI non-overtaking survives the
    whole-group rendezvous (hinted group) and the bulk ``post_many``
    (plain ``ncclGroupStart``)."""
    from repro.xccl.api import (
        xcclGroupEnd,
        xcclGroupStart,
        xcclRecv,
        xcclSend,
        xcclStreamSynchronize,
    )
    from repro.mpi.datatypes import FLOAT

    def body_for(hinted):
        def body(mpx):
            comm = mpx.COMM_WORLD
            ctx = comm.ctx
            xc = comm.coll.layer.ccl_comm(comm)
            peer = (comm.rank + 1) % comm.size
            src = (comm.rank - 1) % comm.size
            outs = [ctx.device.zeros(4, dtype=np.float32) for _ in range(3)]
            ins_ = [ctx.device.zeros(4, dtype=np.float32) for _ in range(3)]
            for i, o in enumerate(outs):
                o.array[:] = 10 * comm.rank + i
            xcclGroupStart(xc if hinted else None)
            for i in range(3):
                xcclSend(outs[i], 4, FLOAT, peer, xc)
                xcclRecv(ins_[i], 4, FLOAT, src, xc)
            xcclGroupEnd()
            xcclStreamSynchronize(xc)
            return [float(b.array[0]) for b in ins_]
        return body

    for hinted in (True, False):
        fastpath.STATS.reset()
        got = runtime.run(body_for(hinted), system="thetagpu", nodes=1,
                          ranks_per_node=4, mode="pure_xccl")
        assert (fastpath.STATS.snapshot()["fusion_exchanges"] > 0) == hinted
        for rank, vals in enumerate(got):
            src = (rank - 1) % 4
            assert vals == [10.0 * src, 10.0 * src + 1, 10.0 * src + 2], \
                f"hinted={hinted}: rank {rank} recvs out of order: {vals}"


def test_rooted_groups_do_not_rendezvous():
    """Gather uses the bulk path, not the whole-group rendezvous — leaf
    ranks must not be barriered behind the root's matching."""
    def body(mpx):
        comm = mpx.COMM_WORLD
        ctx = comm.ctx
        s = ctx.device.zeros(4, dtype=np.float32)
        s.array[:] = comm.rank
        r = ctx.device.zeros(4 * comm.size, dtype=np.float32)
        comm.Gather(s, r, root=0, count=4)
        return True

    fastpath.STATS.reset()
    assert all(runtime.run(body, system="thetagpu", nodes=1,
                           ranks_per_node=4, mode="pure_xccl"))
    stats = fastpath.STATS.snapshot()
    assert stats["fusion_flushes"] > 0      # bulk transport engaged
    assert stats["fusion_exchanges"] == 0   # but no whole-group slot


def test_fusion_smoke_benchmark_round():
    """One benchmark-shaped round (tier-1-safe): a tight 8-rank uneven
    alltoallv loop runs fused end to end with exchanges > 0 and no
    fallback, so the fused path cannot silently regress."""
    iters, count = 40, 64

    def body(mpx):
        comm = mpx.COMM_WORLD
        ctx = comm.ctx
        p, r = comm.size, comm.rank
        sc = [((r + j) % 3 + 1) * count for j in range(p)]  # 1..3 blocks
        rc = [((i + r) % 3 + 1) * count for i in range(p)]
        sd = [sum(sc[:j]) for j in range(p)]
        rd = [sum(rc[:j]) for j in range(p)]
        send = ctx.device.zeros(sum(sc), dtype=np.float32)
        recv = ctx.device.zeros(sum(rc), dtype=np.float32)
        send.array[:] = r + 1
        for _ in range(iters):
            comm.Alltoallv(send, sc, recv, rc, sd, rd)
        return recv.array.copy()

    fastpath.STATS.reset()
    results = runtime.run(body, system="thetagpu", nodes=1,
                          ranks_per_node=8, mode="pure_xccl")
    stats = fastpath.STATS.snapshot()
    for r, got in enumerate(results):
        expect = np.concatenate([
            np.full(((i + r) % 3 + 1) * count, i + 1, dtype=np.float32)
            for i in range(8)])
        assert (got == expect).all(), f"rank {r} received wrong blocks"
    assert stats["fusion_exchanges"] == iters * 8
    assert stats["fusion_fallbacks"] == 0
    assert stats["fusion_msgs"] >= stats["fusion_flushes"]
