"""The CCL rendezvous: the last member to arrive finishes it.

A fused built-in (§3.2) and a hinted group exchange (§3.3) are one
engine rendezvous each.  The member that computes the call runs every
member's copy-out while the others are parked in the rendezvous, then
lets them go in a fixed order (``CollectiveSlot``), so each member
parks once a call.  Bytes, clocks and every counter but the two
scheduling ones are those recorded when each member copied out on its
own thread and waited at an exit barrier, on one node and on two, and a
copy-out that fails fails the call on every member.
"""

import hashlib

import numpy as np
import pytest

from repro import fastpath
from repro.core.dispatch import DispatchMode
from repro.core.runtime import world_communicator
from repro.errors import InvalidBufferError, RankFailedError
from repro.hw.memory import NO_CONTENTS, DeviceBuffer, storage_free
from repro.hw.systems import make_system
from repro.mpi import SUM
from repro.mpi.communicator import IN_PLACE
from repro.sim.engine import Engine

#: the counters that count how the host scheduled the ranks
SCHEDULING = ("coop_parks", "coop_switches")

#: the 8-rank engines the rendezvous run on: (system, nodes)
SHAPES = {"thetagpu-1x8": ("thetagpu", 1), "voyager-1x8": ("voyager", 1),
          "thetagpu-2x4": ("thetagpu", 2)}

#: :func:`_record` of :func:`_every_rendezvous` per shape and payload
#: arm, recorded with each member's copy-out run on its own thread
#: behind an exit barrier (every member but one parked twice a call)
FROZEN = {
    ("thetagpu-1x8", "real"):
        "34349d1d63d35e03f05b59af619308b4500968d1",
    ("thetagpu-1x8", "storage-free"):
        "184e86168d671532826ba45e284032b1997826db",
    ("voyager-1x8", "real"):
        "126ff8b4b04f09702fec4f6b39d629cc7f92dfc4",
    ("voyager-1x8", "storage-free"):
        "f2262500f404c134b09e714475412774592502c8",
    ("thetagpu-2x4", "real"):
        "60a8fc38b71a5664400e386ab33491c550d902b8",
    ("thetagpu-2x4", "storage-free"):
        "0e7c0ec89523a33727baf891d3ace161519a1667",
}


def _digest(buf):
    arr = buf.array
    return hashlib.sha1(arr.tobytes()).hexdigest() if arr.strides[0] else None


def _every_rendezvous(ctx):
    """The five fused built-ins, ``Alltoall(v)`` and ``Allgatherv`` on
    the CCL, out of place, in place and with an aliased ``Allgatherv``
    send window; logs each call's receive digest and clock."""
    comm = world_communicator(ctx, mode=DispatchMode.PURE_XCCL)
    p, r = comm.Get_size(), comm.Get_rank()
    dev = ctx.device
    log = []

    def note(buf):
        log.append((_digest(buf), ctx.now))

    n = 1 << 10
    send = dev.empty(n * p)
    send.array[:] = np.arange(n * p) % 97 + r
    recv = dev.zeros(n * p)
    comm.Allreduce(send, recv, op=SUM)
    note(recv)
    comm.Allreduce(IN_PLACE, recv, op=SUM)
    note(recv)
    comm.Bcast(recv, root=p - 1)
    note(recv)
    root = 2
    comm.Reduce(IN_PLACE if r == root else send, recv, op=SUM, root=root)
    note(recv)
    comm.Reduce(send, recv, op=SUM, root=p - 1)
    note(recv)
    comm.Allgather(send.view(0, n), recv, count=n)
    note(recv)
    comm.Allgather(IN_PLACE, recv, count=n)
    note(recv)
    block = dev.zeros(n)
    comm.Reduce_scatter_block(send, block, op=SUM)
    note(block)
    comm.Alltoall(send, recv, count=n)
    note(recv)
    counts = [(r + 2 * j) % 3 * 64 for j in range(p)]
    rcounts = [(i + 2 * r) % 3 * 64 for i in range(p)]
    comm.Alltoallv(send, counts, recv, rcounts)
    note(recv)
    counts = [i % 3 * 64 + 32 for i in range(p)]
    displs = [sum(counts[:i]) for i in range(p)]
    whole = dev.zeros(sum(counts))
    whole.array[displs[r]:displs[r] + counts[r]] = r + 0.5
    comm.Allgatherv(IN_PLACE, whole, counts, displs)
    note(whole)
    whole.array[displs[r]:displs[r] + counts[r]] = r + 1.5
    comm.Allgatherv(whole.view(displs[r], counts[r]), whole, counts, displs)
    note(whole)
    return log


def _engine(shape, payloads=True, **options):
    system, nodes = SHAPES[shape]
    return Engine(make_system(system, nodes, payloads=payloads), nranks=8,
                  ranks_per_node=8 // nodes, **options)


def _record(shape, payloads):
    """One digest of every rank's log and every non-zero counter but the
    scheduling ones."""
    logs = _engine(shape, payloads).run(_every_rendezvous)
    counters = {k: v for k, v in sorted(fastpath.STATS.snapshot().items())
                if v and k not in SCHEDULING}
    if payloads:
        assert any(digest for digest, _ in logs[0])
    return hashlib.sha1(repr((logs, counters)).encode()).hexdigest()


@pytest.mark.parametrize("payloads", [True, False], ids=["real", "storage-free"])
@pytest.mark.parametrize("shape", SHAPES)
def test_every_rendezvous_keeps_the_exit_barriers_record(shape, payloads):
    """Bytes, clocks and every counter but the two scheduling ones are
    those of the exit barrier, contended (two nodes) or not.  The order
    members leave in matters on two nodes: with the computing member
    going on first, both two-node records move."""
    arm = "real" if payloads else "storage-free"
    assert _record(shape, payloads) == FROZEN[shape, arm]


def _calls(kind, k):
    """``k`` CCL calls of one kind on 8 ranks."""
    def body(ctx):
        comm = world_communicator(ctx, mode=DispatchMode.PURE_XCCL)
        send, recv = ctx.device.zeros(8 * 64), ctx.device.zeros(8 * 64)
        for _ in range(k):
            if kind == "fused":
                comm.Allreduce(send, recv, op=SUM)
            else:
                comm.Alltoall(send, recv, count=64)
    return body


@pytest.mark.parametrize("shape", ["thetagpu-1x8", "thetagpu-2x4"])
@pytest.mark.parametrize("kind", ["fused", "group"])
def test_each_member_parks_once_a_call(kind, shape):
    """Each CCL call parks every member once: the computing member
    after the copy-outs, the others at the deposit (an exit barrier
    parked all but one twice: ``2 * (8 - 1)``)."""
    def parks(k):
        _engine(shape).run(_calls(kind, k))
        return fastpath.STATS.snapshot()["coop_parks"]

    assert parks(3) - parks(2) == 8


def _one_member_storage_free(call, member):
    """``call`` with one member's buffers storage-free and every other
    member's real, so some copy-out lands a storage-free payload in real
    memory: the root's contribution to a ``Bcast`` (``member`` is the
    root), rank 0's to a ``Reduce`` (rooted at ``member``, whose copy-out
    alone fails), ``member``'s block of an ``Allgather`` or ``Alltoall``
    (every other member's copy-out fails)."""
    def body(ctx):
        comm = world_communicator(ctx, mode=DispatchMode.PURE_XCCL)
        p, r = comm.Get_size(), comm.Get_rank()
        n = 1 << 10
        hollow = 0 if call == "reduce" else member

        def buf(count):
            if r == hollow:
                return DeviceBuffer(storage_free(count), ctx.device)
            out = ctx.device.empty(count)
            out.fill(float(r + 1))
            return out

        if call == "bcast":
            comm.Bcast(buf(n), root=member)
        elif call == "reduce":
            comm.Reduce(buf(n), buf(n), op=SUM, root=member)
        elif call == "allgather":
            comm.Allgather(buf(n), buf(n * p), count=n)
        else:
            comm.Alltoall(buf(n * p), buf(n * p), count=n)
    return body


@pytest.mark.parametrize("shape", ["thetagpu-1x8", "thetagpu-2x4"])
@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("member", [3, 5])
@pytest.mark.parametrize("call", ["bcast", "reduce", "allgather", "alltoall"])
def test_a_failed_copy_out_raises_on_every_member(call, member, trace, shape):
    """Whichever members' copy-outs fail, every member raises the
    lowest-ranked one's ``NO_CONTENTS`` — none returns, none is left
    waiting for the others to consume."""
    with pytest.raises(RankFailedError) as failed:
        _engine(shape, trace=trace).run(_one_member_storage_free(call, member))
    failures = failed.value.failures
    assert sorted(failures) == list(range(8))
    assert all(isinstance(exc, InvalidBufferError) and NO_CONTENTS in str(exc)
               for exc in failures.values())
    assert len({id(exc) for exc in failures.values()}) == 1
