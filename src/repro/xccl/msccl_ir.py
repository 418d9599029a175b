"""MSCCL-IR: executable custom collective schedules.

MSCCL's real differentiator isn't a speedup table — it is that users
*write algorithms* (MSCCL-IR XML, compiled from the MSCCLang DSL) and
the runtime executes them.  This module makes that concrete: a schedule
is a per-rank list of steps over chunked buffers —

* ``send``  — ship a local chunk to a peer,
* ``recv``  — receive into a chunk slot,
* ``recv_reduce`` — receive and elementwise-reduce into a chunk,
* ``copy``  — move a chunk locally,

executed through the unified group-call machinery, so a hand-written
algorithm contends on the same wires, pays the same launch overheads,
and produces real data.  An allpairs allreduce generator is included
(one of the schedules Microsoft ships for small/medium sizes); tests
validate interpreted schedules against the built-in collectives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple


from repro.errors import CCLInvalidUsage
from repro.hw.memory import as_array, copy_payload
from repro.mpi.datatypes import Datatype
from repro.mpi.ops import Op, SUM
from repro.xccl import api as xapi
from repro.xccl.comm import XCCLComm


@dataclass(frozen=True)
class Step:
    """One instruction of one rank's schedule.

    Attributes:
        kind: ``"send" | "recv" | "recv_reduce" | "copy"``.
        peer: partner rank (ignored for ``copy``).
        src_chunk / dst_chunk: chunk indices (``send`` uses src,
            ``recv``/``recv_reduce`` use dst, ``copy`` uses both).
        phase: steps with the same phase number are fused into one
            group call (concurrent on the wire).
    """

    kind: str
    peer: int = -1
    src_chunk: int = 0
    dst_chunk: int = 0
    phase: int = 0


@dataclass
class Schedule:
    """A complete custom collective: per-rank step lists.

    ``nchunks`` partitions the buffer; correctness contract is defined
    by the generator (e.g. allpairs allreduce leaves the full reduction
    in every chunk of every rank).
    """

    name: str
    collective: str
    nranks: int
    nchunks: int
    steps: Dict[int, List[Step]] = field(default_factory=dict)

    def validate(self) -> None:
        """Structural checks: peers in range, chunks in range, and
        send/recv phase pairing is symmetric."""
        sends: Dict[Tuple[int, int, int], int] = {}
        recvs: Dict[Tuple[int, int, int], int] = {}
        for rank, steps in self.steps.items():
            if not 0 <= rank < self.nranks:
                raise CCLInvalidUsage(f"{self.name}: rank {rank} out of range")
            for s in steps:
                if s.kind not in ("send", "recv", "recv_reduce", "copy"):
                    raise CCLInvalidUsage(f"{self.name}: bad step kind {s.kind}")
                if s.kind != "copy" and not 0 <= s.peer < self.nranks:
                    raise CCLInvalidUsage(
                        f"{self.name}: rank {rank} step peers {s.peer}")
                for c in (s.src_chunk, s.dst_chunk):
                    if not 0 <= c < self.nchunks:
                        raise CCLInvalidUsage(
                            f"{self.name}: chunk {c} out of range")
                if s.kind == "send":
                    key = (rank, s.peer, s.phase)
                    sends[key] = sends.get(key, 0) + 1
                elif s.kind in ("recv", "recv_reduce"):
                    key = (s.peer, rank, s.phase)
                    recvs[key] = recvs.get(key, 0) + 1
        if sends != recvs:
            missing = set(sends.items()) ^ set(recvs.items())
            raise CCLInvalidUsage(
                f"{self.name}: unmatched send/recv pairs: {sorted(missing)[:4]}")

    def phases(self, rank: int) -> List[int]:
        """Sorted distinct phases of one rank's schedule."""
        return sorted({s.phase for s in self.steps.get(rank, [])})


@xapi.aborts_group_on_error
def execute(schedule: Schedule, comm: XCCLComm, buf, count: int,
            dt: Datatype, op: Op = SUM) -> None:
    """Run ``schedule`` on this rank over ``buf`` (count elements).

    ``buf`` is chunked evenly (count must divide by nchunks); scratch
    space for in-flight receives is allocated per chunk.
    """
    if comm.size != schedule.nranks:
        raise CCLInvalidUsage(
            f"{schedule.name} compiled for {schedule.nranks} ranks, "
            f"communicator has {comm.size}")
    if count % schedule.nchunks:
        raise CCLInvalidUsage(
            f"count {count} not divisible into {schedule.nchunks} chunks")
    chunk = count // schedule.nchunks
    arr = as_array(buf)
    rank = comm.rank
    max_recvs = max((sum(1 for s in steps
                         if s.kind in ("recv", "recv_reduce"))
                     for steps in [schedule.steps.get(rank, [])]), default=0)
    scratch = comm.ctx.device.zeros(max(max_recvs, 1) * chunk, dtype=arr.dtype)
    sarr = scratch.array

    def chunk_view(base, index):
        return base[index * chunk:(index + 1) * chunk]

    my_steps = schedule.steps.get(rank, [])
    for phase in schedule.phases(rank):
        batch = [s for s in my_steps if s.phase == phase]
        xapi.xcclGroupStart()
        recv_targets: List[Tuple[Step, int]] = []
        slot = 0
        for s in batch:
            if s.kind == "send":
                xapi.xcclSend(buf.view(s.src_chunk * chunk, chunk)
                              if hasattr(buf, "view")
                              else chunk_view(arr, s.src_chunk),
                              chunk, dt, s.peer, comm)
            elif s.kind in ("recv", "recv_reduce"):
                # one scratch slot per in-flight receive: concurrent
                # receives reducing into the same chunk must not clobber
                # each other before the reduction applies
                xapi.xcclRecv(scratch.view(slot * chunk, chunk),
                              chunk, dt, s.peer, comm)
                recv_targets.append((s, slot))
                slot += 1
            elif s.kind == "copy":
                copy_payload(chunk_view(arr, s.dst_chunk),
                             chunk_view(arr, s.src_chunk))
        xapi.xcclGroupEnd()
        for s, slot_i in recv_targets:
            dst = chunk_view(arr, s.dst_chunk)
            src = chunk_view(sarr, slot_i)
            if s.kind == "recv":
                copy_payload(dst, src)
            else:
                op.reduce_into(dst, src)
    xapi.xcclStreamSynchronize(comm)


def allpairs_allreduce(nranks: int) -> Schedule:
    """The allpairs allreduce schedule (MSCCL's small/medium-size
    winner): chunk the buffer per rank; phase 0 scatters every rank's
    chunk contributions directly (all pairs at once); phase 1 gathers
    the reduced chunks back — 2 phases total instead of 2(p-1) ring
    steps.
    """
    sched = Schedule("allpairs_allreduce", "allreduce", nranks, nranks)
    for r in range(nranks):
        steps: List[Step] = []
        # phase 0: send chunk d to rank d; receive+reduce my chunk from all
        for peer in range(nranks):
            if peer == r:
                continue
            steps.append(Step("send", peer=peer, src_chunk=peer, phase=0))
            steps.append(Step("recv_reduce", peer=peer, dst_chunk=r, phase=0))
        # phase 1: broadcast my reduced chunk; receive everyone else's
        for peer in range(nranks):
            if peer == r:
                continue
            steps.append(Step("send", peer=peer, src_chunk=r, phase=1))
            steps.append(Step("recv", peer=peer, dst_chunk=peer, phase=1))
        sched.steps[r] = steps
    sched.validate()
    return sched


def ring_allreduce(nranks: int) -> Schedule:
    """A ring allreduce as an MSCCL-IR schedule (the pedagogical
    counterpart: same result, 2(p-1) phases)."""
    p = nranks
    sched = Schedule("ring_allreduce", "allreduce", p, p)
    for r in range(p):
        steps: List[Step] = []
        right = (r + 1) % p
        left = (r - 1) % p
        # reduce-scatter phases
        for step_i in range(p - 1):
            send_chunk = (r - step_i) % p
            recv_chunk = (r - step_i - 1) % p
            steps.append(Step("send", peer=right, src_chunk=send_chunk,
                              phase=step_i))
            steps.append(Step("recv_reduce", peer=left, dst_chunk=recv_chunk,
                              phase=step_i))
        # allgather phases
        for step_i in range(p - 1):
            send_chunk = (r + 1 - step_i) % p
            recv_chunk = (r - step_i) % p
            steps.append(Step("send", peer=right, src_chunk=send_chunk,
                              phase=p - 1 + step_i))
            steps.append(Step("recv", peer=left, dst_chunk=recv_chunk,
                              phase=p - 1 + step_i))
        sched.steps[r] = steps
    sched.validate()
    return sched
