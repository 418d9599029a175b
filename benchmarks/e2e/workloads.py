"""The six workloads, as data, and the rank programs that run them.

Every workload is a closed loop: each simulated rank issues its next
MPI call when the previous one returns.  An *op* is one MPI call
completed by the whole job (one ``Allreduce`` on 64 ranks is 1 op; one
``Send``/``Recv`` pair is 2 ops).

``--seed`` draws the payload pattern, the root of every rooted call and
the order of calls inside an iteration — identically on every rank.
The batch program is the same for every batch of a run, so batches are
comparable and the warm-up batch is the first batch.

Payloads are small exact integers in float32 (pattern value 1..7 times
``rank + 1``), so every reduction is exact in any order and the numpy
oracle is a closed form: no per-op random fill is paid inside the timed
window.  Timed batches poison and compare the first and last element of
every result; the untimed verify batch poisons and compares whole
buffers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

KIB = 1024
MIB = 1024 * KIB
F32 = 4  # bytes per element; every payload is float32

#: collectives that take a root
ROOTED = ("bcast", "reduce")


@dataclass(frozen=True)
class Workload:
    """One workload.  ``calls`` is one iteration: ``(op, elements)``
    pairs — elements per rank for allreduce/bcast/reduce/allgather, per
    peer for alltoall/reduce_scatter_block; for ``p2p`` it is the step
    mix ``("pingpong", elements) / ("window", elements)``."""

    name: str
    why: str
    kind: str                      # "coll" | "p2p" | "experiment"
    nodes: int = 1
    ranks_per_node: Optional[int] = None
    env: Tuple[Tuple[str, str], ...] = ()
    calls: Tuple[Tuple[str, int], ...] = ()
    iters_per_batch: int = 1
    #: also measure the program's own tracing (``runtime.run(trace=True)``)
    product_trace: bool = False

    @property
    def nranks(self) -> int:
        return self.nodes * (self.ranks_per_node or 8)


WINDOW = 32  # messages in flight per p2p window

WORKLOADS = {w.name: w for w in (
    Workload(
        "small_8",
        "paper's small-message regime: table routes to MPI, payload work is "
        "nil, plans always hot; host time is dispatch+coll+p2p+mailbox+sched",
        "coll", nodes=1,
        calls=(("allreduce", 256), ("bcast", 256), ("reduce", 256),
               ("allgather", 256), ("alltoall", 256)),
        iters_per_batch=20, product_trace=True),
    Workload(
        "large_8",
        "above the crossover: xCCL route, zero-copy hand-off and numpy "
        "reduce/copy do the work, one dispatch decision per 8 MiB",
        "coll", nodes=1,
        calls=(("allreduce", 8 * MIB // F32), ("bcast", 8 * MIB // F32),
               ("allgather", MIB // F32), ("reduce_scatter_block", MIB // F32),
               ("alltoall", MIB // F32)),
        iters_per_batch=5),
    Workload(
        "multinode_64",
        "only workload with contended fabric wires, multi-node algorithms "
        "and 64 rank threads on few cores; virtual time not reproducible yet",
        "coll", nodes=8,
        calls=(("allreduce", 4), ("barrier", 0)) * 4
        + (("allreduce", 4 * MIB // F32),) * 2
        + (("alltoall", 16 * KIB // F32), ("allgather", 16 * KIB // F32)),
        iters_per_batch=1),
    Workload(
        "scale_512",
        "per-rank costs x 512 with no payload: scheduler hand-off, slot "
        "rendezvous, book_many; run cooperatively as the README tells users",
        "coll", nodes=4, ranks_per_node=128,
        env=(("MPIX_COOP_SCHED", "1"),),
        calls=(("allreduce", 4), ("barrier", 0)),
        iters_per_batch=1),
    Workload(
        "p2p_2",
        "mailbox, wire and p2p used the other way: tag-matched single "
        "post/match, 32 messages in flight, rendezvous CTS, no dispatch",
        "p2p", nodes=2, ranks_per_node=1,
        calls=(("pingpong", KIB // F32),) * 200
        + (("window", MIB // F32),) * 4,
        iters_per_batch=2),
    Workload(
        "fig5_sweep",
        "the real traffic: dozens of short-lived engines, five stacks, cold "
        "plan caches and fresh tuning tables; set-up-bound; paper anchors",
        "experiment"),
)}


def ops_of(step):
    """Ops one program step completes."""
    op = step[0]
    if op == "pingpong":
        return 4                       # two Send/Recv pairs
    if op == "window":
        return 2 * WINDOW + 2          # 32 pairs plus the ack pair
    return 1


def make_program(wl, seed):
    """One batch of ``(op, elements, root)`` steps, drawn from ``seed``."""
    rng = random.Random(f"{wl.name}:{seed}")
    program = []
    for _ in range(wl.iters_per_batch):
        calls = list(wl.calls)
        rng.shuffle(calls)
        for op, n in calls:
            root = rng.randrange(wl.nranks) if op in ROOTED else 0
            program.append((op, n, root))
    return program


def make_pattern(wl, seed):
    """Read-only float32 pattern shared by every rank's oracle."""
    need = 2
    for op, n in wl.calls:
        per_peer = op in ("alltoall", "reduce_scatter_block")
        need = max(need, n * wl.nranks if per_peer else n)
    rng = np.random.default_rng(seed)
    pat = rng.integers(1, 8, size=need).astype(np.float32)
    pat.flags.writeable = False
    return pat


def payload_mb_per_op(wl):
    """Computed MiB delivered into receive buffers per op, summed over
    ranks (from array sizes; cache misses and staging ignored)."""
    p = wl.nranks
    total = ops = 0
    for op, n in wl.calls:
        ops += ops_of((op,))
        if op in ("allreduce", "bcast"):
            total += p * n
        elif op in ("reduce", "pingpong"):
            total += n * (2 if op == "pingpong" else 1)
        elif op in ("allgather", "alltoall"):
            total += p * p * n
        elif op == "reduce_scatter_block":
            total += p * n
        elif op == "window":
            total += WINDOW * n + 1
    return total * F32 / MIB / ops if ops else None


def stamp_of(k):
    """Per-step marker written into a payload; exact in float32."""
    return float(k % 4096 + 1)


class CollRank:
    """One rank's buffers, calls and oracle for a ``coll`` workload."""

    def __init__(self, mpx, program, pat):
        self.mpx = mpx
        self.comm = mpx.COMM_WORLD
        self.rank = self.comm.rank
        self.size = self.comm.size
        self.program = program
        self.pat = pat
        self.weight = float(self.size * (self.size + 1) // 2)
        self._send = {}
        self._recv = {}
        self._bcast = {}
        for op, n, _root in program:  # allocate during set-up, not in a batch
            getattr(self, "_buffers_" + op)(n)

    def send(self, length):
        buf = self._send.get(length)
        if buf is None:
            buf = self._send[length] = self.mpx.device_array(length)
            buf.array[...] = self.pat[:length] * (self.rank + 1)
        return buf

    def recv(self, length):
        buf = self._recv.get(length)
        if buf is None:
            buf = self._recv[length] = self.mpx.device_array(length, fill=-1)
        return buf

    def _buffers_barrier(self, n):
        pass

    def _buffers_allreduce(self, n):
        return self.send(n), self.recv(n)

    _buffers_reduce = _buffers_allreduce

    def _buffers_bcast(self, n):
        buf = self._bcast.get(n)
        if buf is None:
            buf = self._bcast[n] = self.mpx.device_array(n, fill=-1)
        return buf

    def _buffers_allgather(self, n):
        return self.send(n), self.recv(n * self.size)

    def _buffers_alltoall(self, n):
        return self.send(n * self.size), self.recv(n * self.size)

    def _buffers_reduce_scatter_block(self, n):
        return self.send(n * self.size), self.recv(n)

    @staticmethod
    def _poison(arr, full):
        if full:
            arr.fill(-1)
        else:
            arr[0] = arr[-1] = -1

    @staticmethod
    def _same(arr, expected, full):
        if full:
            return bool(np.array_equal(arr, expected))
        return bool(arr[0] == expected[0] and arr[-1] == expected[-1])

    def run_batch(self, full):
        """Run the batch program; returns the indices of failed steps."""
        bad = []
        for k, (op, n, root) in enumerate(self.program):
            if not getattr(self, "_do_" + op)(n, root, k, full):
                bad.append(k)
        return bad

    def _do_barrier(self, n, root, k, full):
        self.comm.Barrier()
        return True

    def _reduced(self, lo, n, full):
        # O(n) only in the verify batch; two elements otherwise
        src = self.pat[lo:lo + n]
        return src * self.weight if full else \
            (src[0] * self.weight, src[-1] * self.weight)

    def _do_allreduce(self, n, root, k, full):
        send, recv = self._buffers_allreduce(n)
        self._poison(recv.array, full)
        self.comm.Allreduce(send, recv)
        return self._same(recv.array, self._reduced(0, n, full), full)

    def _do_reduce(self, n, root, k, full):
        send, recv = self._buffers_reduce(n)
        self._poison(recv.array, full)
        self.comm.Reduce(send, recv, root=root)
        return self.rank != root or \
            self._same(recv.array, self._reduced(0, n, full), full)

    def _do_bcast(self, n, root, k, full):
        arr = self._buffers_bcast(n).array
        stamp = stamp_of(k)
        if self.rank == root:
            if full:
                arr[...] = self.pat[:n] * (root + 1)
            arr[0], arr[-1] = stamp, stamp + 0.5
        else:
            self._poison(arr, full)
        self.comm.Bcast(self._bcast[n], root=root)
        if not full:
            return bool(arr[0] == stamp and arr[-1] == stamp + 0.5)
        expected = self.pat[:n] * (root + 1)
        expected[0], expected[-1] = stamp, stamp + 0.5
        return bool(np.array_equal(arr, expected))

    def _gathered(self, lo, n, full):
        # block q of the result is pat[lo:lo+n] * (q + 1)
        src = self.pat[lo:lo + n]
        if full:
            scale = np.arange(1, self.size + 1, dtype=np.float32)
            return np.outer(scale, src).ravel()
        return src[0], src[-1] * self.size

    def _do_allgather(self, n, root, k, full):
        send, recv = self._buffers_allgather(n)
        self._poison(recv.array, full)
        self.comm.Allgather(send, recv)
        return self._same(recv.array, self._gathered(0, n, full), full)

    def _do_alltoall(self, n, root, k, full):
        send, recv = self._buffers_alltoall(n)
        self._poison(recv.array, full)
        self.comm.Alltoall(send, recv)
        return self._same(recv.array,
                          self._gathered(self.rank * n, n, full), full)

    def _do_reduce_scatter_block(self, n, root, k, full):
        send, recv = self._buffers_reduce_scatter_block(n)
        self._poison(recv.array, full)
        self.comm.Reduce_scatter_block(send, recv)
        return self._same(recv.array,
                          self._reduced(self.rank * n, n, full), full)


class P2PRank:
    """One of the two ranks of ``p2p_2``: eager ping-pongs and windows
    of non-blocking rendezvous sends, rank 0 -> rank 1, then an ack."""

    PING, BULK, ACK = 1, 2, 3

    def __init__(self, mpx, program, pat):
        self.comm = mpx.COMM_WORLD
        self.rank = self.comm.rank
        self.peer = 1 - self.rank
        self.program = program
        self.pat = pat
        self.small = {}
        self.big = {}
        self.ack = mpx.device_array(1, fill=1)
        for op, n, _root in program:
            if op == "pingpong" and n not in self.small:
                send = mpx.device_array(n)
                send.array[...] = pat[:n] * (self.rank + 1)
                self.small[n] = (send, mpx.device_array(n, fill=-1))
            elif op == "window" and n not in self.big:
                bufs = [mpx.device_array(n, fill=-1) for _ in range(WINDOW)]
                if self.rank == 0:
                    for i, buf in enumerate(bufs):
                        buf.array[...] = pat[:n] + i
                self.big[n] = bufs

    def run_batch(self, full):
        bad = []
        for k, (op, n, _root) in enumerate(self.program):
            if not getattr(self, "_do_" + op)(n, k, full):
                bad.append(k)
        return bad

    def _check_small(self, arr, n, stamp, sender, full):
        if not full:
            return bool(arr[0] == stamp
                        and arr[-1] == self.pat[n - 1] * (sender + 1))
        expected = self.pat[:n] * (sender + 1)
        expected[0] = stamp
        return bool(np.array_equal(arr, expected))

    def _do_pingpong(self, n, k, full):
        comm, peer = self.comm, self.peer
        send, recv = self.small[n]
        stamp = stamp_of(k)
        send.array[0] = stamp
        CollRank._poison(recv.array, full)
        if self.rank == 0:
            comm.Send(send, peer, tag=self.PING)
            comm.Recv(recv, peer, tag=self.PING)
        else:
            comm.Recv(recv, peer, tag=self.PING)
            comm.Send(send, peer, tag=self.PING)
        return self._check_small(recv.array, n, stamp, peer, full)

    def _do_window(self, n, k, full):
        comm, peer = self.comm, self.peer
        bufs = self.big[n]
        stamp = stamp_of(k)
        if self.rank == 0:
            for i, buf in enumerate(bufs):
                buf.array[0] = stamp + i
            for req in [comm.Isend(buf, peer, tag=self.BULK) for buf in bufs]:
                req.wait()
            comm.Recv(self.ack, peer, tag=self.ACK)
            return True
        for buf in bufs:
            CollRank._poison(buf.array, full)
        for req in [comm.Irecv(buf, peer, tag=self.BULK) for buf in bufs]:
            req.wait()
        ok = True
        for i, buf in enumerate(bufs):
            arr = buf.array
            if full:
                expected = self.pat[:n] + i
                expected[0] = stamp + i
                ok = ok and bool(np.array_equal(arr, expected))
            else:
                ok = ok and bool(arr[0] == stamp + i
                                 and arr[-1] == self.pat[n - 1] + i)
        comm.Send(self.ack, peer, tag=self.ACK)
        return ok


RANK_PROGRAMS = {"coll": CollRank, "p2p": P2PRank}
