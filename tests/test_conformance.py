"""Conformance: every frozen program, on every arm, gives the frozen answer.

Every route — the §3.2 direct CCL mappings, the §3.3 send-recv groups,
the MPI fallback, the hierarchy (HIER) and the mixed-vendor bridge
(BRIDGE) — must give the same MPI answer.  :data:`PROGRAMS` holds one
entry per family of ``tests/frozen_reference.py`` (its rank program,
unchanged from the recording, and the shape of each frozen key); each
(key, :class:`Arm`) runs once per pytest run (:func:`summary`) and is held
to the frozen reference with ``==``, the frozen payloads to one oracle
per key (:func:`oracle`), and a storage-free arm to clocks and counters
only.  ``docs/CONFORMANCE.md`` has the rules and how a new route
registers; :func:`test_registration` fails while one has not.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import itertools
from collections import Counter, namedtuple
from typing import Callable, FrozenSet, Mapping, NamedTuple, Optional, Tuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import fastpath
from repro.core import runtime
from repro.core.dispatch import REGISTRY
from repro.core.fallback import Route
from repro.core.tuning_table import (TUNABLE_COLLECTIVES, TuningTable,
                                     site_table, with_route)
from repro.hw.memory import as_array
from repro.hw.systems import make_mixed_system, make_system
from repro.mpi import Communicator
from repro.mpi.coll import MPICollDispatcher, levels, replay
from repro.mpi.communicator import ANY_SOURCE, IN_PLACE
from repro.mpi.datatypes import FLOAT
from repro.mpi.ops import SUM
from repro.mpi.request import waitall
from repro.sim.engine import Engine, RankContext
from repro.sim.faults import FaultPlan, with_faults
from tests import frozen_reference
from tests.frozen_reference import FROZEN, OPTIONS
from tools.site_tables import HIER_FROM, bridge_table, hier_table

# -- the programs -------------------------------------------------------------
#
# Each body is the one its frozen values were recorded with (the hier and
# hetero bodies, alike but for size, seed and route counter, are one
# factory); the digests and clocks are functions of it, so an edit needs
# its entries re-recorded.

N = 13  # odd per-rank count exercises uneven chunk geometry


def _vec_geometry(p):
    counts = [r + 1 for r in range(p)]
    displs = [sum(counts[:r]) for r in range(p)]
    return counts, displs


def _twelve_collectives_body(mpx):
    """Run all 12 registry collectives once; record payload bytes and
    the virtual clock after each."""
    comm = mpx.COMM_WORLD
    ctx = comm.ctx
    p, rank = comm.size, comm.rank
    log = []

    def snap(buf):
        log.append((buf.array.tobytes(), ctx.now))

    base = np.arange(N * p, dtype=np.float32) + rank
    send = ctx.device.zeros(N * p, dtype=np.float32)
    send.array[:] = base
    recv = ctx.device.zeros(N * p, dtype=np.float32)

    comm.Allreduce(send.view(0, N), recv.view(0, N), SUM)
    snap(recv)
    comm.Bcast(recv.view(0, N), root=0)
    snap(recv)
    comm.Reduce(send.view(0, N), recv.view(0, N), SUM, 0)
    snap(recv)
    comm.Allgather(send.view(0, N), recv.view(0, N * p))
    snap(recv)
    comm.Alltoall(send, recv)
    snap(recv)
    comm.Reduce_scatter_block(send, recv.view(0, N), SUM)
    snap(recv)
    comm.Gather(send.view(0, N), recv.view(0, N * p), root=0)
    snap(recv)
    comm.Scatter(send, recv.view(0, N), root=0)
    snap(recv)

    counts, displs = _vec_geometry(p)
    total = sum(counts)
    vsend = ctx.device.zeros(counts[rank], dtype=np.float32)
    vsend.array[:] = rank * 10.0 + np.arange(counts[rank])
    vrecv = ctx.device.zeros(total, dtype=np.float32)
    comm.Allgatherv(vsend, vrecv, counts)
    snap(vrecv)
    comm.Gatherv(vsend, vrecv, counts, root=0)
    snap(vrecv)
    vroot = ctx.device.zeros(total, dtype=np.float32)
    vroot.array[:] = np.arange(total, dtype=np.float32)
    comm.Scatterv(vroot, counts, vrecv.view(0, counts[rank]), root=0)
    snap(vrecv)

    a2a_counts = [((rank + r) % 3) + 1 for r in range(p)]
    asend = ctx.device.zeros(sum(a2a_counts), dtype=np.float32)
    asend.array[:] = rank * 100.0 + np.arange(sum(a2a_counts))
    arecv = ctx.device.zeros(sum(a2a_counts), dtype=np.float32)
    comm.Alltoallv(asend, a2a_counts, arecv, a2a_counts)
    snap(arecv)

    return log


SIZES = (37, 1024)  # odd count exercises uneven chunk geometry


def _collective_body(mpx):
    """Run every tunable collective twice per size; record payload
    bytes and the virtual clock after each call."""
    comm = mpx.COMM_WORLD
    ctx = comm.ctx
    p = comm.size
    log = []

    def snap(buf):
        log.append((buf.array.tobytes(), ctx.now))

    for count in SIZES:
        send = ctx.device.zeros(count * p, dtype=np.float32)
        recv = ctx.device.zeros(count * p, dtype=np.float32)
        send.array[:] = np.arange(count * p, dtype=np.float32) + comm.rank
        for _ in range(2):
            comm.Allreduce(send.view(0, count), recv.view(0, count), SUM)
            snap(recv)
            comm.Bcast(recv.view(0, count), root=0)
            snap(recv)
            comm.Reduce(send.view(0, count), recv.view(0, count), SUM, 0)
            snap(recv)
            comm.Allgather(send.view(0, count), recv.view(0, count * p))
            snap(recv)
            comm.Alltoall(send.view(0, count * p), recv.view(0, count * p))
            snap(recv)
            comm.Reduce_scatter_block(send.view(0, count * p),
                                      recv.view(0, count), SUM)
            snap(recv)
            comm.Gather(send.view(0, count), recv.view(0, count * p), root=0)
            snap(recv)
            comm.Scatter(send.view(0, count * p), recv.view(0, count),
                         root=0)
            snap(recv)
    return log


def _sendrecv_body(mpx):
    """Run every send-recv collective of §3.3 (routed through the CCL
    grouped path by pure_xccl) with uneven counts including zeros;
    record payload bytes and the virtual clock after each call."""
    comm = mpx.COMM_WORLD
    ctx = comm.ctx
    p, r = comm.size, comm.rank
    log = []

    def snap(buf):
        log.append((buf.array.tobytes(), ctx.now))

    # alltoallv, uneven with zero blocks: count(i -> j) = (i + j) % 3
    sc = [(r + j) % 3 for j in range(p)]
    rc = [(i + r) % 3 for i in range(p)]
    sd = [sum(sc[:j]) for j in range(p)]
    rd = [sum(rc[:j]) for j in range(p)]
    send = ctx.device.zeros(max(1, sum(sc)), dtype=np.float32)
    send.array[:] = np.arange(send.array.size, dtype=np.float32) + 100 * r
    recv = ctx.device.zeros(max(1, sum(rc)), dtype=np.float32)
    for _ in range(2):
        comm.Alltoallv(send, sc, recv, rc, sd, rd)
        snap(recv)

    # uniform alltoall (delegates to alltoallv)
    s2 = ctx.device.zeros(3 * p, dtype=np.float32)
    s2.array[:] = np.arange(3 * p, dtype=np.float32) + r
    r2 = ctx.device.zeros(3 * p, dtype=np.float32)
    comm.Alltoall(s2, r2, count=3)
    snap(r2)

    # allgatherv, uneven
    counts = [i % 3 + 1 for i in range(p)]
    displs = [sum(counts[:j]) for j in range(p)]
    s3 = ctx.device.zeros(counts[r], dtype=np.float32)
    s3.array[:] = r + 1
    r3 = ctx.device.zeros(sum(counts), dtype=np.float32)
    comm.Allgatherv(s3, r3, counts, displs)
    snap(r3)

    # rooted: gather / gatherv / scatter / scatterv
    s4 = ctx.device.zeros(2, dtype=np.float32)
    s4.array[:] = r + 1
    r4 = ctx.device.zeros(2 * p, dtype=np.float32)
    comm.Gather(s4, r4, root=0, count=2)
    snap(r4)
    r5 = ctx.device.zeros(sum(counts), dtype=np.float32)
    comm.Gatherv(s3, r5, counts, displs, root=1 % p)
    snap(r5)
    s6 = ctx.device.zeros(2 * p, dtype=np.float32)
    s6.array[:] = np.arange(2 * p, dtype=np.float32)
    r6 = ctx.device.zeros(2, dtype=np.float32)
    comm.Scatter(s6, r6, root=0, count=2)
    snap(r6)
    s7 = ctx.device.zeros(sum(counts), dtype=np.float32)
    s7.array[:] = np.arange(sum(counts), dtype=np.float32) - r
    r7 = ctx.device.zeros(counts[r], dtype=np.float32)
    comm.Scatterv(s7, counts, r7, displs, root=0)
    snap(r7)
    return log


#: large enough for the rendezvous protocol (eager threshold is 8 KiB)
RNDV = 1 << 12


def _datapath_body(mpx):
    """Exercise every leased path: the five CCL collectives (including
    in-place spellings), blocking rendezvous sends, deferred-eager
    sendrecv, and the fused group exchange; log payload bytes and the
    virtual clock after each call."""
    comm = mpx.COMM_WORLD
    ctx = comm.ctx
    p, r = comm.size, comm.rank
    log = []

    def snap(buf):
        log.append((buf.array.tobytes(), ctx.now))

    n = 128
    send = ctx.device.zeros(n, dtype=np.float32)
    send.array[:] = np.arange(n, dtype=np.float32) * 0.5 + r
    recv = ctx.device.zeros(n, dtype=np.float32)

    comm.Allreduce(send, recv, SUM)
    snap(recv)
    comm.Reduce(send, recv, SUM, root=1 % p)
    snap(recv)
    comm.Bcast(recv, root=0)
    snap(recv)

    ag = ctx.device.zeros(n * p, dtype=np.float32)
    comm.Allgather(send, ag, count=n)
    snap(ag)
    ag2 = ctx.device.zeros(n * p, dtype=np.float32)
    ag2.array[r * n:(r + 1) * n] = send.array
    comm.Allgather(IN_PLACE, ag2, count=n)
    snap(ag2)

    rs_s = ctx.device.zeros(n * p, dtype=np.float32)
    rs_s.array[:] = np.arange(n * p, dtype=np.float32) - 3 * r
    rs_r = ctx.device.zeros(n, dtype=np.float32)
    comm.Reduce_scatter_block(rs_s, rs_r, SUM)
    snap(rs_r)

    # deferred-eager + rendezvous sendrecv around the ring
    big_s = ctx.device.zeros(RNDV, dtype=np.float32)
    big_s.array[:] = r + 1
    big_r = ctx.device.zeros(RNDV, dtype=np.float32)
    comm.Sendrecv(send, (r + 1) % p, recv, (r - 1) % p)
    snap(recv)
    comm.Sendrecv(big_s, (r + 1) % p, big_r, (r - 1) % p)
    snap(big_r)

    # blocking rendezvous send/recv pairs (even ranks send first)
    peer = r ^ 1
    if peer < p:
        if r % 2 == 0:
            comm.Send(big_s, peer)
            comm.Recv(big_r, source=peer)
        else:
            comm.Recv(big_r, source=peer)
            comm.Send(big_s, peer)
        snap(big_r)

    # fused group exchange (alltoall routes through grouped send/recv)
    a2a_s = ctx.device.zeros(4 * p, dtype=np.float32)
    a2a_s.array[:] = np.arange(4 * p, dtype=np.float32) + 10 * r
    a2a_r = ctx.device.zeros(4 * p, dtype=np.float32)
    comm.Alltoall(a2a_s, a2a_r, count=4)
    snap(a2a_r)
    return log


_PROGRAM_OPS = ("allreduce", "allgather", "allgather_in_place",
                "reduce_scatter", "bcast", "alltoall", "sendrecv")


def _random_program(seed, length=8):
    rng = np.random.default_rng(seed)
    return [(str(rng.choice(_PROGRAM_OPS)),
             int(rng.integers(1, 6)) * 32,
             int(rng.integers(0, 1000)))
            for _ in range(length)]


def _program_body_factory(program):
    def body(mpx):
        comm = mpx.COMM_WORLD
        ctx = comm.ctx
        p, r = comm.size, comm.rank
        log = []
        for op, n, salt in program:
            send = ctx.device.zeros(n, dtype=np.float32)
            send.array[:] = (np.arange(n, dtype=np.float32) % 7) \
                + r * 0.25 + salt
            if op == "allreduce":
                out = ctx.device.zeros(n, dtype=np.float32)
                comm.Allreduce(send, out, SUM)
            elif op == "allgather":
                out = ctx.device.zeros(n * p, dtype=np.float32)
                comm.Allgather(send, out, count=n)
            elif op == "allgather_in_place":
                out = ctx.device.zeros(n * p, dtype=np.float32)
                out.array[r * n:(r + 1) * n] = send.array
                comm.Allgather(IN_PLACE, out, count=n)
            elif op == "reduce_scatter":
                big = ctx.device.zeros(n * p, dtype=np.float32)
                big.array[:] = np.arange(n * p, dtype=np.float32) + salt - r
                out = ctx.device.zeros(n, dtype=np.float32)
                comm.Reduce_scatter_block(big, out, SUM)
            elif op == "bcast":
                out = ctx.device.zeros(n, dtype=np.float32)
                if r == salt % p:
                    out.array[:] = send.array
                comm.Bcast(out, root=salt % p)
            elif op == "alltoall":
                big = ctx.device.zeros(n * p, dtype=np.float32)
                big.array[:] = np.arange(n * p, dtype=np.float32) + 10 * r
                out = ctx.device.zeros(n * p, dtype=np.float32)
                comm.Alltoall(big, out, count=n)
            else:  # sendrecv
                out = ctx.device.zeros(n, dtype=np.float32)
                comm.Sendrecv(send, (r + 1) % p, out, (r - 1) % p)
            log.append((out.array.tobytes(), ctx.now))
        return log
    return body


def _filled(ctx, count, seed):
    buf = ctx.device.zeros(count, dtype=np.float32)
    buf.array[:] = np.arange(count, dtype=np.float32) * 0.25 + 1000.0 * seed
    return buf


def _multinode_body(mpx):
    """The Listing-1 collectives across nodes: ``Alltoall`` 16 KiB/peer,
    an uneven ``Alltoallv`` with empty blocks, ``IN_PLACE``
    ``Allgatherv`` (hinted transport) and rooted ``Gatherv`` /
    ``Scatterv`` with off-node roots (bulk transport); payload bytes and
    the exact clock after each."""
    comm = mpx.COMM_WORLD
    ctx = comm.ctx
    p, r = comm.size, comm.rank
    log = []

    def snap(buf):
        log.append((buf.array.tobytes(), ctx.now))

    n = 4096  # 16 KiB of float32 per peer
    recv = ctx.device.zeros(n * p, dtype=np.float32)
    comm.Alltoall(_filled(ctx, n * p, r), recv, count=n)
    snap(recv)

    sc = [(r + 2 * j) % 5 * 96 for j in range(p)]
    rc = [(i + 2 * r) % 5 * 96 for i in range(p)]
    recv = ctx.device.zeros(max(1, sum(rc)), dtype=np.float32)
    comm.Alltoallv(_filled(ctx, max(1, sum(sc)), r + 1), sc, recv, rc)
    snap(recv)

    counts = [i % 3 * 128 + 64 for i in range(p)]
    displs = [sum(counts[:i]) for i in range(p)]
    whole = ctx.device.zeros(sum(counts), dtype=np.float32)
    whole.array[displs[r]:displs[r] + counts[r]] = r + 0.5
    comm.Allgatherv(IN_PLACE, whole, counts, displs)
    snap(whole)

    mine = _filled(ctx, counts[r], r + 2)
    gathered = ctx.device.zeros(sum(counts), dtype=np.float32)
    comm.Gatherv(mine, gathered, counts, displs, root=p - 1)
    snap(gathered)
    comm.Scatterv(_filled(ctx, sum(counts), 7), counts, mine, displs,
                  root=p // 2)
    snap(mine)
    return log


def _leveled_body(N, seed, counter):
    """The four collectives with a multi-level executor, broadcast
    rooted on every node (or island).  Per rank: one ``(name, payload
    bytes, clock after, route calls)`` entry per call — how far the call
    moved this rank's ``route_stats.<counter>`` — and the rank's
    route-surface trace labels (empty untraced)."""
    def body(mpx):
        comm = mpx.COMM_WORLD
        p, rank = comm.size, comm.rank
        rng = np.random.default_rng(seed + rank)
        log = []

        def call(name, run, result):
            before = getattr(mpx.route_stats, counter)
            run()
            log.append((name, result.array.tobytes(), mpx.now,
                        getattr(mpx.route_stats, counter) - before))

        send = mpx.device_array(N)
        send.array[:] = rng.integers(0, 5, N)
        recv = mpx.device_array(N, fill=0.0)
        call("allreduce", lambda: comm.Allreduce(send, recv, SUM), recv)
        ag = mpx.device_array(N * p, fill=0.0)
        call("allgather", lambda: comm.Allgather(send, ag), ag)
        rs_in = mpx.device_array(N * p)
        rs_in.array[:] = rng.integers(0, 5, N * p)
        rs_out = mpx.device_array(N, fill=0.0)
        call("reduce_scatter",
             lambda: comm.Reduce_scatter_block(rs_in, rs_out, SUM), rs_out)
        for root in (0, p // 2, p - 1):
            buf = mpx.device_array(N, fill=0.0)
            if rank == root:
                buf.array[:] = rng.integers(0, 5, N)
            call(f"bcast@{root}", lambda: comm.Bcast(buf, root=root), buf)
        return log, frozen_reference.surface_labels(mpx.ctx)
    return body


HIER_N = (2 << 20) // 4    # at the hier rows' 2 MiB bound
HETERO_N = 1 << 14         # large enough to engage island xCCL
LEGACY_N = 1 << 18         # 1 MiB of float32


def comm_with(ctx, force=None):
    comm = Communicator.world(ctx)
    comm.coll = MPICollDispatcher(force=force)
    return comm


def _legacy_body(ctx):
    """``force="hierarchical"``: allreduce, then bcast and reduce at two
    roots that lead no node."""
    comm = comm_with(ctx, "hierarchical")
    p, n = comm.size, LEGACY_N
    rng = np.random.default_rng(3 + ctx.rank)
    log = []
    send = ctx.device.zeros(n)
    send.array[:] = rng.integers(0, 5, n)
    recv = ctx.device.zeros(n)
    comm.Allreduce(send, recv, SUM)
    log.append((recv.array.tobytes(), ctx.now))
    for root in (3, p - 1):  # neither is its node's leader
        buf = ctx.device.zeros(n)
        if ctx.rank == root:
            buf.array[:] = rng.integers(0, 5, n)
        comm.Bcast(buf, root=root)
        log.append((buf.array.tobytes(), ctx.now))
        out = ctx.device.zeros(n)
        comm.Reduce(send, out, SUM, root=root)
        log.append((out.array.tobytes(), ctx.now))
    return log, frozen_reference.surface_labels(ctx)


#: every non-hierarchical entry of ``repro.mpi.coll._ALGORITHMS`` (the
#: ``replay`` family forces each in turn), plus the seven collectives
#: with one algorithm (the vector forms keyed by their counts); pinned
#: against the table by ``test_replay_covers_every_flat_algorithm``
REPLAY_ALGORITHMS = (
    ("allgather", "bruck"), ("allgather", "recursive_doubling"),
    ("allgather", "ring"), ("allreduce", "rabenseifner"),
    ("allreduce", "recursive_doubling"), ("allreduce", "ring"),
    ("alltoall", "bruck"), ("alltoall", "pairwise"),
    ("alltoall", "scattered"), ("bcast", "binomial"),
    ("bcast", "scatter_ring_allgather"), ("gather", "binomial"),
    ("gather", "linear"), ("reduce", "binomial"), ("reduce", "linear"),
    ("reduce", "reduce_scatter_gather"),
    ("reduce_scatter", "pairwise"), ("reduce_scatter", "recursive_halving"),
    ("scatter", "binomial"), ("scatter", "linear"),
    ("barrier", None), ("scan", None), ("exscan", None),
    ("allgatherv", None), ("alltoallv", None), ("gatherv", None),
    ("scatterv", None))
#: the algorithms that need a power-of-two communicator (callers guard)
REPLAY_POF2 = {("allgather", "recursive_doubling"),
               ("allreduce", "rabenseifner"),
               ("reduce_scatter", "recursive_halving")}
#: per algorithm, four keys ``(count, in place, root index)``: an odd
#: count, one element and none; root 0 or p-1 where there is a root
REPLAY_VARIANTS = ((7, False, 0), (7, True, -1), (1, False, -1),
                   (0, True, 0))
#: in place where the algorithm has a spelling for it: ``None`` on every
#: rank (no in-place form), ``"root"`` at the root alone
REPLAY_IN_PLACE = {"bcast": None, "alltoall": None, "barrier": None,
                   "alltoallv": None, "scatterv": None,
                   "gather": "root", "gatherv": "root",
                   ("scatter", "linear"): "root",
                   ("scatter", "binomial"): None}


def _replay_body(ctx):
    """Each flat MPI algorithm, forced through ``MPICollDispatcher``, on
    the four keys of :data:`REPLAY_VARIANTS`, called three times per key
    with fresh inputs: payload bytes and the clock after every call.  A
    vector form's block from rank ``i`` to rank ``j`` holds ``(i + j +
    count) % 3`` elements (``(i + count) % 3`` where one side is
    rank-indexed alone)."""
    p, rank = ctx.engine.nranks, ctx.rank
    log = []
    for coll, name in REPLAY_ALGORITHMS:
        if (coll, name) in REPLAY_POF2 and p & (p - 1):
            continue
        comm = comm_with(ctx, name)
        for count, in_place, root in REPLAY_VARIANTS:
            root %= p
            rule = REPLAY_IN_PLACE.get(coll, REPLAY_IN_PLACE.get(
                (coll, name), "all"))
            in_place = in_place and (rule == "all" or
                                     rule == "root" and rank == root)
            wide = count * p
            counts = [(i + count) % 3 for i in range(p)]
            sendcounts = [(rank + j + count) % 3 for j in range(p)]
            recvcounts = [(i + rank + count) % 3 for i in range(p)]
            displs = [sum(counts[:i]) for i in range(p)]
            send = ctx.device.zeros(max(wide, 2 * p), dtype=np.float32)
            recv = ctx.device.zeros(max(wide, 2 * p), dtype=np.float32)
            for k in range(3):
                fill = np.arange(send.count, dtype=np.float32) % 5 + rank \
                    + 4 * k
                send.array[:] = fill
                recv.array[:] = -1.0
                src = IN_PLACE if in_place else send
                if coll == "barrier":
                    comm.Barrier()
                elif coll == "allreduce":
                    if in_place:
                        recv.array[:count] = fill[:count]
                    comm.Allreduce(src, recv, SUM, count=count)
                elif coll == "reduce":
                    if in_place:
                        recv.array[:count] = fill[:count]
                    comm.Reduce(src, recv, SUM, root=root, count=count)
                elif coll == "bcast":
                    if rank == root:
                        recv.array[:count] = fill[:count]
                    comm.Bcast(recv, root=root, count=count)
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
                    comm.Reduce_scatter_block(src, recv, SUM, count=count)
                elif coll == "gather":
                    if in_place:
                        recv.array[rank * count:(rank + 1) * count] = \
                            fill[:count]
                    comm.Gather(src, recv, root=root, count=count,
                                datatype=FLOAT)
                elif coll == "scatter":
                    comm.Scatter(send, IN_PLACE if in_place else recv,
                                 root=root, count=count,
                                 datatype=FLOAT)
                elif coll == "allgatherv":
                    mine = slice(displs[rank], displs[rank] + counts[rank])
                    if in_place:
                        recv.array[mine] = fill[:counts[rank]]
                    comm.Allgatherv(src, recv, counts)
                elif coll == "alltoallv":
                    comm.Alltoallv(send, sendcounts, recv, recvcounts)
                elif coll == "gatherv":
                    mine = slice(displs[rank], displs[rank] + counts[rank])
                    if in_place:
                        recv.array[mine] = fill[:counts[rank]]
                    comm.Gatherv(src, recv, counts, root=root,
                                 datatype=FLOAT)
                elif coll == "scatterv":
                    comm.Scatterv(send, counts, recv, root=root)
                else:   # scan / exscan
                    if in_place:
                        recv.array[:count] = fill[:count]
                    getattr(comm, coll.capitalize())(src, recv, SUM,
                                                     count=count)
                log.append((recv.array.tobytes(), ctx.now))
    return log, frozen_reference.surface_labels(ctx)


KIB_F32 = 256          # 1 KiB of float32
WINDOW = 4             # eager messages in flight per rank
RNDV_F32 = 16384       # 64 KiB: above the 8 KiB eager threshold


def _p2p_body(mpx):
    """The MPI point-to-point chain across nodes, every way the library
    drives it: the five small-message collectives at 1 KiB, ``Barrier``,
    an in-place ``Sendrecv`` ring (aliased: the copying path), an
    ``ANY_SOURCE`` receive loop (matched in posting order), one eager
    ``Isend``/``Irecv`` window and one rendezvous-size ``Send``/``Recv``
    to the opposite node; payload bytes and the exact clock after each.
    """
    comm = mpx.COMM_WORLD
    ctx = comm.ctx
    p, r = comm.size, comm.rank
    log = []

    def filled(count, seed):
        buf = ctx.device.zeros(count, dtype=np.float32)
        buf.array[:] = np.arange(count, dtype=np.float32) % 7 + seed
        return buf

    def snap(buf):
        log.append((as_array(buf).tobytes(), ctx.now))

    recv = ctx.device.zeros(KIB_F32, dtype=np.float32)
    comm.Allreduce(filled(KIB_F32, r + 1), recv)
    snap(recv)
    buf = filled(KIB_F32, 3 if r == p - 1 else 0)
    comm.Bcast(buf, root=p - 1)
    snap(buf)
    comm.Reduce(filled(KIB_F32, r + 2), recv, root=p // 2)
    snap(recv)
    per = KIB_F32 // p
    gathered = ctx.device.zeros(per * p, dtype=np.float32)
    comm.Allgather(filled(per, r + 3), gathered)
    snap(gathered)
    comm.Alltoall(filled(per * p, r + 4), gathered, count=per)
    snap(gathered)
    comm.Barrier()
    log.append((b"", ctx.now))

    ring = filled(KIB_F32, r + 5)
    comm.Sendrecv(ring, (r + 1) % p, ring, (r - 1) % p, sendtag=11)
    snap(ring)

    if r == 0:
        order = np.zeros(p - 1, dtype=np.float32)
        one = np.zeros(1, dtype=np.float32)
        for i in range(p - 1):
            status = comm.Recv(one, source=ANY_SOURCE, tag=12)
            order[i] = one[0] + 1000.0 * status.source
        snap(order)
    else:
        comm.Send(np.full(1, r + 0.5, dtype=np.float32), 0, tag=12)
        log.append((b"", ctx.now))

    inbox = [ctx.device.zeros(KIB_F32, dtype=np.float32)
             for _ in range(WINDOW)]
    reqs = [comm.Irecv(inbox[k], source=(r - 1) % p, tag=20 + k)
            for k in range(WINDOW)]
    reqs += [comm.Isend(filled(KIB_F32, r + k), (r + 1) % p, tag=20 + k)
             for k in range(WINDOW)]
    waitall(reqs)
    snap(np.concatenate([b.array for b in inbox]))

    big = filled(RNDV_F32, r + 6)
    if r < p // 2:
        comm.Send(big, r + p // 2, tag=30)
    else:
        comm.Recv(big, source=r - p // 2, tag=30)
    snap(big)
    return log


# -- closed-form oracles ------------------------------------------------------
#
# Where a body's values are exact (small integers, quarter steps), what
# every route must deliver is computed here with numpy, per rank, as the
# sha256 its logged payloads concatenate to.

def _digests(per_rank_payloads):
    """Each rank's sha256 over its concatenated payloads; the leading
    payloads a rank shares with the previous one are hashed once."""
    out, prev, states = [], [], [hashlib.sha256()]
    for payloads in map(list, per_rank_payloads):
        k = 0
        while k < min(len(prev), len(payloads)) and (
                payloads[k] is prev[k] or isinstance(payloads[k], bytes)
                and payloads[k] == prev[k]):
            k += 1
        del states[k + 1:]
        for data in payloads[k:]:
            states.append(states[-1].copy())
            states[-1].update(data)
        out.append(states[-1].hexdigest())
        prev = payloads
    return out


def _leveled_oracle(n, seed, p):
    """:func:`_leveled_body`'s digests (the reduce-scatter's inputs are
    summed rank by rank, never held for all ranks at once)."""
    rngs = [np.random.default_rng(seed + r) for r in range(p)]
    sends = [rng.integers(0, 5, n).astype(np.float32) for rng in rngs]
    reduced = np.zeros(n * p, dtype=np.float32)
    for rng in rngs:
        reduced += rng.integers(0, 5, n * p).astype(np.float32)
    bcasts = [rngs[root].integers(0, 5, n).astype(np.float32)
              for root in (0, p // 2, p - 1)]
    allreduce = np.sum(sends, axis=0, dtype=np.float32)
    allgather = np.concatenate(sends)
    return _digests([allreduce, allgather, reduced[r * n:(r + 1) * n],
                     *bcasts] for r in range(p))


def _multinode_oracle(shape):
    p, n = shape.nodes * shape.rpn, 4096

    def filled(count, seed):
        return np.arange(count, dtype=np.float32) * 0.25 + 1000.0 * seed

    sc = [[(i + 2 * j) % 5 * 96 for j in range(p)] for i in range(p)]
    sends = [filled(max(1, sum(sc[i])), i + 1) for i in range(p)]
    counts = [i % 3 * 128 + 64 for i in range(p)]
    displs = [sum(counts[:i]) for i in range(p)]
    whole = np.repeat(np.arange(p, dtype=np.float32) + 0.5, counts)
    gathered = np.concatenate([filled(c, i + 2) for i, c in enumerate(counts)])
    scattered = filled(sum(counts), 7)
    return _digests(
        [np.concatenate([np.arange(r * n, (r + 1) * n, dtype=np.float32)
                         * 0.25 + 1000.0 * i for i in range(p)]),
         np.concatenate([send[sum(sc[i][:r]):][:sc[i][r]]
                         for i, send in enumerate(sends)]
                        + [np.zeros(max(0, 1 - sum(c[r] for c in sc)),
                                    dtype=np.float32)]),
         whole, gathered if r == p - 1 else np.zeros_like(gathered),
         scattered[displs[r]:displs[r] + counts[r]]]
        for r in range(p))


# -- the table ----------------------------------------------------------------

OFF = dict.fromkeys(OPTIONS, False)


@dataclasses.dataclass(frozen=True)
class Shape:
    """Where one frozen key runs: a ``make_system`` name (or a
    ``make_mixed_system`` vendor spec), the rank placement, the CCL and
    the dispatch mode."""

    system: str
    nodes: int = 1
    nranks: Optional[int] = None
    rpn: Optional[int] = None
    nics: Optional[int] = None
    backend: Optional[str] = None
    mode: Optional[str] = None

    def cluster(self, payloads: bool):
        if ":" in self.system:
            return make_mixed_system(self.system, payloads=payloads)
        return make_system(self.system, self.nodes, nics=self.nics,
                           payloads=payloads)


#: the site rows an arm or variant pins over the program's table (or
#: the shape's offline one), as ``with_route`` arguments: every call to
#: the bridge, and the hierarchy from a site table's thresholds.  Each
#: is named after the run option it replaced, so that the arms keep
#: their ids; on a single-vendor, single-node communicator both are
#: inert for the frozen programs (a bridge row runs the MPI algorithms,
#: a hier row the flat CCL route)
SITE_ROWS = {"hetero": ("bridge", dict.fromkeys(TUNABLE_COLLECTIVES, 0)),
             "hier_pipe": ("hier", HIER_FROM)}
#: what an arm can switch on: a run option or a site table
SWITCHES = OPTIONS + tuple(SITE_ROWS)


@dataclasses.dataclass(frozen=True)
class Arm:
    """Real or storage-free payloads, and the run options switched on
    and site rows pinned (every other option is passed off)."""

    payloads: bool = True
    on: FrozenSet[str] = frozenset()

    @property
    def name(self) -> str:
        on = ["all"] if self.on == set(SWITCHES) else sorted(self.on)
        return ("real" if self.payloads else "storage_free") + "".join(
            f"+{opt}" for opt in on)


REAL = Arm()
TRACED = Arm(on=frozenset({"trace"}))
STORAGE_FREE = Arm(payloads=False)
STORAGE_FREE_TRACED = Arm(payloads=False, on=frozenset({"trace"}))
ALL_ON = Arm(on=frozenset(SWITCHES))
STORAGE_FREE_ALL_ON = Arm(payloads=False, on=frozenset(SWITCHES))
#: the 2^4 product of the two options and the two site tables, real
#: payloads
MATRIX = tuple(Arm(on=frozenset(on)) for k in range(len(SWITCHES) + 1)
               for on in itertools.combinations(SWITCHES, k))


class Variant(NamedTuple):
    """A program run another way: more options on or site rows pinned,
    another system, or without the program's table."""

    on: FrozenSet[str] = frozenset()
    system: Optional[str] = None
    table: bool = True


@dataclasses.dataclass(frozen=True)
class Program:
    """One frozen family (fields: ``docs/CONFORMANCE.md``).  ``engine``
    bodies take a bare ``RankContext``; ``route`` names the
    ``route_stats`` counter a ``_leveled_body`` logs per call; ``table``
    builds the tuning table a key's run pins (None: each communicator's
    offline table)."""

    body: Callable
    shapes: Mapping[str, Shape]
    arms: Tuple[Arm, ...]
    table: Optional[Callable[[Shape], TuningTable]] = None
    variants: Mapping[str, Variant] = dataclasses.field(default_factory=dict)
    matrix: Tuple[str, ...] = ()
    oracle: Optional[Callable[[Shape], list]] = None
    engine: bool = False
    route: Optional[str] = None


#: the single-node stacks, one per CCL the paper ports: no wire is
#: contended, so clocks are equal across option arms
STACKS = {"thetagpu-native": ("thetagpu", None, 4),    # NCCL
          "mri-native": ("mri", None, 2),              # RCCL
          "voyager-native": ("voyager", None, 4),      # HCCL
          "thetagpu-msccl": ("thetagpu", "msccl", 4)}  # MSCCL


def _single_node(family, mode=None):
    return {f"{family}:{stack}": Shape(system, rpn=n, backend=backend,
                                       mode=mode)
            for stack, (system, backend, n) in STACKS.items()}


#: hier shape -> (nodes, ranks, ranks per node, NICs per node)
HIER_SHAPES = {
    "aligned": (2, 8, 4, 4),          # uniform, every rank a stripe owner
    "forwarding": (2, 8, 4, 2),       # aligned, owners carry two shards each
    "oversubscribed": (2, 12, 6, 3),  # ppn 6 over 3 rails, 2 MiB % 12: general
    "uneven": (3, 7, 3, 8),           # nodes 3/3/1: general per-chunk schedule
    "indivisible": (2, 10, 5, 8),     # ppn 5, nics capped at 5: general
}

_SINGLE_NODE_ARMS = (REAL, ALL_ON, STORAGE_FREE)
_LEVELED_ARMS = (REAL, TRACED, STORAGE_FREE_TRACED)
_BRIDGE_COMBOS = {"+".join(on): Variant(on=frozenset(on))
                  for k in (1, 2, 3)
                  for on in itertools.combinations(
                      ("hier_pipe", "online_tune", "trace"), k)}


@functools.lru_cache(maxsize=None)
def _hier_rows(shape: Shape) -> TuningTable:
    """The shape's offline rows with its four collectives sent to the
    hierarchy from the 2 MiB a ``hier:*`` body sends (broadcast's
    included, below the 16 MiB a site table starts it at)."""
    return hier_table(shape.cluster(payloads=False), shape.nranks, shape.rpn,
                      shape.backend,
                      from_bytes=dict.fromkeys(HIER_FROM, 2 << 20))


@functools.lru_cache(maxsize=None)
def _bridge_rows(shape: Shape) -> TuningTable:
    return bridge_table(shape.cluster(payloads=False), shape.nranks,
                        shape.rpn)

PROGRAMS = {
    "twelve": Program(
        _twelve_collectives_body,
        {**{f"{key}:pure_xccl": dataclasses.replace(shape, mode="pure_xccl")
            for key, shape in _single_node("twelve").items()},
         "twelve:thetagpu-native:pure_mpi":
             Shape("thetagpu", rpn=4, mode="pure_mpi")},
        arms=_SINGLE_NODE_ARMS + (STORAGE_FREE_ALL_ON,)),
    "plan_cache": Program(
        _collective_body, _single_node("plan_cache"),
        arms=_SINGLE_NODE_ARMS, matrix=("plan_cache:thetagpu-native",)),
    "group_fusion": Program(
        _sendrecv_body, _single_node("group_fusion", "pure_xccl"),
        arms=_SINGLE_NODE_ARMS),
    "zero_copy": Program(
        _datapath_body, _single_node("zero_copy", "pure_xccl"),
        arms=_SINGLE_NODE_ARMS),
    "random": Program(
        None, {f"random:{seed}": Shape("thetagpu", rpn=4, mode="pure_xccl")
               for seed in (7, 23)},
        arms=_SINGLE_NODE_ARMS + (STORAGE_FREE_ALL_ON,)),
    "multinode": Program(
        _multinode_body,
        {f"multinode:{nodes}x8": Shape("thetagpu", nodes, rpn=8,
                                       mode="pure_xccl")
         for nodes in (2, 8)},
        arms=_SINGLE_NODE_ARMS, oracle=_multinode_oracle),
    "hier": Program(
        _leveled_body(HIER_N, 5, "hier_calls"),
        {f"hier:{name}": Shape("thetagpu", nodes, nranks, rpn, nics)
         for name, (nodes, nranks, rpn, nics) in HIER_SHAPES.items()},
        arms=_LEVELED_ARMS, table=_hier_rows,
        oracle=lambda shape: _leveled_oracle(HIER_N, 5, shape.nranks),
        route="hier_calls"),
    # equal islands ride the rail decomposition, unequal ones the
    # leader fold
    "hetero": Program(
        _leveled_body(HETERO_N, 11, "bridge_calls"),
        {"hetero:nvidia:2,amd:2": Shape("nvidia:2,amd:2", nodes=4, nranks=8, rpn=2),
         "hetero:nvidia:1,amd:2": Shape("nvidia:1,amd:2", nodes=3, nranks=6, rpn=2)},
        arms=_LEVELED_ARMS, table=_bridge_rows,
        variants={"hetero_off": Variant(table=False),
                  "homogeneous": Variant(system="thetagpu"),
                  **_BRIDGE_COMBOS},
        oracle=lambda shape: _leveled_oracle(HETERO_N, 11, shape.nranks),
        route="bridge_calls"),
    "legacy": Program(
        _legacy_body,
        {"legacy:2x8": Shape("thetagpu", nodes=2, nranks=16),
         "legacy:8+4": Shape("thetagpu", nodes=2, nranks=12)},
        arms=_LEVELED_ARMS, engine=True),
    # a recorded round program replayed: every flat algorithm, three
    # calls a key
    "replay": Program(
        _replay_body,
        {f"replay:{nodes}x{nranks // nodes}": Shape("thetagpu", nodes,
                                                    nranks=nranks)
         for nodes, nranks in ((1, 3), (1, 5), (2, 8))},
        arms=(REAL, TRACED, STORAGE_FREE), engine=True),
    "p2p": Program(
        _p2p_body,
        {f"p2p:{nodes}x{rpn}": Shape("thetagpu", nodes, rpn=rpn,
                                     mode="pure_mpi")
         for nodes, rpn in ((2, 8), (4, 32))},
        arms=(REAL, TRACED, STORAGE_FREE)),
}


def lookup(key: str) -> Tuple[Program, Shape]:
    program = PROGRAMS[key.split(":", 1)[0]]
    return program, program.shapes[key]


def _body_of(program: Program, key: str) -> Callable:
    if program.body is None:    # ``random``: one program per seed
        return _program_body_factory(_random_program(int(key.split(":")[1])))
    return program.body


def _labelled(body):
    """``body``'s log, and the rank's route-surface trace labels."""
    def labelled(mpx):
        return body(mpx), frozen_reference.surface_labels(mpx.ctx)
    return labelled


# -- the runner ---------------------------------------------------------------

def _seen(body, engines):
    """``body``, noting the engine it runs on."""
    def seen(rank):
        engines.add((rank if isinstance(rank, RankContext)
                     else rank.ctx).engine)
        return body(rank)
    return seen


@functools.lru_cache(maxsize=None)
def pinned_table(base: Optional[Callable[[Shape], TuningTable]],
                 shape: Shape, site: FrozenSet[str]) -> Optional[TuningTable]:
    """The table a run of ``shape`` pins: ``base``'s (default: the
    shape's offline rows) with the ``site`` rows spliced over it, in
    name order (the hierarchy's over the bridge's); None when neither
    asks for one."""
    if base is None and not site:
        return None
    table = base(shape) if base is not None else site_table(
        shape.cluster(payloads=False), shape.nranks or shape.nodes * shape.rpn,
        shape.rpn, shape.backend)
    for name in sorted(site):
        table = with_route(table, *SITE_ROWS[name])
    return table


def launch(key: str, arm: Arm = REAL, variant: Optional[str] = None,
           mode: Optional[str] = None, table: Optional[TuningTable] = None):
    """Run ``key``'s body once on ``arm`` (or on a variant; pinning
    ``table`` in place of the program's), every option explicit.
    Returns per rank ``(log of (payload bytes,
    clock), route-surface labels, per-call route counts)``, the run's
    counter snapshot and how many collectives it ran centrally."""
    program, shape = lookup(key)
    on, base = arm.on, program.table
    if variant is not None:
        more, system, pinned = program.variants[variant]
        on |= more
        if system is not None:
            shape = dataclasses.replace(shape, system=system)
        if not pinned:
            base = None
    options = dict(OFF, **dict.fromkeys(on & set(OPTIONS), True))
    if table is None:
        table = pinned_table(base, shape, on & set(SITE_ROWS))
    engines = set()
    body = _seen(_body_of(program, key), engines)
    cluster = shape.cluster(arm.payloads)
    if program.engine:
        out = Engine(cluster, nranks=shape.nranks,
                     ranks_per_node=shape.rpn, **options).run(body)
    else:
        out = runtime.run(body if program.route else _labelled(body),
                          system=cluster, nranks=shape.nranks,
                          ranks_per_node=shape.rpn, backend=shape.backend,
                          mode=mode or shape.mode,
                          table=table,
                          **options)
    snapshot = fastpath.STATS.snapshot()
    central = sum(engine.central_replays for engine in engines)
    if program.route is None:
        return [(log, labels, []) for log, labels in out], snapshot, central
    return [([(data, clock) for _, data, clock, _ in log], labels,
             [routed for *_, routed in log]) for log, labels in out], \
        snapshot, central


#: what the checks read of one run: per rank the payload digest (``None``
#: storage-free), the clocks and the per-call route counts; the run's
#: counters, route-surface label census and central replays
Summary = namedtuple("Summary",
                     "digests clocks routed counters labels central")


def summarize(ranks, snapshot, central, payloads: bool = True) -> Summary:
    return Summary(
        digests=_digests([data for data, _ in log] for log, _, _ in ranks)
        if payloads else None,
        clocks=[[clock for _, clock in log] for log, _, _ in ranks],
        routed=[routed for _, _, routed in ranks], counters=snapshot,
        labels=dict(sorted(Counter(
            label for _, labels, _ in ranks for label in labels).items())),
        central=central)


_SUMMARIES = {}


def summary(key: str, arm: Arm = REAL,
            variant: Optional[str] = None) -> Summary:
    """:func:`launch`, once per pytest run per (key, arm, variant)."""
    case = (key, arm, variant)
    if case not in _SUMMARIES:
        _SUMMARIES[case] = summarize(*launch(*case), payloads=arm.payloads)
    return _SUMMARIES[case]


@functools.lru_cache(maxsize=None)
def oracle(key: str) -> list:
    """Per rank, the payload digest every route must reproduce: the
    program's closed form, else its ``pure_mpi`` run — the program's own
    real run when it already runs the MPI algorithms (``p2p``, the
    ``pure_mpi`` twelve, and ``legacy``, whose node-leader reduce leaves
    partial sums in non-root buffers, so no closed form holds there)."""
    program, shape = lookup(key)
    if program.oracle is not None:
        return program.oracle(shape)
    if program.engine or shape.mode == "pure_mpi":
        return summary(key).digests
    return summarize(*launch(key, mode="pure_mpi")).digests


def frozen_digests(key: str) -> list:
    return [sha for sha, _clocks in FROZEN[key]]


#: counters that aliasing may move storage-free: every view of one
#: storage-free root shares its one element, so an alias check can force
#: an (O(1)) snapshot that disjoint real windows would have elided
COPY_COUNTERS = ("copies_elided", "copies_forced")


def conforms(key: str, arm: Arm = REAL) -> Summary:
    """``key`` on ``arm`` equals its frozen reference: every clock (or
    its ``MOVED_DOWN`` value), the payload digests (real arms), the
    counters and label census the reference holds, and — for a
    multi-level program — one call of its route per logged call."""
    program, _ = lookup(key)
    got = summary(key, arm)
    context = f"{key} on {arm.name}"
    assert got.clocks == frozen_reference.expected_clocks(key), \
        f"{context}: clocks differ from the reference"
    if arm.payloads:
        assert got.digests == frozen_digests(key), \
            f"{context}: payloads differ from the reference"
    if program.route is not None:
        assert all(routed == [1] * len(routed) for routed in got.routed), \
            f"{context}: a call left the {program.route} route"
    if key in frozen_reference.FROZEN_SURFACE:
        counters, labels = frozen_reference.FROZEN_SURFACE[key]
        assert {name: got.counters[name]
                for name in frozen_reference.SURFACE_COUNTERS} == counters, \
            f"{context}: route counters differ"
        assert got.labels == (labels if "trace" in arm.on else {}), \
            f"{context}: trace labels differ from the reference"
    central, moved = frozen_reference.CENTRAL.get(key, (0, {}))
    if not runs_centrally(arm):
        central, moved = 0, {}
    assert got.central == central, \
        f"{context}: {got.central} collectives ran centrally, not {central}"
    if key in frozen_reference.FROZEN_COUNTERS:
        skip = () if arm.payloads else COPY_COUNTERS
        expect = dict(frozen_reference.FROZEN_COUNTERS[key], **moved)
        assert {k: v for k, v in got.counters.items() if k not in skip} == \
            {k: v for k, v in expect.items() if k not in skip}, \
            f"{context}: counters differ from the reference"
    return got


def runs_centrally(arm: Arm) -> bool:
    """Whether a hot MPI-route key on an eligible shape runs centrally
    on ``arm``: neither tracing nor the online tuner is on."""
    return not arm.on & {"trace", "online_tune"}


def conforms_as_variant(key: str, variant: str) -> Summary:
    """A variant of ``key`` delivers the frozen payloads (its clocks
    may move: another route, cluster, table or option set)."""
    got = summary(key, REAL, variant)
    assert got.digests == frozen_digests(key), \
        f"{key} as {variant}: payloads differ from the reference"
    return got


def oracle_conforms(key: str) -> None:
    """The frozen payloads are what the program's oracle delivers."""
    assert oracle(key) == frozen_digests(key), \
        f"{key}: the frozen payloads differ from the oracle's"


# -- the cases ----------------------------------------------------------------

def _arms(program: Program, key: str):
    extra = [arm for arm in MATRIX
             if key in program.matrix and arm not in program.arms]
    return list(program.arms) + extra


ARM_CASES = [(key, arm) for program in PROGRAMS.values()
             for key in program.shapes for arm in _arms(program, key)]
VARIANT_CASES = [(key, variant) for program in PROGRAMS.values()
                 for key in program.shapes for variant in program.variants]


@pytest.mark.parametrize("key,arm", ARM_CASES,
                         ids=[f"{key}-{arm.name}" for key, arm in ARM_CASES])
def test_arm(key, arm):
    conforms(key, arm)


@pytest.mark.parametrize("key,variant", VARIANT_CASES,
                         ids=[f"{k}-{v}" for k, v in VARIANT_CASES])
def test_variant(key, variant):
    conforms_as_variant(key, variant)


@pytest.mark.parametrize("key", sorted(FROZEN))
def test_oracle(key):
    oracle_conforms(key)


# -- central replay -------------------------------------------------------------
#
# On one switched node with a rank per device, the last member to reach a
# hot MPI-route key runs every member's recorded rows
# (``repro.mpi.coll.replay``).  Every frozen program that calls such a key
# twice does so centrally on its untraced, untuned arms and must still
# give the frozen answer; ``twelve`` calls each key once, and
# ``group_fusion`` / ``zero_copy`` / ``random`` send nothing on a hot MPI
# key, so they run none (``conforms`` pins both counts on every arm).

CENTRAL_CASES = [(key, arm) for key in sorted(frozen_reference.CENTRAL)
                 for arm in _arms(lookup(key)[0], key)
                 if runs_centrally(arm)]


@pytest.mark.parametrize("key,arm", CENTRAL_CASES, ids=[
    f"central:{key}-{arm.name}" for key, arm in CENTRAL_CASES])
def test_central(key, arm):
    """The frozen program runs its hot MPI-route keys centrally — as
    many collectives as :data:`frozen_reference.CENTRAL` says — with the
    frozen clocks, payloads, counters and labels."""
    got = conforms(key, arm)
    assert got.central == frozen_reference.CENTRAL[key][0] > 0


@pytest.mark.parametrize("key", sorted(frozen_reference.CENTRAL))
def test_central_overrides_move_only_the_split(key):
    """What :data:`frozen_reference.CENTRAL` replaces of a frozen
    program's counters is how the host scheduled its ranks — parks,
    switches and the elided / forced split of ``Sendrecv`` copies —
    never a total the simulation computed: the copies sum to the frozen
    total."""
    _, moved = frozen_reference.CENTRAL[key]
    assert set(moved) <= {"coop_parks", "coop_switches", "copies_elided",
                          "copies_forced"}
    if "copies_elided" in moved:
        frozen = frozen_reference.FROZEN_COUNTERS[key]
        assert moved["copies_elided"] + moved["copies_forced"] == \
            frozen["copies_elided"] + frozen["copies_forced"]


#: algorithms whose rounds differ in shape: rings, Bruck, pairwise
#: exchanges, binomial trees, dissemination; 5 ranks, so none is a power
#: of two
ORDER_ALGORITHMS = (("allreduce", "ring"), ("alltoall", "bruck"),
                    ("alltoall", "pairwise"), ("allgather", "ring"),
                    ("bcast", "binomial"), ("reduce", "binomial"),
                    ("barrier", None))


def _order_body(ctx):
    """Each of :data:`ORDER_ALGORITHMS` on one key, twice (the second
    central): payload bytes and the clock after every call."""
    p, rank = ctx.engine.nranks, ctx.rank
    log = []
    for coll, name in ORDER_ALGORITHMS:
        comm = comm_with(ctx, name)
        send = ctx.device.zeros(3 * p)
        recv = ctx.device.zeros(3 * p)
        for k in range(2):
            send.array[:] = np.arange(3 * p) % 4 + rank + k
            if coll == "allreduce":
                comm.Allreduce(send, recv, SUM, count=3)
            elif coll == "alltoall":
                comm.Alltoall(send, recv, count=3)
            elif coll == "allgather":
                comm.Allgather(send, recv, count=3)
            elif coll == "bcast":
                comm.Bcast(send, root=2, count=3)
            elif coll == "reduce":
                comm.Reduce(send, recv, SUM, root=1, count=3)
            else:
                comm.Barrier()
            log.append((send.array.tobytes() + recv.array.tobytes(),
                        ctx.now))
    return log


@functools.lru_cache(maxsize=None)
def _in_rank_order():
    engine = Engine(make_system("thetagpu", 1), nranks=5, **OFF)
    log = engine.run(_order_body)
    assert engine.central_replays == len(ORDER_ALGORITHMS)
    return log


@settings(derandomize=True, max_examples=12, deadline=None)
@given(order=st.permutations(range(5)))
def test_central_clocks_do_not_depend_on_the_evaluation_order(order):
    """On an eligible shape every wire is booked in its sender's own
    order, so the order a central program runs its members in moves no
    clock and no payload: any permutation gives the rank-order run's
    values, to the bit."""
    with mock.patch.object(replay, "evaluation_order", lambda size: order):
        engine = Engine(make_system("thetagpu", 1), nranks=5, **OFF)
        log = engine.run(_order_body)
    assert engine.central_replays == len(ORDER_ALGORITHMS)
    assert log == _in_rank_order()


def _hot_keys(ctx):
    """An eager ``Allreduce`` and a ``Barrier``, twice each, and a
    rendezvous-sized ``Allreduce`` twice (64 KiB on the MPI route)."""
    comm = Communicator.world(ctx)
    for n in (8, 1 << 14):
        send, recv = ctx.device.zeros(n), ctx.device.zeros(n)
        for _ in range(2):
            comm.Allreduce(send, recv, SUM)
            if n == 8:
                comm.Barrier()
    return ctx.now


def _central_count(cluster, nranks, rpn=None, plan=None, **options):
    engine = Engine(cluster, nranks=nranks, ranks_per_node=rpn,
                    **dict(OFF, **options))
    if plan is not None:
        with_faults(engine, plan)
    engine.run(_hot_keys)
    return engine.central_replays


def test_central_replay_only_where_no_order_can_move_a_clock():
    """Central replay takes one switched node with a rank per device
    and eager rows, untraced, untuned and without a fault plan: its
    eager ``Allreduce`` and ``Barrier`` run centrally there, and on a
    multi-node, oversubscribed or PCIe-bus shape, for a rendezvous key,
    under a fault plan (even an empty one), traced or tuned, nothing
    does."""
    thetagpu = make_system("thetagpu", 1)
    assert _central_count(thetagpu, 4) == 2
    assert _central_count(make_system("thetagpu", 2), 4, rpn=2) == 0
    assert _central_count(thetagpu, 16, rpn=16) == 0
    assert _central_count(make_system("mri", 1), 2) == 0
    assert _central_count(thetagpu, 4, plan=FaultPlan()) == 0
    assert _central_count(thetagpu, 4, trace=True) == 0
    assert _central_count(thetagpu, 4, online_tune=True) == 0


def test_registration():
    """Nothing is left unregistered: every frozen family has a program
    (and every frozen key a shape), every route is taken by some
    program's real run, and every registry collective by some traced
    one.  The registry's own shape is pinned in
    ``tests/test_dispatch_parity.py``."""
    assert {key.split(":", 1)[0] for key in FROZEN} <= set(PROGRAMS)
    assert set(FROZEN) == {key for program in PROGRAMS.values()
                           for key in program.shapes}
    runs = [(arm, summary(key, arm)) for key, arm in ARM_CASES
            if arm.payloads]
    for route in Route:     # each route's execute stage bumps route_<value>
        assert any(got.counters[f"route_{route.value}"] for _, got in runs), \
            f"no program takes the {route.value} route"
    executed = {label.split(":")[1] for arm, got in runs if "trace" in arm.on
                for label in got.labels if label.startswith("execute:")}
    assert set(REGISTRY) <= executed, \
        f"no program executes {sorted(set(REGISTRY) - executed)}"


def test_pipeline_depth_reshapes_chunks_not_payloads(monkeypatch):
    """The pipeline depth constant reshapes the hierarchy's chunk
    pipeline without changing payloads."""
    assert levels.DEPTH == 2
    chunks = set()
    for depth in (1, 4):
        monkeypatch.setattr(levels, "DEPTH", depth)
        got = summarize(*launch("hier:aligned"))
        assert got.counters["route_hier"] > 0
        assert got.digests == frozen_digests("hier:aligned"), \
            f"depth={depth}: payloads differ"
        chunks.add(got.counters["hier_chunks"])
    assert len(chunks) == 2
