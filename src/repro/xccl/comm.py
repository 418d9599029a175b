"""CCL communicators.

An :class:`XCCLComm` is the simulated ``ncclComm_t``: the rank set,
sequence counters for collective rendezvous keys and point-to-point
matching, and the cached topology shape cost models need.  The abstraction layer creates one lazily per MPI
communicator (Listing 1 line 1: "Create XCCL communicator") and caches
it.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import CCLInvalidArgument
from repro.perfmodel.shape import CommShape
from repro.sim.engine import RankContext

_uid_counter = itertools.count(1)


def xccl_get_unique_id(ctx: RankContext, parties: int, key) -> int:
    """Agree on a communicator uid across ranks (``ncclGetUniqueId`` +
    bootstrap broadcast, collapsed into one rendezvous).  ``key`` names
    one bootstrap: a caller that repeats it numbers the occurrences."""
    slot = ctx.collective_slot(("xccl-uid", key), parties)
    return slot.exchange(ctx.rank, None, lambda _payloads: next(_uid_counter))


class XCCLComm:
    """One rank's handle on a CCL communicator.

    Args:
        ctx: the rank's engine context.
        uid: cluster-wide communicator id (from
            :func:`xccl_get_unique_id`).
        group: world ranks, in communicator order.
        rank: this process's rank within the group.
        backend: the CCL backend that owns this communicator (set by
            ``xcclCommInitRank``; the unified API dispatches on it).
    """

    def __init__(self, ctx: RankContext, uid: int, group: Sequence[int],
                 rank: int, backend=None) -> None:
        if not 0 <= rank < len(group):
            raise CCLInvalidArgument(f"rank {rank} not in group of {len(group)}")
        if group[rank] != ctx.rank:
            raise CCLInvalidArgument(
                f"group[{rank}] = {group[rank]} but context rank is {ctx.rank}")
        self.ctx = ctx
        self.uid = uid
        self.backend = backend
        self.record = ctx.engine.comm_record(("xccl", uid), group, ctx.rank)
        self.group: Tuple[int, ...] = self.record.group
        self.rank = rank
        self._coll_seq = itertools.count(1)
        self._group_seq = itertools.count(1)
        #: per communicator rank, the sequence number of the last p2p
        #: send to it / receive from it (program order; a group flush
        #: numbers its rows from these in place).  None until the first
        #: flush with a row of that kind: a member that never sends or
        #: receives point-to-point holds no list as long as the group
        self.send_seq: Optional[List[int]] = None
        self.recv_seq: Optional[List[int]] = None
        #: compiled chunk geometry (counts/displs tuples) reused by the
        #: send-recv collectives on every call of one shape.
        self.plan_geometry: Dict[Tuple, Tuple] = {}
        #: compiled p2p route pricing per (peer rank, bidir) — the
        #: size-independent (resources, beta, alpha base, store-forward
        #: rate) of a transfer; replayed by the fused group transport
        #: (topology and backend params are immutable for the comm's
        #: lifetime, so the values are identical to a fresh derivation).
        self.route_pricing: Dict[Tuple[int, bool], Tuple] = {}
        self.aborted = False

    @property
    def size(self) -> int:
        """Number of ranks."""
        return len(self.group)

    @property
    def shape(self) -> CommShape:
        """Topology shape of the communicator (its record's)."""
        return self.record.shape

    def world_rank(self, comm_rank: int) -> int:
        """Translate a communicator rank to a world rank."""
        if not 0 <= comm_rank < len(self.group):
            raise CCLInvalidArgument(
                f"peer {comm_rank} out of range for comm of {len(self.group)}")
        return self.group[comm_rank]

    def next_coll_key(self, kind: str) -> Tuple:
        """Rendezvous key for the next fused collective (identical
        call order across ranks keeps these aligned)."""
        return ("xccl", self.uid, kind, next(self._coll_seq))

    def next_group_key(self) -> Tuple:
        """Rendezvous key for the next whole-group exchange, from its
        own counter: only hinted groups draw from it, so the built-in
        collectives' keys do not depend on how many groups ran."""
        return ("xccl-group", self.uid, next(self._group_seq))

    def destroy(self) -> None:
        """``ncclCommDestroy``: mark the communicator unusable and give
        up this member's hold on the shared record."""
        if not self.aborted:
            self.aborted = True
            self.record.release()

    #: the teardown of the MPI communicator's ledger entry
    Free = destroy

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<XCCLComm uid={self.uid} rank {self.rank}/{self.size}>"
