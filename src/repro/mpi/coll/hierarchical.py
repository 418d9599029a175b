"""Topology-aware (hierarchical) collectives.

Real GPU-aware MPIs exploit the intra/inter bandwidth gap with
node-leader designs: reduce within each node first (cheap NVSwitch
hops), run the inter-node phase among one leader per node (fewer, fatter
fabric messages), then broadcast back inside the node.  These
implementations compose the existing flat algorithms over cached
node-local and leader sub-communicators; the ablation bench
(``benchmarks/bench_ablation_hierarchical.py``) quantifies when they
beat the flat equivalents.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.mpi.coll._util import materialize_input
from repro.mpi.datatypes import Datatype
from repro.mpi.ops import Op


def node_comms(comm) -> Tuple[object, Optional[object]]:
    """(node-local comm, leader comm or None) for ``comm``, cached.

    The node-local communicator groups ranks sharing a node; the leader
    communicator contains each node's rank-0 (None on non-leaders).
    """
    cache = comm.routing_cache
    cached = cache.get("node_comms")
    if cached is not None:
        return cached
    cluster = comm.ctx.cluster
    my_node = cluster.node_index_of(comm.ctx.device)
    local = comm.Split(color=my_node, key=comm.rank)
    try:
        is_leader = local.rank == 0
        leaders = comm.Split(color=0 if is_leader else -1, key=comm.rank)
        if not is_leader and leaders is not None:
            # MPI_UNDEFINED must yield MPI_COMM_NULL; a live handle on a
            # non-leader would dangle (no rank ever frees it)
            leaders.Free()
            leaders = None
    except BaseException:
        local.Free()
        raise
    cache["node_local"] = local
    if leaders is not None:
        cache["node_leaders"] = leaders
    cache["node_comms"] = (local, leaders)
    return cache["node_comms"]


def allreduce_hierarchical(comm, sendbuf, recvbuf, count: int, dt: Datatype,
                           op: Op) -> None:
    """Node-leader allreduce: intra reduce -> leader allreduce ->
    intra bcast."""
    local, leaders = node_comms(comm)
    materialize_input(comm, sendbuf, recvbuf, count)
    if local.size > 1:
        # reduce within the node into the leader's recvbuf
        from repro.mpi.communicator import IN_PLACE
        local.Reduce(IN_PLACE, recvbuf, op, root=0, count=count, datatype=dt)
    if leaders is not None and leaders.size > 1:
        from repro.mpi.communicator import IN_PLACE
        leaders.Allreduce(IN_PLACE, recvbuf, op, count=count, datatype=dt)
    if local.size > 1:
        local.Bcast(recvbuf, root=0, count=count, datatype=dt)


def bcast_hierarchical(comm, buf, count: int, dt: Datatype, root: int) -> None:
    """Node-leader bcast: root -> its node leader is implicit (same
    node); leaders bcast across the fabric; leaders fan out locally."""
    cluster = comm.ctx.cluster
    root_node = cluster.node_index_of(comm.ctx.device_of(comm.world_rank(root)))
    my_node = cluster.node_index_of(comm.ctx.device)
    local, leaders = node_comms(comm)

    # step 1: within the root's node, move data to the node leader
    if my_node == root_node and local.size > 1:
        # translate the global root into its node-local rank
        local_root = local.group.index(comm.world_rank(root))
        if local_root != 0:
            if local.rank == local_root:
                local.Send(buf, 0, tag=0, count=count, datatype=dt)
            elif local.rank == 0:
                local.Recv(buf, source=local_root, tag=0, count=count,
                           datatype=dt)
    # step 2: leaders broadcast across nodes (root's leader as source)
    if leaders is not None and leaders.size > 1:
        # leader comm ranks are ordered by world rank; find root node's
        # leader position by matching node indices
        leader_root = 0
        for i, w in enumerate(leaders.group):
            node = cluster.node_index_of(comm.ctx.device_of(w))
            if node == root_node:
                leader_root = i
                break
        leaders.Bcast(buf, root=leader_root, count=count, datatype=dt)
    # step 3: leaders fan out within their nodes
    if local.size > 1:
        local.Bcast(buf, root=0, count=count, datatype=dt)


def reduce_hierarchical(comm, sendbuf, recvbuf, count: int, dt: Datatype,
                        op: Op, root: int) -> None:
    """Node-leader reduce: intra reduce -> leaders reduce to the root's
    leader -> local hop to the root."""
    from repro.mpi.communicator import IN_PLACE
    cluster = comm.ctx.cluster
    root_world = comm.world_rank(root)
    root_node = cluster.node_index_of(comm.ctx.device_of(root_world))
    my_node = cluster.node_index_of(comm.ctx.device)
    local, leaders = node_comms(comm)

    materialize_input(comm, sendbuf, recvbuf, count)
    if local.size > 1:
        local.Reduce(IN_PLACE, recvbuf, op, root=0, count=count, datatype=dt)
    if leaders is not None and leaders.size > 1:
        leader_root = 0
        for i, w in enumerate(leaders.group):
            if cluster.node_index_of(comm.ctx.device_of(w)) == root_node:
                leader_root = i
                break
        leaders.Reduce(IN_PLACE, recvbuf, op, root=leader_root,
                       count=count, datatype=dt)
    # final local hop: node leader -> the actual root rank
    if my_node == root_node and local.size > 1:
        local_root = local.group.index(root_world)
        if local_root != 0:
            if local.rank == 0:
                local.Send(recvbuf, local_root, tag=1, count=count,
                           datatype=dt)
            elif local.rank == local_root:
                local.Recv(recvbuf, source=0, tag=1, count=count, datatype=dt)
