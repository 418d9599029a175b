"""MPI runtime configuration ("personality").

All software constants of an MPI implementation live here: protocol
thresholds, per-call software overheads, GPU-awareness mode, and the
bandwidth model that says how much of the raw wire an MPI data path
actually achieves.  An MPI transfer is a *single channel*: on a fat
switched fabric like NVSwitch it caps out near ``intra_channel_cap``
(~30 GB/s), far under NCCL's multi-channel 137 GB/s — the cause of
Fig. 1's large-message gap — while on a thin PCIe link the same single
channel gets nearly everything.

Presets model the runtimes the paper compares:

* :func:`mvapich_gpu` — the GPU-aware MVAPICH-style runtime MPI-xCCL is
  built into (the paper group's own library);
* :func:`openmpi_ucx` — the Open MPI + UCX baseline;
* the UCC collective layer is modeled in :mod:`repro.baselines.ucc`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.hw.cluster import PathScope


@dataclass(frozen=True)
class MPIConfig:
    """Tunables of one MPI runtime build.

    Attributes:
        name: personality label, appears in benchmark output.
        eager_threshold_intra / eager_threshold_inter: bytes at or below
            which sends are eager (buffered); above, rendezvous.
        send_overhead_us / recv_overhead_us: per-call software cost.
        tag_matching_us: matching cost charged on each receive.
        gpu_direct: True = GPU-aware paths (UVA / GPUDirect; §2.2);
            False = stage device buffers through host memory.
        gpu_alpha_extra_us: added per-message latency on device-buffer
            paths (IPC handles, GDR doorbells).
        intra_bw_eff / intra_channel_cap_bpus: the intra-node data path
            achieves ``min(raw * eff, cap)`` bytes/us.
        inter_bw_eff: fraction of raw fabric bandwidth achieved.
        host_reduce_bpus: host-side reduction throughput, bytes/us.
        unpack_bpus: eager bounce-buffer unpack throughput, bytes/us.
        pipeline_chunk_bytes: staging pipeline granularity for
            non-GPU-direct device transfers.
    """

    name: str = "mpix"
    eager_threshold_intra: int = 8192
    eager_threshold_inter: int = 8192
    send_overhead_us: float = 0.5
    recv_overhead_us: float = 0.5
    tag_matching_us: float = 0.2
    gpu_direct: bool = True
    gpu_alpha_extra_us: float = 1.0
    intra_bw_eff: float = 0.95
    intra_channel_cap_bpus: float = 30000.0
    inter_bw_eff: float = 0.60
    host_reduce_bpus: float = 5000.0
    unpack_bpus: float = 24000.0
    pipeline_chunk_bytes: int = 256 * 1024

    def eager_threshold(self, scope: PathScope) -> int:
        """Eager/rendezvous switch point for a path scope."""
        if scope == PathScope.INTER:
            return self.eager_threshold_inter
        return self.eager_threshold_intra

    def effective_beta(self, scope: PathScope, raw_beta: float) -> float:
        """Achievable bandwidth (bytes/us) of this runtime's single
        data channel over a path with ``raw_beta`` raw bandwidth."""
        if scope == PathScope.LOCAL:
            return raw_beta
        if scope == PathScope.INTER:
            return raw_beta * self.inter_bw_eff
        return min(raw_beta * self.intra_bw_eff, self.intra_channel_cap_bpus)

    def with_(self, **kwargs) -> "MPIConfig":
        """A modified copy (dataclasses.replace convenience)."""
        return replace(self, **kwargs)


def mvapich_gpu() -> MPIConfig:
    """The GPU-aware MVAPICH-style runtime hosting MPI-xCCL.

    Low small-message latency (optimized eager path, GDR for small
    device buffers) but single-channel large-message bandwidth —
    exactly the profile Fig. 1 shows for "MPI".
    """
    return MPIConfig(
        name="mpix",
        eager_threshold_intra=8192,
        eager_threshold_inter=8192,
        send_overhead_us=0.5,
        recv_overhead_us=0.5,
        tag_matching_us=0.15,
        gpu_direct=True,
        gpu_alpha_extra_us=2.2,
        intra_bw_eff=0.95,
        intra_channel_cap_bpus=30000.0,   # ~29 GB/s of NVSwitch, one channel
        inter_bw_eff=0.60,                # ~12.6 GB/s of raw HDR via GDR
    )


def openmpi_ucx() -> MPIConfig:
    """Open MPI + UCX baseline: heavier software path, slightly less
    effective bandwidth."""
    return MPIConfig(
        name="openmpi+ucx",
        eager_threshold_intra=8192,
        eager_threshold_inter=8192,
        send_overhead_us=1.0,
        recv_overhead_us=1.0,
        tag_matching_us=0.35,
        gpu_direct=True,
        gpu_alpha_extra_us=3.0,
        intra_bw_eff=0.90,
        intra_channel_cap_bpus=26000.0,
        inter_bw_eff=0.52,
    )

