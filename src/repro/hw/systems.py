"""System presets reproducing Table 1 of the paper.

Three clusters are modeled, one per vendor:

* ``thetagpu`` — ALCF ThetaGPU: 24 NVIDIA DGX A100 nodes, 8 A100-40GB
  per node on 2nd-gen NVSwitch, Mellanox ConnectX-6 HDR fabric.
* ``mri`` — in-house AMD cluster: 2 MI100-32GB per node on PCIe,
  ConnectX-6 HDR fabric.
* ``voyager`` — SDSC Voyager: 8 Habana Gaudi-32GB per node over the
  Gaudi's integrated RoCE, 400 Gb/s Arista fabric.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.hw.cluster import Cluster
from repro.hw.device import Accelerator, HostCPU
from repro.hw.links import (
    ETH_400G,
    GAUDI_ROCE,
    IB_HDR,
    NVSWITCH,
    PCIE_MRI,
    SLINGSHOT,
    XE_LINK,
)
from repro.hw.node import Node
from repro.hw.vendors import Vendor, parse_vendor_counts

GB = 1024 ** 3
TB = 1024 ** 4


def _a100(payloads: bool = True) -> Accelerator:
    return Accelerator(Vendor.NVIDIA, "A100", hbm_bytes=40 * GB,
                       hbm_bw=1.555e12, kernel_launch_us=3.0,
                       fp32_tflops=19.5, payloads=payloads)


def _mi100(payloads: bool = True) -> Accelerator:
    return Accelerator(Vendor.AMD, "MI100", hbm_bytes=32 * GB,
                       hbm_bw=1.228e12, kernel_launch_us=4.0,
                       fp32_tflops=23.1, payloads=payloads)


def _pvc(payloads: bool = True) -> Accelerator:
    return Accelerator(Vendor.INTEL, "Max1550", hbm_bytes=128 * GB,
                       hbm_bw=3.2e12, kernel_launch_us=4.0,
                       fp32_tflops=52.0, payloads=payloads)


def _gaudi(payloads: bool = True) -> Accelerator:
    return Accelerator(Vendor.HABANA, "Gaudi", hbm_bytes=32 * GB,
                       hbm_bw=1.0e12, kernel_launch_us=9.0,
                       fp32_tflops=19.0, payloads=payloads)


def thetagpu(nodes: int = 1, nics: int = 1, payloads: bool = True) -> Cluster:
    """ThetaGPU: ``nodes`` DGX A100 nodes (max 24 in the real system).

    ``nics`` selects the rail count; the physical DGX A100 carries
    eight ConnectX-6 HCAs, but single-rail stays the default so the
    calibrated single-NIC virtual times are untouched unless a run
    opts into multi-rail explicitly.
    """
    if not 1 <= nodes <= 24:
        raise ConfigError(f"ThetaGPU has 1..24 nodes, asked for {nodes}")
    cpu = HostCPU("AMD EPYC 7742", sockets=2, cores_per_socket=64,
                  memory_bytes=1 * TB)
    node_list = [
        Node(f"thetagpu{n:02d}", cpu, [_a100(payloads) for _ in range(8)],
             intra_link=NVSWITCH, nic=IB_HDR, switched=True, nics=nics)
        for n in range(nodes)
    ]
    return Cluster("thetagpu", node_list, fabric=IB_HDR)


def mri(nodes: int = 1, nics: int = 1, payloads: bool = True) -> Cluster:
    """MRI: in-house AMD cluster, 2 MI100 per node on PCIe."""
    if not 1 <= nodes <= 16:
        raise ConfigError(f"MRI has 1..16 nodes, asked for {nodes}")
    cpu = HostCPU("AMD EPYC 7713", sockets=2, cores_per_socket=64,
                  memory_bytes=256 * GB)
    node_list = [
        Node(f"mri{n:02d}", cpu, [_mi100(payloads) for _ in range(2)],
             intra_link=PCIE_MRI, nic=IB_HDR, switched=False, nics=nics)
        for n in range(nodes)
    ]
    return Cluster("mri", node_list, fabric=IB_HDR)


def voyager(nodes: int = 1, nics: int = 1, payloads: bool = True) -> Cluster:
    """Voyager: 8 Habana Gaudi per node, 400G Arista fabric."""
    if not 1 <= nodes <= 42:
        raise ConfigError(f"Voyager has 1..42 nodes, asked for {nodes}")
    cpu = HostCPU("Intel Xeon Gold 6336Y", sockets=2, cores_per_socket=24,
                  memory_bytes=512 * GB)
    node_list = [
        Node(f"voyager{n:02d}", cpu, [_gaudi(payloads) for _ in range(8)],
             intra_link=GAUDI_ROCE, nic=ETH_400G, switched=True, nics=nics)
        for n in range(nodes)
    ]
    return Cluster("voyager", node_list, fabric=ETH_400G)


def aurora(nodes: int = 1, nics: int = 1, payloads: bool = True) -> Cluster:
    """Aurora-class Intel system (extension, paper §6 future work):
    6 Ponte Vecchio GPUs per node on Xe-Link, Slingshot-11 fabric.

    Not part of the paper's evaluation — it exists to demonstrate that
    a new vendor + CCL (oneCCL) drops into the plug-in design.
    """
    if not 1 <= nodes <= 64:
        raise ConfigError(f"Aurora preset has 1..64 nodes, asked for {nodes}")
    cpu = HostCPU("Intel Xeon Max 9470C", sockets=2, cores_per_socket=52,
                  memory_bytes=512 * GB)
    node_list = [
        Node(f"aurora{n:03d}", cpu, [_pvc(payloads) for _ in range(6)],
             intra_link=XE_LINK, nic=SLINGSHOT, switched=True, nics=nics)
        for n in range(nodes)
    ]
    return Cluster("aurora", node_list, fabric=SLINGSHOT)


#: per-vendor node recipe for mixed clusters: device factory, host CPU
#: description, intra-node link, and whether the devices hang off a
#: switch — each borrowed from that vendor's homogeneous preset above.
_MIXED_NODE: Dict[Vendor, Tuple[Callable[[bool], Accelerator], str, object, bool]] = {
    Vendor.NVIDIA: (_a100, "AMD EPYC 7742", NVSWITCH, True),
    Vendor.AMD: (_mi100, "AMD EPYC 7713", PCIE_MRI, False),
    Vendor.HABANA: (_gaudi, "Intel Xeon Gold 6336Y", GAUDI_ROCE, True),
    Vendor.INTEL: (_pvc, "Intel Xeon Max 9470C", XE_LINK, True),
}


def mixed(vendor_nodes: Sequence[Tuple[Vendor, int]],
          devices_per_node: int = 2, nics: int = 1,
          payloads: bool = True) -> Cluster:
    """A mixed-vendor cluster: single-vendor nodes (islands) on one
    shared ConnectX-6 HDR fabric — the shape ROADMAP item 2 and the
    bridge route target.

    ``vendor_nodes`` gives per-vendor node counts in placement order,
    e.g. ``[(Vendor.NVIDIA, 2), (Vendor.AMD, 2)]``.  Every node gets
    the *same* device count so block rank placement stays uniform
    across the islands; each island keeps its vendor's calibrated
    intra-node link and host CPU.
    """
    if devices_per_node < 1:
        raise ConfigError(
            f"mixed cluster needs >= 1 device per node, got {devices_per_node}")
    if not vendor_nodes:
        raise ConfigError("mixed cluster needs at least one vendor")
    node_list = []
    for vendor, nodes in vendor_nodes:
        if nodes < 1:
            raise ConfigError(
                f"mixed cluster: {vendor.value} node count must be >= 1")
        factory, cpu_model, intra, switched = _MIXED_NODE[vendor]
        cpu = HostCPU(cpu_model, sockets=2, cores_per_socket=64,
                      memory_bytes=512 * GB)
        for n in range(nodes):
            node_list.append(Node(
                f"mixed{len(node_list):02d}-{vendor.value}", cpu,
                [factory(payloads) for _ in range(devices_per_node)],
                intra_link=intra, nic=IB_HDR, switched=switched, nics=nics))
    return Cluster("mixed", node_list, fabric=IB_HDR)


def make_mixed_system(spec: str, devices_per_node: int = 2,
                      nics: Optional[int] = None,
                      payloads: bool = True) -> Cluster:
    """Build a mixed cluster from a ``--vendors`` spec string
    (``nvidia:2,amd:2`` = 2 NVIDIA nodes then 2 AMD nodes);
    ``payloads`` as for :func:`make_system`.

    >>> make_mixed_system("nvidia:2,amd:2").device_count
    8
    """
    try:
        pairs = parse_vendor_counts(spec)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return mixed(pairs, devices_per_node=devices_per_node, nics=nics or 1,
                 payloads=payloads)


_SYSTEMS: Dict[str, Callable[..., Cluster]] = {
    "thetagpu": thetagpu,
    "mri": mri,
    "voyager": voyager,
    "aurora": aurora,
}


def system_names() -> List[str]:
    """Names accepted by :func:`make_system`."""
    return sorted(_SYSTEMS)


def make_system(name: str, nodes: int = 1, nics: Optional[int] = None,
                payloads: bool = True) -> Cluster:
    """Build a named system with ``nodes`` nodes.

    ``nics`` overrides the per-node rail count (default: each
    preset's single-rail baseline, which keeps calibrated virtual
    times untouched).  ``payloads=False`` builds storage-free devices
    (:class:`~repro.hw.device.Accelerator`): the same virtual times for
    programs that never read what they move, such as OMB sweeps.

    >>> make_system("thetagpu", 2).device_count
    16
    """
    try:
        factory = _SYSTEMS[name.strip().lower()]
    except KeyError:
        raise ConfigError(
            f"unknown system {name!r}; expected one of {system_names()}") from None
    return factory(nodes, nics=1 if nics is None else nics, payloads=payloads)


#: Table 1 of the paper, as data (used by the table1 experiment).
TABLE1 = {
    "thetagpu": {
        "CPU": "AMD EPYC 7742",
        "Memory": "1TB DDR4",
        "Sockets": 2,
        "Core/sockets": 64,
        "Accelerator/Node": "8 NVIDIA DGX A100 GPUs",
        "Device Memory": "40GB HBM2",
        "Intra-node": "NVSwitch (gen 2)",
        "Inter-node": "Mellanox ConnectX-6 VPI HDR",
    },
    "mri": {
        "CPU": "AMD EPYC 7713",
        "Memory": "256 GB DDR4",
        "Sockets": 2,
        "Core/sockets": 64,
        "Accelerator/Node": "2 AMD MI100 GPUs",
        "Device Memory": "32 GB HBM2",
        "Intra-node": "PCIe",
        "Inter-node": "Mellanox ConnectX-6 HDR",
    },
    "voyager": {
        "CPU": "Intel Xeon Gold 6336Y",
        "Memory": "512 GB DDR4",
        "Sockets": 2,
        "Core/sockets": 24,
        "Accelerator/Node": "8 Habana Gaudi Processors",
        "Device Memory": "32 GB HBM2",
        "Intra-node": "Gaudi RoCE v2",
        "Inter-node": "Arista 400 Gbps",
    },
}
