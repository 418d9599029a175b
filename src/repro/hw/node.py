"""A node: host CPU, accelerators, intra-node interconnect, NIC.

Devices hang off the node's interconnect — a switch (NVSwitch-style)
or the host bus (PCIe) — and each has a GPU-direct segment to the NIC.
Every device-to-device path is therefore two ``intra_link`` segments
(through the switch, the bus or the NIC alike) and every device-to-NIC
path one, which is all the path queries below return.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.errors import TopologyError
from repro.hw.device import Accelerator, HostCPU
from repro.hw.links import HOST_MEMCPY, LinkModel
from repro.hw.vendors import Vendor


class Node:
    """One machine of the cluster.

    Args:
        name: node hostname.
        cpu: host processor description.
        devices: accelerators in local-index order.
        intra_link: device-to-device interconnect within the node.
        nic: the node's network adapter link model.
        switched: True when devices connect through a switch
            (NVSwitch) giving every device its own full-bandwidth
            port; False for a shared bus (PCIe).
        nics: number of network adapters (rails).  Each NIC is an
            independent inter-node channel with the ``nic`` link
            model; devices map to rails by ``local_index % nics``,
            so striped flows from different devices leave the node
            in parallel (DGX-A100-style multi-rail).
    """

    def __init__(self, name: str, cpu: HostCPU, devices: List[Accelerator],
                 intra_link: LinkModel, nic: LinkModel,
                 switched: bool = True, nics: int = 1) -> None:
        if nics < 1:
            raise TopologyError(f"{name}: nics must be >= 1, got {nics}")
        self.name = name
        self.cpu = cpu
        self.devices = list(devices)
        self.intra_link = intra_link
        self.nic = nic
        self.switched = switched
        self.nics = nics
        self.host_link = HOST_MEMCPY
        for i, dev in enumerate(self.devices):
            dev.local_index = i
            dev.node = self

    # -- queries ----------------------------------------------------------

    @property
    def device_count(self) -> int:
        """Number of accelerators on the node."""
        return len(self.devices)

    @property
    def vendors(self) -> Tuple[Vendor, ...]:
        """Distinct device vendors on this node, sorted by name — the
        per-node input to mixed-vendor backend selection."""
        return tuple(sorted({d.vendor for d in self.devices},
                            key=lambda v: v.value))

    @property
    def vendor(self) -> Vendor:
        """The node's single device vendor.  Mixed-vendor *clusters*
        are modeled as single-vendor nodes (islands); a node mixing
        vendors within itself is a topology error."""
        vendors = self.vendors
        if len(vendors) != 1:
            raise TopologyError(
                f"{self.name} mixes device vendors "
                f"{[v.value for v in vendors]}; per-node backend "
                f"selection needs single-vendor nodes")
        return vendors[0]

    def device(self, local_index: int) -> Accelerator:
        """Accelerator at ``local_index``; raises TopologyError if absent."""
        if not 0 <= local_index < len(self.devices):
            raise TopologyError(
                f"{self.name}: no device {local_index} (has {len(self.devices)})")
        return self.devices[local_index]

    def intra_path_links(self, a: int, b: int) -> List[LinkModel]:
        """Link segments on the shortest path between two local devices
        (device -> switch, bus or NIC -> device)."""
        if a == b:
            return []
        self.device(a)
        self.device(b)
        return [self.intra_link, self.intra_link]

    def device_to_nic_links(self, local_index: int) -> List[LinkModel]:
        """Link segments from a device to the node's NIC (GPU-direct)."""
        self.device(local_index)
        return [self.intra_link]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kinds = {d.vendor.value for d in self.devices}
        return f"<Node {self.name}: {len(self.devices)} dev {sorted(kinds)}>"
