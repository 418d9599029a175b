"""Backend plugin registry.

"Treats CCLs as plug-ins" (§1.2 advantage 6): backends register by
name, and the abstraction layer resolves one per vendor at runtime.
Extending to a new CCL (the paper names oneCCL as future work) is a
subclass declaring its ``capabilities`` descriptor and a
``register_backend`` call.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Type

from repro.errors import CCLBackendUnavailable
from repro.hw.vendors import Vendor
from repro.xccl.backend import CCLBackend
from repro.xccl.hccl import HCCLBackend
from repro.xccl.msccl import MSCCLBackend
from repro.xccl.nccl import NCCL2_11Backend, NCCL2_12Backend, NCCLBackend
from repro.xccl.oneccl import OneCCLBackend
from repro.xccl.rccl import RCCLBackend

_REGISTRY: Dict[str, Type[CCLBackend]] = {}
_INSTANCES: Dict[str, CCLBackend] = {}


def register_backend(name: str, cls: Type[CCLBackend]) -> None:
    """Register (or replace) a backend class under ``name``."""
    _REGISTRY[name.lower()] = cls
    _INSTANCES.pop(name.lower(), None)


def available_backends() -> List[str]:
    """Names accepted by :func:`get_backend`."""
    return sorted(_REGISTRY)


def get_backend(name: str) -> CCLBackend:
    """A (cached) backend instance by name."""
    key = name.lower()
    if key not in _REGISTRY:
        raise CCLBackendUnavailable(
            f"no CCL backend named {name!r}; have {available_backends()}")
    if key not in _INSTANCES:
        _INSTANCES[key] = _REGISTRY[key]()
    return _INSTANCES[key]


def backend_for_vendor(vendor: Vendor, preferred: Optional[str] = None) -> CCLBackend:
    """Resolve the backend driving ``vendor`` devices.

    ``preferred`` (e.g. ``"msccl"`` on NVIDIA) is honored when
    compatible; otherwise the vendor's native CCL is returned.
    """
    if preferred:
        backend = get_backend(preferred)
        if vendor not in backend.vendors:
            raise CCLBackendUnavailable(
                f"backend {preferred!r} does not support {vendor.value} devices")
        return backend
    for name in available_backends():
        backend = get_backend(name)
        if vendor in backend.vendors and backend.name == vendor.native_ccl:
            return backend
    raise CCLBackendUnavailable(f"no CCL backend for vendor {vendor.value}")


# built-in plug-ins
register_backend("nccl", NCCLBackend)
register_backend("nccl-2.11", NCCL2_11Backend)
register_backend("nccl-2.12", NCCL2_12Backend)
register_backend("rccl", RCCLBackend)
register_backend("hccl", HCCLBackend)
register_backend("msccl", MSCCLBackend)
register_backend("oneccl", OneCCLBackend)  # the paper's future work (§6)
