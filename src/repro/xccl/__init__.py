"""Simulated vendor collective communication libraries (xCCLs).

One backend class per vendor library the paper integrates — NCCL
(NVIDIA), RCCL (AMD), HCCL (Habana), MSCCL (Microsoft) — each exposing
the NCCL-style API surface: communicator init, the five built-in
collectives (AllReduce, Broadcast, Reduce, AllGather, ReduceScatter),
point-to-point send/recv, and group calls.  Each backend carries its
own launch overheads, algorithm constants (from
:mod:`repro.perfmodel.params`), and capability descriptor
(:mod:`repro.xccl.caps`; HCCL: float only).

The unified ``xccl*`` API of §3.1 lives in :mod:`repro.xccl.api`.
"""

from repro.xccl.comm import XCCLComm
from repro.xccl.backend import CCLBackend
from repro.xccl.nccl import NCCLBackend
from repro.xccl.rccl import RCCLBackend
from repro.xccl.hccl import HCCLBackend
from repro.xccl.msccl import MSCCLBackend
from repro.xccl.msccl_ir import Schedule, Step, execute as execute_schedule
from repro.xccl.oneccl import OneCCLBackend
from repro.xccl.registry import get_backend, register_backend, available_backends
from repro.xccl import api

__all__ = [
    "XCCLComm",
    "CCLBackend",
    "NCCLBackend",
    "RCCLBackend",
    "HCCLBackend",
    "MSCCLBackend",
    "OneCCLBackend",
    "Schedule",
    "Step",
    "execute_schedule",
    "get_backend",
    "register_backend",
    "available_backends",
    "api",
]
