"""The shape of the xCCL surface: what the unified API declares, and
where a backend's capability answers live.

* every ``xccl*`` function in :mod:`repro.xccl.api` reads every
  parameter it declares — an argument the call ignores is not part of
  its contract (the vendor stream is left out for that reason: a CCL
  call completes on the rank's clock before it returns);
* every backend, the registered ones and UCC's NCCL transport, binds a
  capability descriptor, and the dispatcher's capability stage gives
  the descriptor's verdict for every predefined MPI datatype and op.
"""

from __future__ import annotations

import ast
import inspect
import itertools

import pytest

from repro.baselines.ucc import UCCBackend
from repro.core.abstraction import XCCLAbstractionLayer
from repro.core.dispatch import CollectivePipeline
from repro.core.fallback import FallbackReason
from repro.mpi.datatypes import PREDEFINED
from repro.mpi.ops import PREDEFINED_OPS, user_op
from repro.xccl import api
from repro.xccl.caps import CapabilityDescriptor
from repro.xccl.registry import available_backends, get_backend


def _api_functions():
    tree = ast.parse(inspect.getsource(api))
    return [node for node in tree.body
            if isinstance(node, ast.FunctionDef)
            and node.name.startswith("xccl")]


@pytest.mark.parametrize("fn", _api_functions(), ids=lambda fn: fn.name)
def test_api_reads_every_parameter(fn):
    declared = [a.arg for a in fn.args.args + fn.args.kwonlyargs]
    read = {node.id for node in ast.walk(fn)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert [name for name in declared if name not in read] == []


def _backends():
    return [get_backend(name) for name in available_backends()] + [UCCBackend()]


@pytest.mark.parametrize("backend", _backends(),
                         ids=lambda b: f"{type(b).__name__}:{b.name}")
def test_capability_stage_answers_with_the_descriptor(backend):
    desc = backend.capabilities
    assert isinstance(desc, CapabilityDescriptor)
    pipeline = CollectivePipeline(XCCLAbstractionLayer(None, backend))
    ops = list(PREDEFINED_OPS.values()) + [user_op(lambda a, b: a)]
    for dt, op in itertools.product(PREDEFINED.values(), ops):
        decision = pipeline.capability("allreduce", dt, op, (), True)
        if not desc.allows_datatype(dt):
            expect = FallbackReason.DATATYPE
        elif not desc.allows_op(op):
            expect = FallbackReason.REDUCE_OP
        else:
            expect = None
        got = None if decision is None else decision.reason
        assert got == expect, (dt.name, op.name)
