"""Shared fixtures: small clusters and an SPMD runner helper."""

from __future__ import annotations

import pytest

from repro.hw.systems import make_system
from repro.sim.engine import Engine


@pytest.fixture
def thetagpu1():
    """One ThetaGPU node (8 simulated A100s)."""
    return make_system("thetagpu", 1)


@pytest.fixture
def thetagpu2():
    """Two ThetaGPU nodes."""
    return make_system("thetagpu", 2)


@pytest.fixture
def mri2():
    """Two MRI nodes (2 MI100s each)."""
    return make_system("mri", 2)


@pytest.fixture
def voyager1():
    """One Voyager node (8 Gaudis)."""
    return make_system("voyager", 1)


@pytest.fixture
def spmd():
    """Run an SPMD body: ``spmd(cluster, fn, nranks=..., ...) -> [ret]``."""

    def runner(cluster, fn, nranks=None, ranks_per_node=None, trace=False):
        engine = Engine(cluster, nranks=nranks, ranks_per_node=ranks_per_node,
                        trace=trace)
        return engine.run(fn)

    return runner
