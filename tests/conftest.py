"""Shared fixtures for the test suite."""

from __future__ import annotations

# Imported before numpy, as the CLI does, so the test process and its
# forked pool workers run numpy's BLAS on one thread too.
import repro  # noqa: F401

# isort: split
import numpy as np
import pytest

from repro.ir.blocks import BasicBlock
from repro.ir.memory import MemoryPattern, PatternKind
from repro.ir.mix import InstructionMix
from repro.ir.program import Program
from repro.ir.regions import Drift, RegionTemplate
from repro.util.rng import RngTree


def pytest_configure(config: pytest.Config) -> None:
    config.addinivalue_line(
        "markers", "properties: hypothesis property-based tests"
    )


@pytest.fixture(autouse=True)
def _pool_starts_in_workers(monkeypatch):
    """Tests of a pool exercise the pool itself: its first cells run in
    workers unless a test turns the inline start
    (``ProcessSupervision.INLINE_SECONDS``) back on.  One worker still
    runs every cell in the test process."""
    from repro.exec.supervise import ProcessSupervision

    monkeypatch.setattr(ProcessSupervision, "INLINE_SECONDS", 0.0)


@pytest.fixture
def scratch_registry():
    """Unregister any machines a test registers."""
    from repro.api.registry import machine_registry

    before = set(machine_registry.names())
    yield
    for name in set(machine_registry.names()) - before:
        machine_registry.unregister(name)


@pytest.fixture
def rng_tree() -> RngTree:
    """A deterministic randomness tree for tests."""
    return RngTree(12345)


@pytest.fixture
def simple_mix() -> InstructionMix:
    """A generic vectorisable instruction mix."""
    return InstructionMix(
        flops=4, int_ops=3, loads=2, stores=1, branches=1, vectorisable=0.8
    )


@pytest.fixture
def stream_pattern() -> MemoryPattern:
    """A streaming pattern with a 1 MiB footprint."""
    return MemoryPattern(
        PatternKind.STREAM,
        footprint_bytes=2**20,
        hot_bytes=8 * 1024,
        hot_fraction=0.5,
    )


@pytest.fixture
def toy_program(simple_mix, stream_pattern) -> Program:
    """A two-template program with 30 barrier points."""
    block_a = BasicBlock("toy/alpha/b0", "b0", simple_mix, stream_pattern)
    gather = MemoryPattern(
        PatternKind.GATHER, footprint_bytes=8 * 2**20, hot_bytes=16 * 1024,
        hot_fraction=0.4,
    )
    block_b = BasicBlock(
        "toy/beta/b0",
        "b0",
        InstructionMix(flops=2, int_ops=4, loads=3, stores=1, branches=1.5),
        gather,
    )
    alpha = RegionTemplate(
        "alpha", (block_a,), (50_000.0,), instance_cv=0.02,
        drift=Drift(footprint_slope=0.3),
    )
    beta = RegionTemplate("beta", (block_b,), (30_000.0,), instance_cv=0.05)
    sequence = np.array([0, 1] * 15)
    return Program("toy", (alpha, beta), sequence)
