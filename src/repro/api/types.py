"""Shared types of the public methodology API.

:class:`PipelineConfig`, :class:`EvaluationResult` and
:class:`SupportsProgram` live in their own module so the stage classes,
the builder and the study drivers can all import them without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

from repro.clustering.simpoint import SimPointOptions
from repro.core.selection import BarrierPointSelection
from repro.core.validation import EstimationReport
from repro.hw.measure import MeasurementProtocol
from repro.ir.program import Program
from repro.isa.descriptors import ISA

__all__ = [
    "SupportsProgram",
    "PipelineConfig",
    "EvaluationResult",
]


@runtime_checkable
class SupportsProgram(Protocol):
    """Anything that can supply a program per (threads, ISA) — the
    contract the workload classes implement."""

    name: str

    def program(self, threads: int, isa: ISA) -> Program:  # pragma: no cover
        """Build the region-of-interest program for a configuration."""
        ...


@dataclass(frozen=True)
class PipelineConfig:
    """Pipeline parameters; defaults follow the paper's protocol.

    Example
    -------
    >>> from repro.api import PipelineConfig
    >>> from repro.hw.measure import MeasurementProtocol
    >>> fast = PipelineConfig(
    ...     discovery_runs=3, protocol=MeasurementProtocol(repetitions=5)
    ... )
    >>> fast.discovery_runs, fast.seed
    (3, 2017)

    Attributes
    ----------
    discovery_runs:
        Barrier-point discovery repetitions (paper: 10).
    simpoint:
        Clustering options (maxK = 20 etc.).
    protocol:
        Measurement protocol (20 repetitions, pinned).
    bbv_weight:
        BBV/LDV balance inside signature vectors.
    seed:
        Root seed of the configuration's randomness tree.
    """

    discovery_runs: int = 10
    simpoint: SimPointOptions = field(default_factory=SimPointOptions)
    protocol: MeasurementProtocol = field(default_factory=MeasurementProtocol)
    bbv_weight: float = 0.5
    seed: int = 2017

    def __post_init__(self) -> None:
        if self.discovery_runs < 1:
            raise ValueError(f"discovery_runs must be >= 1, got {self.discovery_runs}")


@dataclass(frozen=True)
class EvaluationResult:
    """Validation of one barrier point set on one platform.

    Pairs the selection with its :class:`~repro.core.validation.EstimationReport`;
    ``report.primary_error`` (worst cycles/instructions error) is the
    ranking key every study uses to pick its best set.
    """

    label: str
    selection: BarrierPointSelection
    report: EstimationReport

    def __str__(self) -> str:
        return f"{self.label}: k={self.selection.k}, {self.report.summary()}"

