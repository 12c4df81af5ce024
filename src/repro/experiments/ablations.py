"""Ablations of the methodology's design choices.

Four studies beyond the paper's own evaluation:

* **Signature composition** — cluster on BBV only, LDV only, or both.
  The combined signature is the paper's (and BarrierPoint's) choice; the
  ablation quantifies what each half contributes.
* **maxK / BIC threshold** — how the selection size and error react to
  the clustering budget.
* **Dropping insignificant barrier points** — Section VI-C notes that
  the original BarrierPoint's weight-based dropping "affects the cache
  estimations significantly"; this reproduces that observation.
* **Measurement repetitions** — how much of the paper's 20-repetition
  protocol is actually needed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.api.builder import build_pipeline
from repro.clustering.simpoint import SimPointOptions
from repro.core.selection import BarrierPointSelection
from repro.experiments.config import ExperimentConfig, default_config
from repro.hw.measure import MeasurementProtocol
from repro.isa.descriptors import ISA
from repro.util.tables import render_table

__all__ = [
    "AblationPoint",
    "AblationResult",
    "drop_insignificant",
    "signature_ablation",
    "maxk_ablation",
    "drop_small_ablation",
    "repetitions_ablation",
]


@dataclass(frozen=True)
class AblationPoint:
    """One ablation setting and its resulting errors (percent)."""

    setting: str
    k: int
    errors: dict[str, float]


@dataclass(frozen=True)
class AblationResult:
    """A labelled series of ablation points."""

    name: str
    app: str
    threads: int
    points: list[AblationPoint]

    def render(self) -> str:
        """ASCII rendering of the ablation series."""
        cells = [
            (
                p.setting,
                p.k,
                *(f"{p.errors[m]:.2f}" for m in sorted(p.errors)),
            )
            for p in self.points
        ]
        headers = ("Setting", "k") + tuple(sorted(self.points[0].errors))
        return render_table(
            headers,
            cells,
            title=f"Ablation [{self.name}] on {self.app} ({self.threads} threads)",
        )


def drop_insignificant(
    selection: BarrierPointSelection, min_weight_fraction: float
) -> BarrierPointSelection:
    """Drop representatives below a weight share, rescaling the rest.

    Mirrors original BarrierPoint's significance filter: clusters whose
    representatives contribute less than ``min_weight_fraction`` of the
    instructions are removed and the remaining multipliers are rescaled
    so total instructions stay estimable.
    """
    if not 0.0 <= min_weight_fraction < 1.0:
        raise ValueError("min_weight_fraction must be in [0, 1)")
    total = selection.weights.sum()
    covered = selection.multipliers * selection.weights[selection.representatives]
    keep = covered / total >= min_weight_fraction
    if not keep.any():
        keep[np.argmax(covered)] = True
    scale = covered.sum() / covered[keep].sum()
    return replace(
        selection,
        representatives=selection.representatives[keep],
        multipliers=selection.multipliers[keep] * scale,
    )


def _errors_pct(report) -> dict[str, float]:
    from repro.hw.pmu import PMU_METRICS

    return {m: report.error_pct(m) for m in PMU_METRICS}


def signature_ablation(
    app, threads: int = 8, config: ExperimentConfig | None = None
) -> AblationResult:
    """BBV-only vs LDV-only vs combined signature vectors."""
    config = config or default_config()
    points = []
    for label, bbv_weight in (("BBV only", 1.0), ("LDV only", 0.0), ("BBV+LDV", 0.5)):
        pipe_cfg = replace(config.pipeline_config(), bbv_weight=bbv_weight)
        pipeline = build_pipeline(app, threads, config=pipe_cfg).build()
        selection = pipeline.discover()[0]
        report = pipeline.evaluate(selection, ISA.ARMV8).report
        points.append(
            AblationPoint(setting=label, k=selection.k, errors=_errors_pct(report))
        )
    return AblationResult("signature composition", app.name, threads, points)


def maxk_ablation(
    app,
    threads: int = 8,
    config: ExperimentConfig | None = None,
    max_ks: tuple[int, ...] = (5, 10, 20, 30),
) -> AblationResult:
    """Vary the clustering budget maxK."""
    config = config or default_config()
    points = []
    for max_k in max_ks:
        pipe_cfg = replace(
            config.pipeline_config(), simpoint=SimPointOptions(max_k=max_k)
        )
        pipeline = build_pipeline(app, threads, config=pipe_cfg).build()
        selection = pipeline.discover()[0]
        report = pipeline.evaluate(selection, ISA.X86_64).report
        points.append(
            AblationPoint(
                setting=f"maxK={max_k}", k=selection.k, errors=_errors_pct(report)
            )
        )
    return AblationResult("maxK", app.name, threads, points)


def drop_small_ablation(
    app,
    threads: int = 8,
    config: ExperimentConfig | None = None,
    thresholds: tuple[float, ...] = (0.0, 0.001, 0.005, 0.02),
) -> AblationResult:
    """Reproduce Section VI-C: dropping small BPs hurts cache estimates."""
    config = config or default_config()
    pipeline = build_pipeline(app, threads, config=config.pipeline_config()).build()
    base = pipeline.discover()[0]
    points = []
    for threshold in thresholds:
        selection = drop_insignificant(base, threshold) if threshold else base
        report = pipeline.evaluate(selection, ISA.X86_64).report
        points.append(
            AblationPoint(
                setting=f"drop<{threshold:.3f}",
                k=selection.k,
                errors=_errors_pct(report),
            )
        )
    return AblationResult("drop insignificant", app.name, threads, points)


def repetitions_ablation(
    app,
    threads: int = 8,
    config: ExperimentConfig | None = None,
    repetition_counts: tuple[int, ...] = (1, 5, 20),
) -> AblationResult:
    """Vary the measurement repetition count of Step 3."""
    config = config or default_config()
    points = []
    for reps in repetition_counts:
        pipe_cfg = replace(
            config.pipeline_config(), protocol=MeasurementProtocol(repetitions=reps)
        )
        pipeline = build_pipeline(app, threads, config=pipe_cfg).build()
        selection = pipeline.discover()[0]
        report = pipeline.evaluate(selection, ISA.ARMV8).report
        points.append(
            AblationPoint(
                setting=f"reps={reps}", k=selection.k, errors=_errors_pct(report)
            )
        )
    return AblationResult("measurement repetitions", app.name, threads, points)
