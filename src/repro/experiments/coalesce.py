"""Future work F-1: barrier-point coalescing study.

Implements and evaluates the paper's Section VIII proposal to "adjust
the size of barrier points so that more applications benefit from the
BarrierPoint methodology".  For a fine-grained application (LULESH by
default) it sweeps the minimum super-region size and reports the
resulting estimation errors: as regions grow, per-read instrumentation
overhead amortises away and PMU quantisation noise stops dominating, so
the errors fall toward the well-behaved apps' band — at the cost of a
coarser (less parallel-simulatable) partition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.api.builder import StagePipeline, build_pipeline
from repro.clustering.simpoint import run_simpoint
from repro.core.coalesce import aggregate_observation, aggregate_values, coalesce_groups
from repro.core.reconstruction import reconstruct_totals
from repro.core.selection import select_barrier_points
from repro.core.signatures import build_signatures
from repro.core.validation import EstimationReport, validate_estimate
from repro.exec.request import StudyRequest
from repro.exec.scheduler import StudyScheduler
from repro.experiments.config import ExperimentConfig, default_config
from repro.hw.machines import machine_for
from repro.hw.measure import measure_barrier_point_means, measure_roi_totals
from repro.hw.perf import TrueCounters
from repro.instrumentation.collector import BarrierPointCollector
from repro.isa.descriptors import ISA
from repro.util.tables import render_table
from repro.workloads.registry import create

__all__ = ["CoalescePoint", "CoalesceStudy", "requests", "build", "run"]

_DEFAULT_THRESHOLDS = (0.0, 1e6, 5e6, 2e7)


@dataclass(frozen=True)
class CoalescePoint:
    """Errors at one minimum super-region size."""

    min_instructions: float
    n_regions: int
    k: int
    errors: dict[str, float]


@dataclass(frozen=True)
class CoalesceStudy:
    """The coalescing sweep for one application/platform."""

    app: str
    threads: int
    isa: str
    points: list[CoalescePoint]

    def render(self) -> str:
        """ASCII rendering of the sweep."""
        from repro.hw.pmu import PMU_METRICS

        rows = [
            (
                f"{p.min_instructions:.0e}" if p.min_instructions else "off",
                p.n_regions,
                p.k,
                *(f"{p.errors[m]:.2f}" for m in PMU_METRICS),
            )
            for p in self.points
        ]
        return render_table(
            ("Min region size", "Regions", "k", "cyc %", "ins %", "L1D %", "L2D %"),
            rows,
            title=(
                f"Future work: coalescing {self.app} barrier points "
                f"({self.threads} threads, {self.isa})"
            ),
        )


def _evaluate_grouped(
    pipeline: StagePipeline,
    groups: np.ndarray,
    isa: ISA,
) -> tuple[EstimationReport, int]:
    """Discovery + evaluation on the coalesced partition."""
    machine = machine_for(isa)
    x86_counters = pipeline.counters(ISA.X86_64)
    collector = BarrierPointCollector(
        pipeline.context.tree.child("coalesce-discovery", pipeline.app.name, pipeline.threads)
    )
    observation = aggregate_observation(
        collector.collect(pipeline.trace(ISA.X86_64), x86_counters, 0), groups
    )
    signatures = build_signatures((observation,), pipeline.config.bbv_weight)
    gen = pipeline.context.tree.generator(
        "coalesce-simpoint", pipeline.app.name, pipeline.threads
    )
    choice = run_simpoint(signatures, signatures.weights, gen, pipeline.config.simpoint)
    selection = select_barrier_points(choice, signatures.weights)

    # Target-side measurement: true counters per *group*, one read each.
    target = pipeline.counters(isa)
    grouped_values = aggregate_values(target.values, groups)
    grouped_counters = TrueCounters(
        values=grouped_values, trace=target.trace, machine_name=machine.name
    )
    rng = pipeline.context.tree.child(
        "coalesce-measure", pipeline.app.name, pipeline.threads, isa.value
    )
    measured = measure_barrier_point_means(
        grouped_counters, machine, pipeline.config.protocol, rng
    )
    reference = measure_roi_totals(
        grouped_counters, machine, pipeline.config.protocol, rng
    )
    estimate = reconstruct_totals(selection, measured[selection.representatives])
    return validate_estimate(estimate, reference), selection.k


def requests(
    config: ExperimentConfig,
    app_name: str = "LULESH",
    threads: int = 8,
    isa: ISA = ISA.X86_64,
    thresholds: tuple[float, ...] = _DEFAULT_THRESHOLDS,
) -> list[StudyRequest]:
    """One cell per super-region size threshold (the sweep's x-axis)."""
    return [
        StudyRequest(
            kind="coalesce",
            app=app_name,
            threads=threads,
            params=(("isa", isa.value), ("threshold", float(threshold))),
        )
        for threshold in thresholds
    ]


def coalesce_cell(request: StudyRequest, config: ExperimentConfig) -> dict:
    """Executor for ``"coalesce"`` cells: one threshold of the sweep.

    Each cell rebuilds its pipeline, but every random stream is
    path-addressed, so the per-threshold numbers are identical to the
    old shared-pipeline loop.
    """
    from repro.hw.pmu import PMU_METRICS

    isa = ISA(request.param("isa"))
    threshold = float(request.param("threshold"))
    pipeline = build_pipeline(
        create(request.app), request.threads, config=config.pipeline_config()
    ).build()
    weights = pipeline.counters(ISA.X86_64).bp_instructions()
    groups = coalesce_groups(weights, threshold)
    report, k = _evaluate_grouped(pipeline, groups, isa)
    return {
        "min_instructions": threshold,
        "n_regions": int(groups.max()) + 1,
        "k": int(k),
        "errors": {m: float(report.error_pct(m)) for m in PMU_METRICS},
    }


def build(
    results: Mapping[StudyRequest, dict],
    config: ExperimentConfig,
    app_name: str = "LULESH",
    threads: int = 8,
    isa: ISA = ISA.X86_64,
    thresholds: tuple[float, ...] = _DEFAULT_THRESHOLDS,
) -> CoalesceStudy:
    """Assemble the sweep from executed cells (threshold order kept)."""
    points = [
        CoalescePoint(**results[request])
        for request in requests(config, app_name, threads, isa, thresholds)
    ]
    return CoalesceStudy(app=app_name, threads=threads, isa=isa.value, points=points)


def run(
    config: ExperimentConfig | None = None,
    app_name: str = "LULESH",
    threads: int = 8,
    isa: ISA = ISA.X86_64,
    thresholds: tuple[float, ...] = _DEFAULT_THRESHOLDS,
    scheduler: StudyScheduler | None = None,
) -> CoalesceStudy:
    """Sweep the minimum super-region size on a fine-grained app."""
    config = config or default_config()
    scheduler = scheduler or StudyScheduler(config)
    results = scheduler.run(requests(config, app_name, threads, isa, thresholds))
    return build(results, config, app_name, threads, isa, thresholds)
