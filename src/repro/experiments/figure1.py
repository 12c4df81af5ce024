"""Figure 1 — MCB phase behaviour and barrier-point set sensitivity.

The paper's Figure 1 plots, for MCB's ten barrier points (1 thread,
non-vectorised, x86_64), the CPI and L2D MPKI relative to the first
barrier point: the L2D MPKI climbs roughly an order of magnitude as the
particles scatter.  It also contrasts two discovered barrier-point sets
of equal size whose L2D-miss estimation errors differ strongly (<1%
versus ~8% in the paper) — the motivation for exploring several sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.exec.request import StudyRequest
from repro.exec.scheduler import StudyScheduler
from repro.experiments.config import ExperimentConfig, default_config
from repro.util.tables import render_table

__all__ = ["Figure1", "requests", "build", "run"]


@dataclass(frozen=True)
class Figure1:
    """MCB per-barrier-point series plus the two contrasted sets.

    Attributes
    ----------
    relative_cpi / relative_mpki:
        Ten values, normalised to the first barrier point.
    set_a / set_b:
        (representatives, L2D error %) of the best and worst discovered
        sets of the same size.
    """

    relative_cpi: list[float]
    relative_mpki: list[float]
    set_a: tuple[list[int], float]
    set_b: tuple[list[int], float]

    def render(self) -> str:
        """ASCII rendering of the series and the set comparison."""
        rows = [
            (f"BP_{i + 1}", f"{c:.2f}", f"{m:.2f}")
            for i, (c, m) in enumerate(zip(self.relative_cpi, self.relative_mpki, strict=True))
        ]
        table = render_table(
            ("Barrier point", "CPI (rel. BP_1)", "L2D MPKI (rel. BP_1)"),
            rows,
            title="Figure 1: MCB phase drift (1 thread, non-vectorised, x86_64)",
        )
        sets = (
            f"\nBP Set 1 {self.set_a[0]}: L2D miss estimation error "
            f"{self.set_a[1]:.2f}%"
            f"\nBP Set 2 {self.set_b[0]}: L2D miss estimation error "
            f"{self.set_b[1]:.2f}%"
        )
        return table + sets


def requests(config: ExperimentConfig) -> list[StudyRequest]:
    """Figure 1's single cell: MCB, 1 thread, non-vectorised."""
    return [StudyRequest(kind="figure1", app="MCB", threads=1)]


def figure1_cell(request: StudyRequest, config: ExperimentConfig) -> dict:
    """Executor for the ``"figure1"`` cell (runs in scheduler workers)."""
    from repro.api.builder import build_pipeline
    from repro.exec.stagestore import stage_store_for
    from repro.hw.pmu import CYCLES, INSTRUCTIONS, L2D_MISSES
    from repro.isa.descriptors import ISA
    from repro.workloads.registry import create

    pipeline = build_pipeline(
        create(request.app),
        threads=request.threads,
        config=config.pipeline_config(),
    ).build()
    measured = pipeline.measured_means(ISA.X86_64)  # (10, 1, 4)

    cycles = measured[:, 0, CYCLES]
    instr = measured[:, 0, INSTRUCTIONS]
    l2d = measured[:, 0, L2D_MISSES]
    cpi = cycles / instr
    mpki = 1000.0 * l2d / instr

    # The crossarch cell at this width stores the same discovery.
    selections = pipeline.discover(stage_store_for(config))
    evaluations = pipeline.evaluate_many(selections, ISA.X86_64)
    scored = sorted(
        evaluations, key=lambda ev: ev.report.error_mean[L2D_MISSES]
    )
    best, worst = scored[0], scored[-1]

    return {
        "relative_cpi": [float(v) for v in cpi / cpi[0]],
        "relative_mpki": [float(v) for v in mpki / mpki[0]],
        "set_a": [
            [int(i) for i in best.selection.representatives],
            best.report.error_pct("l2d_misses"),
        ],
        "set_b": [
            [int(i) for i in worst.selection.representatives],
            worst.report.error_pct("l2d_misses"),
        ],
    }


def build(results: Mapping[StudyRequest, dict], config: ExperimentConfig) -> Figure1:
    """Assemble Figure 1 from its executed cell."""
    payload = results[requests(config)[0]]
    return Figure1(
        relative_cpi=[float(v) for v in payload["relative_cpi"]],
        relative_mpki=[float(v) for v in payload["relative_mpki"]],
        set_a=([int(i) for i in payload["set_a"][0]], float(payload["set_a"][1])),
        set_b=([int(i) for i in payload["set_b"][0]], float(payload["set_b"][1])),
    )


def run(
    config: ExperimentConfig | None = None,
    scheduler: StudyScheduler | None = None,
) -> Figure1:
    """Measure MCB per-barrier-point behaviour and contrast two sets."""
    config = config or default_config()
    scheduler = scheduler or StudyScheduler(config)
    return build(scheduler.run(requests(config)), config)
