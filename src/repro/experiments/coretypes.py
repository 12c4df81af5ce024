"""Future work F-2: in-order versus out-of-order core types.

Section VIII proposes "evaluating the applicability of the methodology
across different core types, such as in-order versus out-of-order".
This study keeps the paper's x86_64 discovery but validates the barrier
point sets on two ARMv8 parts sharing ISA and cache geometry: the
out-of-order X-Gene and a hypothetical in-order A53-class core
(:data:`repro.hw.machines.ARMV8_IN_ORDER`).

The expectation — borne out here — is that the abstract signatures stay
representative: the in-order core changes *absolute* cycle counts
dramatically (its CPI is several times higher), but within-cluster
behaviour moves together, so the estimation errors stay in the same band
as the out-of-order validation.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Mapping

from repro.exec.request import StudyRequest
from repro.exec.scheduler import StudyScheduler
from repro.experiments.config import ExperimentConfig, default_config
from repro.hw.pmu import PMU_METRICS
from repro.util.tables import render_table

__all__ = ["CoreTypeRow", "CoreTypeStudy", "requests", "build", "run"]

_DEFAULT_APPS = ("AMGMk", "CoMD", "HPCG", "miniFE")


@dataclass(frozen=True)
class CoreTypeRow:
    """Errors of one app on both core types (same selection)."""

    app: str
    k: int
    out_of_order: dict[str, float]
    in_order: dict[str, float]
    cpi_ratio: float


@dataclass(frozen=True)
class CoreTypeStudy:
    """The in-order vs out-of-order validation sweep."""

    threads: int
    rows: list[CoreTypeRow]

    def row(self, app: str) -> CoreTypeRow:
        """Lookup one application's row."""
        for row in self.rows:
            if row.app == app:
                return row
        raise KeyError(f"no core-type row for {app}")

    def render(self) -> str:
        """ASCII rendering of the comparison."""
        cells = [
            (
                r.app,
                r.k,
                " ".join(f"{r.out_of_order[m]:.2f}" for m in PMU_METRICS),
                " ".join(f"{r.in_order[m]:.2f}" for m in PMU_METRICS),
                f"{r.cpi_ratio:.2f}x",
            )
            for r in self.rows
        ]
        return render_table(
            (
                "Application",
                "k",
                "OoO X-Gene err (cyc/ins/L1D/L2D %)",
                "In-order err (%)",
                "CPI ratio (IO/OoO)",
            ),
            cells,
            title=f"Future work: core-type validation ({self.threads} threads, ARMv8)",
        )


def requests(
    config: ExperimentConfig,
    apps: tuple[str, ...] = _DEFAULT_APPS,
    threads: int = 8,
) -> list[StudyRequest]:
    """One core-type validation cell per application."""
    return [
        StudyRequest(kind="coretypes", app=app, threads=threads) for app in apps
    ]


def coretype_cell(request: StudyRequest, config: ExperimentConfig) -> dict:
    """Executor for ``"coretypes"`` cells: one app on both core types."""
    from repro.api.builder import build_pipeline
    from repro.exec.stagestore import stage_store_for
    from repro.hw.machines import APM_XGENE, ARMV8_IN_ORDER
    from repro.hw.pmu import CYCLES, INSTRUCTIONS
    from repro.isa.descriptors import ISA
    from repro.workloads.registry import create

    pipeline = build_pipeline(
        create(request.app), request.threads, config=config.pipeline_config()
    ).build()
    # The crossarch cell at this width stores the same discovery.
    selection = pipeline.discover(stage_store_for(config))[0]
    ooo = pipeline.evaluate(selection, ISA.ARMV8, machine=APM_XGENE)
    io = pipeline.evaluate(selection, ISA.ARMV8, machine=ARMV8_IN_ORDER)

    ooo_totals = pipeline.counters_on(ISA.ARMV8, APM_XGENE).totals().sum(axis=0)
    io_totals = pipeline.counters_on(ISA.ARMV8, ARMV8_IN_ORDER).totals().sum(axis=0)
    cpi_ratio = (io_totals[CYCLES] / io_totals[INSTRUCTIONS]) / (
        ooo_totals[CYCLES] / ooo_totals[INSTRUCTIONS]
    )
    return asdict(
        CoreTypeRow(
            app=request.app,
            k=int(selection.k),
            out_of_order={m: float(ooo.report.error_pct(m)) for m in PMU_METRICS},
            in_order={m: float(io.report.error_pct(m)) for m in PMU_METRICS},
            cpi_ratio=float(cpi_ratio),
        )
    )


def build(
    results: Mapping[StudyRequest, dict],
    config: ExperimentConfig,
    apps: tuple[str, ...] = _DEFAULT_APPS,
    threads: int = 8,
) -> CoreTypeStudy:
    """Assemble the core-type study from executed cells."""
    rows = [
        CoreTypeRow(**results[request])
        for request in requests(config, apps, threads)
    ]
    return CoreTypeStudy(threads=threads, rows=rows)


def run(
    config: ExperimentConfig | None = None,
    apps: tuple[str, ...] = _DEFAULT_APPS,
    threads: int = 8,
    scheduler: StudyScheduler | None = None,
) -> CoreTypeStudy:
    """Validate x86-discovered sets on both ARMv8 core types."""
    config = config or default_config()
    scheduler = scheduler or StudyScheduler(config)
    return build(scheduler.run(requests(config, apps, threads)), config, apps, threads)
