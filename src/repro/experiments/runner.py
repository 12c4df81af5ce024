"""Cross-architecture study cells.

Tables III/IV and every Figure 2 panel derive from the same underlying
sweep: one :func:`~repro.api.study.run_crossarch` per (application,
thread count).  Each such cell is declared as a ``"crossarch"``
:class:`~repro.exec.request.StudyRequest` (:func:`crossarch_request`)
and executed through the :class:`~repro.exec.scheduler.StudyScheduler`,
which deduplicates cells shared across experiments, runs them on the
configured backend and caches the JSON payloads content-addressed on
disk; :func:`decode_summaries` turns the executed payloads back into
:class:`StudySummary` objects.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Mapping

from repro.exec.request import StudyRequest
from repro.experiments.config import ExperimentConfig
from repro.hw.pmu import PMU_METRICS

__all__ = [
    "ConfigSummary",
    "StudySummary",
    "crossarch_request",
    "crossarch_cell",
    "decode_summaries",
]


@dataclass(frozen=True)
class ConfigSummary:
    """Reduced per-configuration-label result (one Table IV half-row).

    All error values are percentages (Figure 2 / Table IV units).
    """

    label: str
    k: int
    error_mean: dict[str, float]
    error_std: dict[str, float]
    bp_fraction: float
    total_instruction_pct: float
    largest_instruction_pct: float
    speedup: float


@dataclass(frozen=True)
class StudySummary:
    """Everything the table/figure drivers need from one study cell."""

    app: str
    threads: int
    total_barrier_points: int
    configs: dict[str, ConfigSummary]
    failures: dict[str, str]
    selected_counts: list[int]

    def config(self, label: str) -> ConfigSummary:
        """Summary for one configuration label."""
        return self.configs[label]

    def min_selected(self) -> int:
        """Fewest barrier points selected across discovery runs."""
        return min(self.selected_counts)

    def max_selected(self) -> int:
        """Most barrier points selected across discovery runs."""
        return max(self.selected_counts)

    def to_payload(self) -> dict:
        """JSON-shaped payload for the cache store / process boundary."""
        return asdict(self)

    @classmethod
    def from_payload(cls, payload: Mapping) -> "StudySummary":
        """Rebuild a summary from :meth:`to_payload` output."""
        configs = {
            label: ConfigSummary(**data)
            for label, data in payload["configs"].items()
        }
        return cls(
            app=payload["app"],
            threads=payload["threads"],
            total_barrier_points=payload["total_barrier_points"],
            configs=configs,
            failures=dict(payload["failures"]),
            selected_counts=list(payload["selected_counts"]),
        )


def _summarise(study_result) -> StudySummary:
    configs = {}
    for label, cfg in study_result.configs.items():
        report = cfg.report
        selection = cfg.selection
        configs[label] = ConfigSummary(
            label=label,
            k=selection.k,
            error_mean={m: report.error_pct(m) for m in PMU_METRICS},
            error_std={m: report.std_pct(m) for m in PMU_METRICS},
            bp_fraction=selection.bp_fraction,
            total_instruction_pct=100.0 * selection.selected_instruction_fraction,
            largest_instruction_pct=100.0 * selection.largest_instruction_fraction,
            speedup=selection.speedup,
        )
    return StudySummary(
        app=study_result.app_name,
        threads=study_result.threads,
        total_barrier_points=study_result.total_barrier_points,
        configs=configs,
        failures=dict(study_result.failures),
        selected_counts=study_result.selection_sizes(),
    )


# ---------------------------------------------------------------- engine
def crossarch_request(app: str, threads: int) -> StudyRequest:
    """Declare the four-way cross-architecture cell for one (app, threads)."""
    return StudyRequest(kind="crossarch", app=app, threads=threads)


def crossarch_cell(request: StudyRequest, config: ExperimentConfig) -> dict:
    """Executor for ``"crossarch"`` cells (runs in scheduler workers).

    Runs the study as a stage graph against the stage-granular cache, so
    a warm cell reads its stored ``select`` and ``measure`` payloads and
    a knob change (e.g. ``maxK``) runs discovery again.
    """
    from repro.api.study import run_crossarch
    from repro.exec.stagestore import stage_store_for

    result = run_crossarch(
        request.app,
        request.threads,
        config.pipeline_config(),
        store=stage_store_for(config),
    )
    return _summarise(result).to_payload()


def decode_summaries(
    results: Mapping[StudyRequest, dict]
) -> dict[tuple[str, int], StudySummary]:
    """Decode scheduler payloads into (app, threads) → summary."""
    return {
        (request.app, request.threads): StudySummary.from_payload(payload)
        for request, payload in results.items()
        if request.kind == "crossarch"
    }
