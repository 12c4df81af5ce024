"""The cross-architectural study (Section VI) on the stage API.

For one application and thread count, :func:`run_crossarch` performs
the paper's four comparisons:

* ``x86_64``       — x86_64 scalar discovery → x86_64 scalar estimate
* ``ARMv8``        — x86_64 scalar discovery → ARMv8 scalar estimate
* ``x86_64-vect``  — x86_64 vector discovery → x86_64 vector estimate
* ``ARMv8-vect``   — x86_64 vector discovery → ARMv8 vector estimate

Per vectorisation setting it executes one stage graph targeting both
platforms, evaluates every discovered barrier point set on each, and
keeps the set with the lowest worst-case error across the performance
metrics and both platforms — the selection rule behind Figure 2 and
Table IV ("the barrier point sets with the lowest estimation errors").

Passing a :class:`~repro.exec.stagestore.StageStore` caches the study at
stage granularity: a clustering-knob change re-runs clustering onward
while discovery is served by the profile payload, never re-executed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.api.builder import StagePipeline, _resolve_workload
from repro.api.types import EvaluationResult, PipelineConfig
from repro.core.errors import CrossArchitectureMismatch
from repro.core.selection import BarrierPointSelection
from repro.exec.stagestore import StageStore
from repro.hw.machines import machine_for
from repro.isa.descriptors import ISA

__all__ = ["CONFIG_LABELS", "ConfigResult", "CrossArchResult", "run_crossarch"]

#: Evaluation order of the four configuration labels (paper's legend).
CONFIG_LABELS = ("x86_64", "x86_64-vect", "ARMv8", "ARMv8-vect")


@dataclass(frozen=True)
class ConfigResult:
    """Best-set validation outcome for one configuration label."""

    label: str
    evaluation: EvaluationResult

    @property
    def selection(self) -> BarrierPointSelection:
        """The barrier point set used for this configuration."""
        return self.evaluation.selection

    @property
    def report(self):
        """The estimation errors."""
        return self.evaluation.report


@dataclass
class CrossArchResult:
    """Everything the paper reports for one (application, threads) cell.

    Attributes
    ----------
    app_name / threads:
        The configuration.
    configs:
        Label → :class:`ConfigResult` for each configuration that could
        be evaluated.
    failures:
        Label → explanation for configurations the methodology could
        not be applied to (e.g. HPGMG-FV's sequence mismatch on ARMv8).
    selections:
        Vectorised? → all discovered barrier point sets (Table III's
        min/max derive from these across configurations).
    """

    app_name: str
    threads: int
    configs: dict[str, ConfigResult] = field(default_factory=dict)
    failures: dict[str, str] = field(default_factory=dict)
    selections: dict[bool, list[BarrierPointSelection]] = field(default_factory=dict)

    def config(self, label: str) -> ConfigResult:
        """Result for one configuration label; raises if it failed."""
        if label in self.failures:
            raise CrossArchitectureMismatch(self.app_name, -1, -1)
        return self.configs[label]

    def selection_sizes(self) -> list[int]:
        """Barrier points selected (k) across every discovery run/setting."""
        return [
            s.k for sels in self.selections.values() for s in sels
        ]

    @property
    def total_barrier_points(self) -> int:
        """Total dynamic barrier points of the x86_64 execution."""
        some = next(iter(self.selections.values()))
        return some[0].n_barrier_points

    def best_selection(self, vectorised: bool) -> BarrierPointSelection:
        """The reported (lowest-error) set of one vectorisation setting."""
        label = "x86_64-vect" if vectorised else "x86_64"
        return self.configs[label].selection


def run_crossarch(
    workload,
    threads: int,
    config: PipelineConfig | None = None,
    store: StageStore | None = None,
) -> CrossArchResult:
    """Execute discovery + evaluation for all four configurations.

    Example
    -------
    >>> from repro.api import run_crossarch, PipelineConfig
    >>> from repro.hw.measure import MeasurementProtocol
    >>> fast = PipelineConfig(
    ...     discovery_runs=1, protocol=MeasurementProtocol(repetitions=2)
    ... )
    >>> result = run_crossarch("MCB", threads=2, config=fast)
    >>> sorted(result.configs)
    ['ARMv8', 'ARMv8-vect', 'x86_64', 'x86_64-vect']

    Parameters
    ----------
    workload:
        Registry name, workload class, or instance.
    threads:
        Team width (paper: 1, 2, 4 or 8).
    config:
        Pipeline parameters shared by both vectorisation settings.
    store:
        Optional stage-granular cache.
    """
    app = _resolve_workload(workload)
    config = config or PipelineConfig()
    result = CrossArchResult(app_name=app.name, threads=threads)
    targets = (machine_for(ISA.X86_64), machine_for(ISA.ARMV8))

    for vectorised in (False, True):
        pipeline = StagePipeline(
            app, threads, vectorised, config, targets=targets
        )
        run = pipeline.run(store)
        selections = run.selections
        result.selections[vectorised] = selections

        x86_label = pipeline.binary(ISA.X86_64).label
        arm_label = pipeline.binary(ISA.ARMV8).label

        x86_evals = run.evaluations[targets[0].name]
        arm_evals = run.evaluations.get(targets[1].name)
        if arm_evals is None:
            result.failures[arm_label] = run.failures[targets[1].name]

        # Rank sets on the performance metrics (cycles/instructions)
        # across both platforms; cache-miss anomalies are not tuned
        # away, matching the paper's reported behaviour.
        scores = []
        for idx in range(len(selections)):
            worst = x86_evals[idx].report.primary_error
            if arm_evals is not None:
                worst = max(worst, arm_evals[idx].report.primary_error)
            scores.append(worst)
        best = min(range(len(selections)), key=scores.__getitem__)

        result.configs[x86_label] = ConfigResult(
            label=x86_label, evaluation=x86_evals[best]
        )
        if arm_evals is not None:
            result.configs[arm_label] = ConfigResult(
                label=arm_label, evaluation=arm_evals[best]
            )
    return result
