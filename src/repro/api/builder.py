"""Fluent assembly of stage pipelines.

The one-liner the redesign is named for::

    from repro.api import ClusterStage, build_pipeline

    run = (
        build_pipeline("miniFE", threads=8)
        .with_stage(ClusterStage(max_k=10))
        .on("ARMv8")
        .run()
    )
    best = min(run.evaluations_on("ARMv8"), key=lambda e: e.report.primary_error)

``build_pipeline`` resolves the workload through the open registry (so
case-insensitive names and third-party plugins both work), the builder
swaps or inserts stages by name, ``on`` adds evaluation targets
(machines, ISAs, or registered names), and ``run`` executes the graph —
optionally against a :class:`~repro.exec.stagestore.StageStore`, caching
every cacheable stage under a digest chain of upstream cache keys.  A
stored run loads only the stages its results read: a warm default
graph loads ``select`` and ``measure`` and nothing upstream of them.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from repro.api.context import StageContext
from repro.api.registry import machine_registry, workload_registry
from repro.api.stage import Stage
from repro.api.stages import default_stages, evaluate_selection
from repro.api.types import EvaluationResult, PipelineConfig, SupportsProgram
from repro.core.selection import BarrierPointSelection
from repro.exec.stagestore import StageStore, base_digest, chain_digest
from repro.hw.machines import Machine, machine_for
from repro.hw.perf import TrueCounters
from repro.ir.trace import ExecutionTrace
from repro.isa.descriptors import ISA, BinaryConfig

__all__ = ["PipelineBuilder", "StagePipeline", "PipelineRun", "build_pipeline"]


def _resolve_workload(workload) -> SupportsProgram:
    """Accept a registry name, a workload class, or a ready instance."""
    if isinstance(workload, str):
        return workload_registry.get(workload)()
    if isinstance(workload, type):
        return workload()
    return workload


def _resolve_target(target) -> Machine:
    """Accept a Machine, an ISA, an ISA value, or a registered name."""
    if isinstance(target, Machine):
        return target
    if isinstance(target, ISA):
        return machine_for(target)
    try:
        return machine_for(ISA(str(target)))
    except ValueError:
        return machine_registry.get(str(target))


class PipelineRun:
    """The artifacts of one executed stage graph.

    Wraps the run's :class:`~repro.api.context.StageContext` with typed
    accessors for the common artifacts; anything a custom stage
    published is reachable through ``run.context.get(name)``.  A run
    against a warm store holds only what its results needed: the
    artifacts of stages upstream of a loaded one (``observations``,
    ``signatures``, ``clusterings``) are absent.

    Example
    -------
    >>> from repro.api import build_pipeline, PipelineConfig
    >>> from repro.hw.measure import MeasurementProtocol
    >>> fast = PipelineConfig(
    ...     discovery_runs=1, protocol=MeasurementProtocol(repetitions=2)
    ... )
    >>> run = build_pipeline("XSBench", threads=2, config=fast).run()
    >>> len(run.selections)
    1
    >>> sorted(run.evaluations)
    ['Intel Core i7-3770']
    """

    def __init__(self, context: StageContext, stages: tuple[Stage, ...]) -> None:
        self.context = context
        self.stages = stages

    @property
    def selections(self) -> list[BarrierPointSelection]:
        """One barrier point set per discovery run."""
        return self.context.require("selections")

    @property
    def evaluations(self) -> dict[str, list[EvaluationResult]]:
        """Machine name → per-selection validation results."""
        return self.context.require("evaluations")

    @property
    def failures(self) -> dict[str, str]:
        """Machine name → why the methodology could not be applied."""
        return self.context.get("failures", {})

    def evaluations_on(self, target) -> list[EvaluationResult]:
        """Validation results for one target (Machine, ISA, or name)."""
        return self.evaluations[_resolve_target(target).name]


class StagePipeline:
    """An assembled stage graph over one configuration.

    Offers both granular execution (``discover`` runs the x86_64-side
    stages, ``evaluate`` validates one selection on one platform — the
    calls experiment drivers make) and whole-graph execution (``run``,
    optionally stage-cached).

    Example
    -------
    >>> from repro.api import build_pipeline, PipelineConfig
    >>> from repro.hw.measure import MeasurementProtocol
    >>> fast = PipelineConfig(
    ...     discovery_runs=1, protocol=MeasurementProtocol(repetitions=2)
    ... )
    >>> pipeline = build_pipeline("XSBench", threads=2, config=fast).build()
    >>> selections = pipeline.discover()   # x86_64-side stages only
    >>> selections[0].k
    1
    """

    def __init__(
        self,
        app: SupportsProgram,
        threads: int,
        vectorised: bool = False,
        config: PipelineConfig | None = None,
        stages: list[Stage] | None = None,
        targets: tuple[Machine, ...] = (),
        discovery_isa: ISA = ISA.X86_64,
    ) -> None:
        self.stages: tuple[Stage, ...] = tuple(
            stages if stages is not None else default_stages()
        )
        self.context = StageContext(
            app,
            threads,
            vectorised,
            config,
            targets=targets,
            discovery_isa=discovery_isa,
        )
        self._completed: set[str] = set()

    # ------------------------------------------------------------ identity
    @property
    def app(self) -> SupportsProgram:
        """The workload under study."""
        return self.context.app

    @property
    def threads(self) -> int:
        """Team width."""
        return self.context.threads

    @property
    def vectorised(self) -> bool:
        """Whether the vectorised binary variant runs."""
        return self.context.vectorised

    @property
    def config(self) -> PipelineConfig:
        """Shared stage configuration."""
        return self.context.config

    def binary(self, isa: ISA) -> BinaryConfig:
        """The binary variant executed on ``isa`` in this configuration."""
        return self.context.binary(isa)

    # ------------------------------------------------------------ plumbing
    def trace(self, isa: ISA) -> ExecutionTrace:
        """The (cached) dynamic execution on one ISA."""
        return self.context.trace(isa)

    def counters(self, isa: ISA) -> TrueCounters:
        """True counters on the paper's machine for one ISA."""
        return self.context.counters_on(isa)

    def counters_on(self, isa: ISA, machine: Machine | None = None) -> TrueCounters:
        """True counters on an explicit machine (core-type study)."""
        return self.context.counters_on(isa, machine)

    def measured_means(self, isa: ISA, machine: Machine | None = None) -> np.ndarray:
        """Mean per-barrier-point counters on a platform."""
        return self.context.measured_means(machine or machine_for(isa), isa)

    def reference_totals(self, isa: ISA, machine: Machine | None = None) -> np.ndarray:
        """Mean clean ROI counters on a platform."""
        return self.context.reference_totals(machine or machine_for(isa), isa)

    # ------------------------------------------------------------- running
    #: Artifacts :class:`PipelineRun`'s accessors read.
    _ACCESSED = frozenset({"selections", "evaluations", "failures"})

    def _chain(self) -> list[tuple[Stage, str]]:
        """Every stage with its address: the digest chain of upstream keys."""
        digest = base_digest(
            app=self.app.name,
            threads=self.threads,
            vectorised=self.vectorised,
            seed=self.config.seed,
            discovery_isa=self.context.discovery_isa.value,
        )
        chain = []
        for stage in self.stages:
            digest = chain_digest(
                digest,
                stage.name,
                {
                    "impl": f"{type(stage).__module__}.{type(stage).__qualname__}",
                    "key": stage.cache_key(self.context),
                },
            )
            chain.append((stage, digest))
        return chain

    def _execute(self, stages, store: StageStore | None) -> None:
        """Load or run what the results need, walking back from the end.

        A stage is needed when no later stage reads its outputs (a
        sink), or when a :class:`PipelineRun` accessor or a stage that
        runs reads one of them.  A needed cacheable stage is loaded
        from the store if it can be; otherwise it runs, and its inputs
        become needed.  Stages upstream of a loaded one are neither
        looked up nor run.  Decodes and runs then happen in graph order.
        """
        cached = store is not None and store.enabled
        needed = set(self._ACCESSED)
        read_later: set[str] = set()
        plan = []
        for stage, digest in reversed(self._chain()):
            if stage not in stages:
                continue
            outputs = set(stage.outputs)
            live = not (outputs & read_later) or bool(outputs & needed)
            read_later |= set(stage.inputs)
            needed -= outputs
            if not live or stage.name in self._completed:
                continue
            payload = store.load(digest, stage.name) if cached and stage.cacheable else None
            if payload is None:
                needed |= set(stage.inputs)
            plan.append((stage, digest, payload))
        for stage, digest, payload in reversed(plan):
            if payload is not None:
                stage.decode(payload, self.context)
            else:
                started = time.perf_counter()
                stage.run(self.context)
                if store is not None:
                    # Accounted even when the store is disabled, so
                    # --profile works under --no-cache.
                    store.stats.record_run(
                        stage.name, time.perf_counter() - started
                    )
                if cached and stage.cacheable:
                    store.store(digest, stage.name, stage.encode(self.context))
            self._completed.add(stage.name)

    def run(self, store: StageStore | None = None) -> PipelineRun:
        """Execute the graph (stage-cached and demand-loaded with a store)."""
        self._execute(self.stages, store)
        return PipelineRun(self.context, self.stages)

    def discover(self, store: StageStore | None = None) -> list[BarrierPointSelection]:
        """Run the x86_64-side stages and return the barrier point sets.

        Returns one :class:`BarrierPointSelection` per discovery run;
        thread-interleaving jitter makes them differ, reproducing the
        min/max spread of Table III.  With a ``store`` the stages are
        cached as in :meth:`run`, so a discovery another cell stored
        (same app, width, vectorisation and stage keys) is loaded.
        """
        prefix = []
        for stage in self.stages:
            prefix.append(stage)
            if "selections" in stage.outputs:
                break
        else:
            raise RuntimeError("no stage in this pipeline outputs 'selections'")
        self._execute(prefix, store)
        return self.context.require("selections")

    def evaluate(
        self,
        selection: BarrierPointSelection,
        isa: ISA,
        machine: Machine | None = None,
    ) -> EvaluationResult:
        """Reconstruct and validate one barrier point set on one platform.

        Raises
        ------
        CrossArchitectureMismatch
            If the target executes a different number of barrier points
            than the discovery architecture (Section V-B's HPGMG-FV
            limitation).
        """
        return evaluate_selection(
            self.context, selection, machine or machine_for(isa), isa
        )

    def evaluate_many(
        self,
        selections: list[BarrierPointSelection],
        isa: ISA,
        machine: Machine | None = None,
    ) -> list[EvaluationResult]:
        """Evaluate several barrier point sets on one platform."""
        return [self.evaluate(selection, isa, machine) for selection in selections]


class PipelineBuilder:
    """Fluent construction of a :class:`StagePipeline`.

    Every ``with_*``/``on`` call returns the builder, so a pipeline
    reads as one expression; ``build`` materialises the pipeline and
    ``run`` additionally executes it.

    Example
    -------
    >>> from repro.api import PipelineBuilder
    >>> builder = PipelineBuilder("MCB", threads=4).on("x86_64")
    >>> builder.without_stage("validate").build().threads
    4
    """

    def __init__(
        self,
        workload,
        threads: int = 8,
        *,
        vectorised: bool = False,
        config: PipelineConfig | None = None,
    ) -> None:
        self._app = _resolve_workload(workload)
        self._threads = threads
        self._vectorised = vectorised
        self._config = config or PipelineConfig()
        self._stages: list[Stage] = default_stages()
        self._targets: list[Machine] = []
        self._discovery_isa = ISA.X86_64

    def with_config(self, **overrides) -> "PipelineBuilder":
        """Replace :class:`PipelineConfig` fields (seed, simpoint, ...)."""
        self._config = replace(self._config, **overrides)
        return self

    def with_stage(self, stage: Stage, replaces: str | None = None) -> "PipelineBuilder":
        """Swap in a stage, replacing the one sharing its name.

        ``replaces`` substitutes a differently-named stage (a registered
        third-party clustering stage standing in for ``cluster``); a
        stage matching nothing is appended at the end of the graph.
        """
        needle = replaces or stage.name
        for index, existing in enumerate(self._stages):
            if existing.name == needle:
                self._stages[index] = stage
                return self
        self._stages.append(stage)
        return self

    def without_stage(self, name: str) -> "PipelineBuilder":
        """Drop one stage from the graph (partial pipelines)."""
        self._stages = [stage for stage in self._stages if stage.name != name]
        return self

    def on(self, *targets) -> "PipelineBuilder":
        """Add evaluation targets: Machines, ISAs, or registered names."""
        self._targets.extend(_resolve_target(target) for target in targets)
        return self

    def build(self) -> StagePipeline:
        """Materialise the pipeline (nothing executes yet)."""
        return StagePipeline(
            self._app,
            self._threads,
            self._vectorised,
            self._config,
            stages=list(self._stages),
            targets=tuple(self._targets),
            discovery_isa=self._discovery_isa,
        )

    def run(self, store: StageStore | None = None) -> PipelineRun:
        """Build and execute the full graph."""
        return self.build().run(store)


def build_pipeline(
    workload,
    threads: int = 8,
    *,
    vectorised: bool = False,
    config: PipelineConfig | None = None,
) -> PipelineBuilder:
    """Start a fluent pipeline over one (workload, threads) configuration.

    ``workload`` may be a registry name (case-insensitive), a workload
    class, or a ready instance.  With all-default stages the staged
    graph is bit-identical to the eager :class:`StagePipeline` methods
    (``discover`` + ``evaluate_many``).

    Example
    -------
    >>> from repro.api import ClusterStage, build_pipeline
    >>> pipeline = (
    ...     build_pipeline("miniFE", threads=8)
    ...     .with_stage(ClusterStage(max_k=10))
    ...     .on("ARMv8")
    ...     .build()
    ... )
    >>> [stage.name for stage in pipeline.stages][:3]
    ['profile', 'signature', 'cluster']
    """
    return PipelineBuilder(
        workload, threads, vectorised=vectorised, config=config
    )
