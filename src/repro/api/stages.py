"""The five first-class stages of the BarrierPoint methodology.

The paper's workflow (Section V) decomposed from the old 278-line
monolith into pluggable steps:

=========== ============= ===============================================
stage       artifacts     role
=========== ============= ===============================================
profile     observations  execute the binary under the Pintool
signature   signatures    combine BBV ⊕ LDV into signature vectors
cluster     clusterings   SimPoint-style k sweep with BIC selection
select      selections    representatives + multipliers per cluster
measure     measurements  the clean ROI counters on each target, the
            estimates     whole-program counters rebuilt from the
            evaluations   representatives' readings, and their error
                          against the clean region of interest
=========== ============= ===============================================

Each stage takes its knobs either from the shared
:class:`~repro.api.types.PipelineConfig` or from constructor overrides
(``ClusterStage(max_k=10)``), and contributes exactly those knobs to its
cache key — so the execution layer re-runs a stage (and everything
downstream) precisely when one of *its* knobs changes.  Only ``select``
and ``measure`` are cacheable, because a later run reads nothing else:
a changed knob upstream of ``select`` runs discovery again.

Discovery always happens on x86_64 — "this step is only run for the
x86_64 versions of the binaries, as our objective is to extract the
representative regions of the workloads on x86_64" (Section V-A) —
while evaluation may target any registered machine.
"""

from __future__ import annotations

from dataclasses import asdict, replace

import numpy as np

from repro.api.context import RunSequence, StageContext
from repro.api.registry import register_stage
from repro.api.stage import Stage
from repro.api.types import EvaluationResult
from repro.clustering.simpoint import SimPointOptions, run_simpoint
from repro.core.errors import CrossArchitectureMismatch
from repro.core.reconstruction import reconstruct_per_rep, reconstruct_totals
from repro.core.selection import BarrierPointSelection, select_barrier_points
from repro.core.signatures import build_signatures
from repro.core.validation import EstimationReport, validate_estimate
from repro.hw.machines import Machine
from repro.hw.pmu import INSTRUCTIONS
from repro.instrumentation.collector import CleanSignatures, DiscoveryObservation
from repro.isa.descriptors import ISA

__all__ = [
    "ProfileStage",
    "SignatureStage",
    "ClusterStage",
    "SelectStage",
    "MeasureStage",
    "DEFAULT_STAGE_NAMES",
    "default_stages",
    "evaluate_selection",
]

#: The canonical stage order of the paper's workflow.
DEFAULT_STAGE_NAMES = (
    "profile",
    "signature",
    "cluster",
    "select",
    "measure",
)


def _estimate(
    ctx: StageContext,
    selection: BarrierPointSelection,
    machine: Machine,
    isa: ISA | None = None,
) -> tuple[np.ndarray, EstimationReport]:
    """Steps 4 and 5 of one selection on one target: ``(totals, report)``.

    ``totals`` is the ``(threads, 4)`` estimate from the representatives'
    mean rows; the report's ``error_std`` compares the estimates from
    their per-repetition reads with the ROI's.
    """
    bp_reps, roi_reps = ctx.rep_samples(selection, machine, isa)
    means = ctx.measured_means(machine, isa)
    totals = reconstruct_totals(selection, means[selection.representatives])
    report = validate_estimate(
        totals,
        ctx.reference_totals(machine, isa),
        estimate_reps=reconstruct_per_rep(selection, bp_reps),
        reference_reps=roi_reps,
    )
    return totals, report


def evaluate_selection(
    ctx: StageContext,
    selection: BarrierPointSelection,
    machine: Machine,
    isa: ISA | None = None,
) -> EvaluationResult:
    """Measure → reconstruct → validate one selection on one target.

    The eager path (:meth:`~repro.api.StagePipeline.evaluate`) and the
    ``measure`` stage estimate and validate through the same arithmetic;
    raises :class:`~repro.core.errors.CrossArchitectureMismatch` when
    the target's barrier sequence disagrees with discovery.  ``isa``
    defaults to the machine's own ISA.
    """
    isa = isa or machine.isa
    ctx.check_compatible(selection, machine, isa)
    _, report = _estimate(ctx, selection, machine, isa)
    return EvaluationResult(
        label=ctx.binary(isa).label, selection=selection, report=report
    )


def _evaluations(ctx: StageContext) -> dict[str, list[EvaluationResult]]:
    """Every selection's report on every target, from what ``measure`` keeps.

    The mean and per-thread errors are :func:`validate_estimate` of the
    stored ``totals`` against the target's ``reference``; the spread is
    the stored ``error_std``.  A live and a loaded ``measure`` both
    publish through here, so their reports agree to the bit.
    """
    selections = ctx.require("selections")
    measurements = ctx.require("measurements")
    labels = {machine.name: ctx.binary(machine.isa).label for machine in ctx.targets}
    return {
        name: [
            EvaluationResult(
                label=labels[name],
                selection=selection,
                report=replace(
                    validate_estimate(estimate["totals"], measurements[name]["reference"]),
                    error_std=estimate["error_std"],
                ),
            )
            for selection, estimate in zip(selections, per_selection, strict=True)
        ]
        for name, per_selection in ctx.require("estimates").items()
    }


@register_stage
class ProfileStage(Stage):
    """Step 1: run the instrumented x86_64 binary per discovery run.

    Every run instruments the same trace and differs only in its
    interleaving jitter, so the stage collects each rank's clean
    signatures once: a shared-memory trace is one rank, a distributed
    trace R, each weighted by its own contexts' instructions.
    ``observations`` is a run sequence of rank sequences: reading
    ``[run][rank]`` draws that one observation from generator path
    ``("run", run)``, or ``("run", run, "rank", rank)`` for a
    distributed trace.  Not cacheable: a stored run reads ``select``
    and ``measure`` only.
    """

    name = "profile"
    inputs = ()
    outputs = ("observations",)
    description = "execute the binary under the Pintool (BBV/LDV collection)"

    def __init__(self, discovery_runs: int | None = None) -> None:
        if discovery_runs is not None and discovery_runs < 1:
            raise ValueError(f"discovery_runs must be >= 1, got {discovery_runs}")
        self.discovery_runs = discovery_runs

    def effective_runs(self, ctx: StageContext) -> int:
        """Constructor override, else the shared configuration."""
        if self.discovery_runs is not None:
            return self.discovery_runs
        return ctx.config.discovery_runs

    def run(self, ctx: StageContext) -> StageContext:
        trace = ctx.trace(ctx.discovery_isa)
        counters = ctx.counters_on(ctx.discovery_isa)
        distributed = hasattr(trace, "rank_traces")
        if distributed:
            ranks = [
                CleanSignatures.of(
                    trace.rank_trace(rank),
                    counters.values[:, trace.rank_columns(rank), INSTRUCTIONS].sum(axis=1),
                )
                for rank in range(trace.ranks)
            ]
        else:
            ranks = [CleanSignatures.of(trace, counters.bp_instructions())]
        rng = ctx.discovery_rng()

        def observe(run: int, rank: int) -> DiscoveryObservation:
            path = ("run", run, "rank", rank) if distributed else ("run", run)
            return ranks[rank].observe(rng.generator(*path), run)

        # Run-major ``[run][rank]`` observations, one generator per pair.
        ctx.put(
            "observations",
            RunSequence(
                self.effective_runs(ctx),
                lambda run: RunSequence(len(ranks), lambda rank: observe(run, rank)),
            ),
        )
        return ctx

    def cache_key(self, ctx: StageContext) -> dict:
        return {
            "discovery_runs": self.effective_runs(ctx),
            "discovery_isa": ctx.discovery_isa.value,
            "ranks": int(getattr(ctx.app, "ranks", 1)),
            # The communication schedule shapes the trace this stage
            # (and, through the digest chain, everything downstream)
            # observes; a job with a different collective cadence must
            # never share cache entries.
            "phases": getattr(ctx.app, "phases", None),
        }


@register_stage
class SignatureStage(Stage):
    """Step 2: combine each run's BBV and LDV into signature vectors.

    Publishes a run sequence: reading run r draws its ranks'
    observations and keeps their jittered nonzeros as the run's
    :class:`~repro.core.signatures.SignatureMatrix`
    (:func:`~repro.core.signatures.build_signatures`), whose rows
    ``cluster`` builds and projects a block at a time, so the work is
    charged to the stage that reads it.  Not cacheable: it only
    normalises and concatenates the ``profile`` observations.
    """

    name = "signature"
    inputs = ("observations",)
    outputs = ("signatures",)
    description = "combine BBV and LDV halves into signature vectors"

    def __init__(self, bbv_weight: float | None = None) -> None:
        self.bbv_weight = bbv_weight

    def effective_weight(self, ctx: StageContext) -> float:
        """Constructor override, else the shared configuration."""
        return self.bbv_weight if self.bbv_weight is not None else ctx.config.bbv_weight

    def run(self, ctx: StageContext) -> StageContext:
        weight = self.effective_weight(ctx)
        observations = ctx.require("observations")
        ctx.put(
            "signatures",
            RunSequence(
                len(observations),
                lambda run: build_signatures(observations[run], weight),
            ),
        )
        return ctx

    def cache_key(self, ctx: StageContext) -> dict:
        return {"bbv_weight": self.effective_weight(ctx)}


@register_stage
class ClusterStage(Stage):
    """Step 2½: SimPoint model selection over each run's signatures, one at a time."""

    name = "cluster"
    inputs = ("signatures",)
    outputs = ("clusterings",)
    description = "SimPoint-style k-means sweep scored with BIC"

    def __init__(self, options: SimPointOptions | None = None, **overrides) -> None:
        if "maxK" in overrides:  # the BarrierPoint papers spell it maxK
            overrides["max_k"] = overrides.pop("maxK")
        self.options = options
        self.overrides = overrides

    def effective_options(self, ctx: StageContext) -> SimPointOptions:
        """Constructor options/overrides applied over the configuration."""
        base = self.options or ctx.config.simpoint
        return replace(base, **self.overrides) if self.overrides else base

    def run(self, ctx: StageContext) -> StageContext:
        options = self.effective_options(ctx)
        label = ctx.binary(ctx.discovery_isa).label
        signatures = ctx.require("signatures")
        clusterings = []
        for run in range(len(signatures)):
            # Indexed here and deleted below: a loop variable would keep
            # run r's matrix alive while run r + 1 is built.
            signature = signatures[run]
            gen = ctx.tree.generator(
                "simpoint", ctx.app.name, ctx.threads, label, run
            )
            clusterings.append(
                run_simpoint(signature, signature.weights, gen, options)
            )
            del signature
        ctx.put("clusterings", clusterings)
        return ctx

    def cache_key(self, ctx: StageContext) -> dict:
        return {"simpoint": asdict(self.effective_options(ctx))}


@register_stage
class SelectStage(Stage):
    """Step 2¾: pick representatives and multipliers per clustering.

    Reads the weights ``cluster`` left on the signature sequence, so it
    draws no run again: a ``select`` miss always runs ``cluster`` first.
    """

    name = "select"
    inputs = ("clusterings", "signatures")
    outputs = ("selections",)
    description = "choose representative barrier points and multipliers"
    cacheable = True

    def run(self, ctx: StageContext) -> StageContext:
        signatures = ctx.require("signatures")
        ctx.put(
            "selections",
            [
                select_barrier_points(choice, signatures.weights_of(run), run)
                for run, choice in enumerate(ctx.require("clusterings"))
            ],
        )
        return ctx

    def cache_key(self, ctx: StageContext) -> dict:
        return {}

    def encode(self, ctx: StageContext) -> dict:
        return {
            "selections": [
                {
                    "representatives": sel.representatives,
                    "multipliers": sel.multipliers,
                    "rep_weights": sel.rep_weights,
                    "total_weight": float(sel.total_weight),
                    "n_barrier_points": int(sel.n_barrier_points),
                    "run_index": int(sel.run_index),
                }
                for sel in ctx.require("selections")
            ]
        }

    def decode(self, payload: dict, ctx: StageContext) -> None:
        ctx.put(
            "selections",
            [
                BarrierPointSelection(**row)
                for row in payload["selections"]
            ],
        )


@register_stage
class MeasureStage(Stage):
    """Steps 3 to 5: measure every target, reconstruct and validate each selection.

    Per target, ``measurements`` holds the clean ROI ``reference`` and
    ``comm_cycles``: the slowest rank's noise-free network cycles
    (``0.0`` for shared-memory jobs), which rank cells report without
    re-running the trace.  ``estimates`` holds each selection's
    whole-program ``totals`` and ``error_std``, its error's spread over
    the repetitions; ``evaluations``, rebuilt from them on load, each
    selection's report.  No readings or per-repetition arrays are kept,
    so nothing stored grows with k or the repetitions.  A target whose
    barrier sequence disagrees with discovery (HPGMG-FV on ARMv8) is
    recorded under ``failures`` instead of aborting the whole graph.
    Each target's counters, means and per-repetition reads are released
    from the context once it is done, so one target's are held at a
    time.
    """

    name = "measure"
    inputs = ("selections",)
    outputs = ("measurements", "estimates", "evaluations", "failures")
    description = "measure each target, reconstruct and validate each selection"
    cacheable = True

    def run(self, ctx: StageContext) -> StageContext:
        selections = ctx.require("selections")
        measurements: dict[str, dict] = {}
        estimates: dict[str, list[dict]] = {}
        failures: dict[str, str] = dict(ctx.get("failures", {}))
        for machine in ctx.targets:
            try:
                comm = ctx.check_compatible(selections[0], machine).comm_cycles
            except CrossArchitectureMismatch as exc:
                failures[machine.name] = str(exc)
            else:
                measurements[machine.name] = {
                    "reference": ctx.reference_totals(machine),
                    "comm_cycles": 0.0 if comm is None else float(comm.sum(axis=0).max()),
                }
                estimates[machine.name] = [
                    {"totals": totals, "error_std": report.error_std}
                    for totals, report in (_estimate(ctx, s, machine) for s in selections)
                ]
            ctx.release(machine)
        ctx.put("measurements", measurements)
        ctx.put("estimates", estimates)
        ctx.put("failures", failures)
        ctx.put("evaluations", _evaluations(ctx))
        return ctx

    def cache_key(self, ctx: StageContext) -> dict:
        return {
            "protocol": asdict(ctx.config.protocol),
            "targets": [machine.name for machine in ctx.targets],
        }

    def encode(self, ctx: StageContext) -> dict:
        return {name: ctx.require(name) for name in ("measurements", "estimates", "failures")}

    def decode(self, payload: dict, ctx: StageContext) -> None:
        for name, value in payload.items():
            ctx.put(name, value)
        ctx.put("evaluations", _evaluations(ctx))


def default_stages() -> list[Stage]:
    """Fresh default-configured instances of the five canonical stages."""
    from repro.api.registry import stage_registry

    return [stage_registry.get(name)() for name in DEFAULT_STAGE_NAMES]
