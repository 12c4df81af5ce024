"""The seven first-class stages of the BarrierPoint methodology.

The paper's workflow (Section V) decomposed from the old 278-line
monolith into pluggable steps:

=========== ================= ===========================================
stage       artifacts         role
=========== ================= ===========================================
profile     observations,     execute the binary under the Pintool
            clean_signatures
signature   signatures        combine BBV ⊕ LDV into signature vectors
cluster     clusterings       SimPoint-style k sweep with BIC selection
select      selections        representatives + multipliers per cluster
measure     measurements      native per-BP and clean-ROI counters
reconstruct estimates         scale representatives up to whole-program
validate    evaluations       error vs. the clean region of interest
=========== ================= ===========================================

Each stage takes its knobs either from the shared
:class:`~repro.api.types.PipelineConfig` or from constructor overrides
(``ClusterStage(max_k=10)``), and contributes exactly those knobs to its
cache key — so the execution layer re-runs a stage (and everything
downstream) precisely when one of *its* knobs changes.  ``profile``,
``cluster``, ``select`` and ``measure`` are cacheable; the other three
are cheap derivations, recomputed whenever a later stage needs them.

Discovery always happens on x86_64 — "this step is only run for the
x86_64 versions of the binaries, as our objective is to extract the
representative regions of the workloads on x86_64" (Section V-A) —
while evaluation may target any registered machine.
"""

from __future__ import annotations

from dataclasses import asdict, replace

from repro.api.context import StageContext
from repro.api.registry import register_stage
from repro.api.stage import Stage
from repro.api.types import EvaluationResult
from repro.clustering.kmeans import KMeansResult
from repro.clustering.simpoint import ClusteringChoice, SimPointOptions, run_simpoint
from repro.core.errors import CrossArchitectureMismatch
from repro.core.reconstruction import reconstruct_per_rep, reconstruct_totals
from repro.core.selection import BarrierPointSelection, select_barrier_points
from repro.core.signatures import build_signatures
from repro.core.validation import validate_estimate
from repro.hw.machines import Machine
from repro.instrumentation.collector import CleanSignatures, DiscoveryObservation
from repro.isa.descriptors import ISA

__all__ = [
    "ProfileStage",
    "SignatureStage",
    "ClusterStage",
    "MiniBatchClusterStage",
    "SelectStage",
    "MeasureStage",
    "ReconstructStage",
    "ValidateStage",
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
    "reconstruct",
    "validate",
)


def evaluate_selection(
    ctx: StageContext,
    selection: BarrierPointSelection,
    machine: Machine,
    isa: ISA | None = None,
) -> EvaluationResult:
    """Measure → reconstruct → validate one selection on one target.

    The single source of truth both the eager path
    (:meth:`~repro.api.StagePipeline.evaluate`) and the staged graph
    reduce to;
    raises :class:`~repro.core.errors.CrossArchitectureMismatch` when
    the target's barrier sequence disagrees with discovery.  ``isa``
    defaults to the machine's own ISA.
    """
    isa = isa or machine.isa
    ctx.check_compatible(selection, machine, isa)
    estimate = reconstruct_totals(selection, ctx.measured_means(machine, isa))
    reference = ctx.reference_totals(machine, isa)
    bp_reps, roi_reps = ctx.rep_samples(selection, machine, isa)
    report = validate_estimate(
        estimate,
        reference,
        estimate_reps=reconstruct_per_rep(selection, bp_reps),
        reference_reps=roi_reps,
    )
    return EvaluationResult(
        label=ctx.binary(isa).label, selection=selection, report=report
    )


@register_stage
class ProfileStage(Stage):
    """Step 1: run the instrumented x86_64 binary per discovery run.

    Every run instruments the same trace and differs only in its
    interleaving jitter, so the stage collects the trace's clean
    signatures once and draws each run from them.  Its payload is those
    clean signatures plus the run count; decoding draws the runs again
    from the same seeded generators, bit for bit, without executing
    the trace.
    """

    name = "profile"
    inputs = ()
    outputs = ("observations", "clean_signatures")
    description = "execute the binary under the Pintool (BBV/LDV collection)"
    cacheable = True

    def __init__(self, discovery_runs: int | None = None) -> None:
        if discovery_runs is not None and discovery_runs < 1:
            raise ValueError(f"discovery_runs must be >= 1, got {discovery_runs}")
        self.discovery_runs = discovery_runs

    def effective_runs(self, ctx: StageContext) -> int:
        """Constructor override, else the shared configuration."""
        if self.discovery_runs is not None:
            return self.discovery_runs
        return ctx.config.discovery_runs

    @staticmethod
    def _observe(
        ctx: StageContext, clean: CleanSignatures, runs: int
    ) -> list[DiscoveryObservation]:
        """Discovery runs ``0 .. runs-1``, each jittered by its own generator."""
        rng = ctx.discovery_rng()
        return [clean.observe(rng.generator("run", run), run) for run in range(runs)]

    def run(self, ctx: StageContext) -> StageContext:
        trace = ctx.trace(ctx.discovery_isa)
        counters = ctx.counters_on(ctx.discovery_isa)
        clean = CleanSignatures.of(trace, counters.bp_instructions())
        ctx.put("clean_signatures", clean)
        ctx.put("observations", self._observe(ctx, clean, self.effective_runs(ctx)))
        return ctx

    def cache_key(self, ctx: StageContext) -> dict:
        return {
            "discovery_runs": self.effective_runs(ctx),
            "discovery_isa": ctx.discovery_isa.value,
        }

    def encode(self, ctx: StageContext) -> dict:
        return {
            # The dataclass fields (bbv, ldv, weights, sigma), uncopied.
            "clean": vars(ctx.require("clean_signatures")),
            "runs": len(ctx.require("observations")),
        }

    def decode(self, payload: dict, ctx: StageContext) -> None:
        clean = CleanSignatures(**payload["clean"])
        ctx.put("clean_signatures", clean)
        ctx.put("observations", self._observe(ctx, clean, int(payload["runs"])))


@register_stage
class SignatureStage(Stage):
    """Step 2: combine each run's BBV and LDV into signature vectors.

    Not cacheable: it only normalises and concatenates the ``profile``
    observations, so it is recomputed rather than stored.
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
        ctx.put(
            "signatures",
            [build_signatures(obs, weight) for obs in ctx.require("observations")],
        )
        return ctx

    def cache_key(self, ctx: StageContext) -> dict:
        return {"bbv_weight": self.effective_weight(ctx)}


@register_stage
class ClusterStage(Stage):
    """Step 2½: SimPoint model selection over each run's signatures."""

    name = "cluster"
    inputs = ("signatures",)
    outputs = ("clusterings",)
    description = "SimPoint-style k-means sweep scored with BIC"
    cacheable = True

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
        clusterings = []
        for run, signatures in enumerate(ctx.require("signatures")):
            gen = ctx.tree.generator(
                "simpoint", ctx.app.name, ctx.threads, label, run
            )
            clusterings.append(
                run_simpoint(signatures.combined, signatures.weights, gen, options)
            )
        ctx.put("clusterings", clusterings)
        return ctx

    def cache_key(self, ctx: StageContext) -> dict:
        return {"simpoint": asdict(self.effective_options(ctx))}

    def encode(self, ctx: StageContext) -> dict:
        return {
            "clusterings": [
                {
                    "k": int(choice.k),
                    "labels": choice.result.labels,
                    "centers": choice.result.centers,
                    "inertia": float(choice.result.inertia),
                    "iterations": int(choice.result.iterations),
                    "projected": choice.projected,
                    "bic_by_k": {str(k): float(v) for k, v in choice.bic_by_k.items()},
                }
                for choice in ctx.require("clusterings")
            ]
        }

    def decode(self, payload: dict, ctx: StageContext) -> None:
        ctx.put(
            "clusterings",
            [
                ClusteringChoice(
                    k=int(row["k"]),
                    result=KMeansResult(
                        labels=row["labels"],
                        centers=row["centers"],
                        inertia=float(row["inertia"]),
                        iterations=int(row["iterations"]),
                    ),
                    projected=row["projected"],
                    bic_by_k={int(k): float(v) for k, v in row["bic_by_k"].items()},
                )
                for row in payload["clusterings"]
            ],
        )


@register_stage
class MiniBatchClusterStage(ClusterStage):
    """Step 2½ (streaming): the SimPoint sweep on mini-batch k-means.

    A drop-in replacement for :class:`ClusterStage` behind the same
    registry: it forces ``algorithm="minibatch"`` into the effective
    options, so at paper scale each k in the sweep touches a bounded
    number of signatures per step instead of the whole matrix per Lloyd
    iteration.  Everything else — cache key, payload codec, the
    BIC-scored model selection — is inherited, and the exact solver
    remains the golden oracle the quick-scale protocol uses.
    """

    name = "cluster-minibatch"
    description = "SimPoint sweep on seeded mini-batch k-means"

    def __init__(self, options: SimPointOptions | None = None, **overrides) -> None:
        super().__init__(options, **overrides)
        self.overrides.setdefault("algorithm", "minibatch")


@register_stage
class SelectStage(Stage):
    """Step 2¾: pick representatives and multipliers per clustering."""

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
                select_barrier_points(choice, signatures[run].weights, run)
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
                    "labels": sel.labels,
                    "weights": sel.weights,
                    "run_index": int(sel.run_index),
                }
                for sel in ctx.require("selections")
            ]
        }

    def decode(self, payload: dict, ctx: StageContext) -> None:
        ctx.put(
            "selections",
            [
                BarrierPointSelection(
                    representatives=row["representatives"],
                    multipliers=row["multipliers"],
                    labels=row["labels"],
                    weights=row["weights"],
                    run_index=int(row["run_index"]),
                )
                for row in payload["selections"]
            ],
        )


@register_stage
class MeasureStage(Stage):
    """Step 3: native counters on every target machine.

    Per target: the instrumented per-barrier-point means, the clean ROI
    reference, the per-repetition reads of each selection's
    representatives, and ``comm_cycles``: the slowest rank's noise-free
    network cycles (``0.0`` for shared-memory jobs), which rank cells
    report without re-running the trace.  A target whose barrier
    sequence disagrees with discovery (HPGMG-FV on ARMv8) is recorded
    under ``failures`` instead of aborting the whole graph.
    """

    name = "measure"
    inputs = ("selections",)
    outputs = ("measurements", "failures")
    description = "measure per-BP and clean-ROI counters on each target"
    cacheable = True

    def run(self, ctx: StageContext) -> StageContext:
        selections = ctx.require("selections")
        measurements: dict[str, dict] = {}
        failures: dict[str, str] = dict(ctx.get("failures", {}))
        for machine in ctx.targets:
            try:
                comm = ctx.check_compatible(selections[0], machine).comm_cycles
            except CrossArchitectureMismatch as exc:
                failures[machine.name] = str(exc)
                continue
            reps = {}
            for selection in selections:
                bp_reps, roi_reps = ctx.rep_samples(selection, machine)
                reps[selection.run_index] = {"bp": bp_reps, "roi": roi_reps}
            measurements[machine.name] = {
                "means": ctx.measured_means(machine),
                "reference": ctx.reference_totals(machine),
                "reps": reps,
                "comm_cycles": 0.0 if comm is None else float(comm.sum(axis=0).max()),
            }
        ctx.put("measurements", measurements)
        ctx.put("failures", failures)
        return ctx

    def cache_key(self, ctx: StageContext) -> dict:
        return {
            "protocol": asdict(ctx.config.protocol),
            "targets": [machine.name for machine in ctx.targets],
        }

    def encode(self, ctx: StageContext) -> dict:
        return {
            "measurements": {
                name: {
                    "means": entry["means"],
                    "reference": entry["reference"],
                    "reps": {
                        str(run): {"bp": pair["bp"], "roi": pair["roi"]}
                        for run, pair in entry["reps"].items()
                    },
                    "comm_cycles": entry["comm_cycles"],
                }
                for name, entry in ctx.require("measurements").items()
            },
            "failures": dict(ctx.require("failures")),
        }

    def decode(self, payload: dict, ctx: StageContext) -> None:
        ctx.put(
            "measurements",
            {
                name: {
                    "means": entry["means"],
                    "reference": entry["reference"],
                    "reps": {
                        int(run): {"bp": pair["bp"], "roi": pair["roi"]}
                        for run, pair in entry["reps"].items()
                    },
                    "comm_cycles": entry["comm_cycles"],
                }
                for name, entry in payload["measurements"].items()
            },
        )
        ctx.put("failures", dict(payload["failures"]))


@register_stage
class ReconstructStage(Stage):
    """Step 4: scale representatives up to whole-program estimates."""

    name = "reconstruct"
    inputs = ("selections", "measurements")
    outputs = ("estimates",)
    description = "reconstruct whole-program counters from representatives"

    def run(self, ctx: StageContext) -> StageContext:
        selections = ctx.require("selections")
        estimates: dict[str, list[dict]] = {}
        for name, entry in ctx.require("measurements").items():
            estimates[name] = [
                {
                    "totals": reconstruct_totals(selection, entry["means"]),
                    "per_rep": reconstruct_per_rep(
                        selection, entry["reps"][selection.run_index]["bp"]
                    ),
                }
                for selection in selections
            ]
        ctx.put("estimates", estimates)
        return ctx


@register_stage
class ValidateStage(Stage):
    """Step 5: validate each estimate against the clean ROI reference."""

    name = "validate"
    inputs = ("selections", "measurements", "estimates")
    outputs = ("evaluations",)
    description = "validate estimates against the clean region of interest"

    def run(self, ctx: StageContext) -> StageContext:
        selections = ctx.require("selections")
        measurements = ctx.require("measurements")
        by_name = {machine.name: machine for machine in ctx.targets}
        evaluations: dict[str, list[EvaluationResult]] = {}
        for name, per_selection in ctx.require("estimates").items():
            entry = measurements[name]
            label = ctx.binary(by_name[name].isa).label
            evaluations[name] = [
                EvaluationResult(
                    label=label,
                    selection=selection,
                    report=validate_estimate(
                        estimate["totals"],
                        entry["reference"],
                        estimate_reps=estimate["per_rep"],
                        reference_reps=entry["reps"][selection.run_index]["roi"],
                    ),
                )
                for selection, estimate in zip(selections, per_selection, strict=True)
            ]
        ctx.put("evaluations", evaluations)
        return ctx


def default_stages() -> list[Stage]:
    """Fresh default-configured instances of the seven canonical stages."""
    from repro.api.registry import stage_registry

    return [stage_registry.get(name)() for name in DEFAULT_STAGE_NAMES]


# Importing this module is what populates the stage registry (it is the
# registry's autoload target), so the distributed-memory stages register
# here too — they live in their own module to keep this one the
# shared-memory canon.
from repro.api import rank_stages as _rank_stages  # noqa: E402,F401  (registration)
