"""The mutable state a stage graph runs over.

A :class:`StageContext` owns one (application, thread count, vectorised?)
configuration: its randomness tree, the lazily-built traces and true
counters per (ISA, machine), the measurement memos, and the ``artifacts``
mapping the stages read from and write to (observations → signatures →
clusterings → selections → measurements, estimates and evaluations).

The per-run discovery artifacts (``observations`` and ``signatures``)
are :class:`RunSequence` objects: each run is built when it is read, so
a stage that reads run r, uses it and drops it before reading run r + 1
holds one run's matrices at a time.  Run r of ``observations`` is
itself a sequence over the job's ranks (one for a shared-memory job).

Every random stream is addressed by exactly the paths the seed's
monolithic pipeline used — ``("structure", app, threads)``,
``("uarch", app, threads)``, ``("discovery", ..., label)``,
``("simpoint", ..., run)``, ``("measure", ..., machine)``,
``("per-rep", ..., run_index)`` — which is what makes the decomposed
stage pipeline bit-identical to the seed implementation, and what lets
a stage decoded from the cache hand downstream stages the same numbers
a live run would.
"""

from __future__ import annotations

import operator
from collections.abc import Callable, Sequence

import numpy as np

from repro.api.types import PipelineConfig, SupportsProgram
from repro.core.errors import CrossArchitectureMismatch
from repro.core.selection import BarrierPointSelection
from repro.hw.machines import Machine, machine_for
from repro.hw.measure import (
    measure_barrier_point_means,
    measure_roi_totals,
    sample_barrier_point_reps,
    sample_roi_reps,
)
from repro.hw.perf import PerfModel, TrueCounters
from repro.ir.trace import ExecutionTrace
from repro.isa.descriptors import ISA, BinaryConfig
from repro.runtime.execution import execute_program
from repro.util.rng import RngTree

__all__ = ["RunSequence", "StageContext"]


class RunSequence(Sequence):
    """Discovery runs, each built from its own seeded path when read.

    Indexing run ``r`` calls ``build(r)``, which draws the run afresh
    from generator path ``("run", r)`` (``("run", r, "rank", k)`` per
    rank); the paths are pure, so a run read twice has the same bits.
    The sequence keeps nothing of a built run but its ``weights`` (one
    float per barrier point), which :meth:`weights_of` hands back
    without building the run again: ``cluster`` reads every run before
    ``select`` asks for its weights.

    Example
    -------
    >>> import numpy as np
    >>> from repro.api.context import RunSequence
    >>> runs = RunSequence(3, lambda run: np.full(2, float(run)))
    >>> len(runs), runs[-1].tolist()
    (3, [2.0, 2.0])
    """

    def __init__(self, runs: int, build: Callable[[int], object]) -> None:
        self._runs = runs
        self._build = build
        self._weights: dict[int, np.ndarray] = {}

    def __len__(self) -> int:
        return self._runs

    def __getitem__(self, index: int) -> object:
        run = range(self._runs)[operator.index(index)]
        item = self._build(run)
        weights = getattr(item, "weights", None)
        if weights is not None:
            self._weights[run] = weights
        return item

    def weights_of(self, run: int) -> np.ndarray:
        """Run ``run``'s weights, remembered from its build."""
        return self._weights[run]


class StageContext:
    """Shared state of one pipeline execution.

    Stages communicate exclusively through the context: each one reads
    the artifacts named in its ``inputs`` (:meth:`require`) and
    publishes its ``outputs`` (:meth:`put`), while the lazily-built
    traces, counters and measurement memos are shared by every stage of
    the run.

    Example
    -------
    >>> from repro.api import StageContext
    >>> from repro.workloads.registry import create
    >>> ctx = StageContext(create("MCB"), threads=2)
    >>> ctx.put("note", 42)
    >>> ctx.require("note")
    42
    >>> ctx.get("missing", "default")
    'default'

    Parameters
    ----------
    app / threads / vectorised / config:
        The configuration under study.
    targets:
        Machines the evaluation-side stage (``measure``) operates on.
        Defaults to the discovery machine.
    discovery_isa:
        Where barrier points are discovered; the paper always uses
        x86_64 ("our objective is to extract the representative regions
        of the workloads on x86_64", Section V-A).
    """

    def __init__(
        self,
        app: SupportsProgram,
        threads: int,
        vectorised: bool = False,
        config: PipelineConfig | None = None,
        targets: tuple[Machine, ...] = (),
        discovery_isa: ISA = ISA.X86_64,
    ) -> None:
        self.app = app
        self.threads = threads
        self.vectorised = vectorised
        self.config = config or PipelineConfig()
        self.discovery_isa = discovery_isa
        self.targets: tuple[Machine, ...] = targets or (machine_for(discovery_isa),)
        self.tree = RngTree(self.config.seed)
        self.artifacts: dict[str, object] = {}
        self._traces: dict[ISA, ExecutionTrace] = {}
        self._counters: dict[tuple[ISA, str], TrueCounters] = {}
        self._measured: dict[tuple[ISA, str], np.ndarray] = {}
        self._references: dict[tuple[ISA, str], np.ndarray] = {}
        self._reps: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}

    # -------------------------------------------------------- artifacts
    def put(self, name: str, value: object) -> None:
        """Publish one stage output."""
        self.artifacts[name] = value

    def get(self, name: str, default: object = None) -> object:
        """Read an artifact if present."""
        return self.artifacts.get(name, default)

    def require(self, name: str) -> object:
        """Read an artifact a stage depends on; raise if missing."""
        try:
            return self.artifacts[name]
        except KeyError:
            raise RuntimeError(
                f"stage input {name!r} missing — did an upstream stage run? "
                f"(present: {sorted(self.artifacts)})"
            ) from None

    # ---------------------------------------------------------- plumbing
    def binary(self, isa: ISA) -> BinaryConfig:
        """The binary variant executed on ``isa`` in this configuration."""
        return BinaryConfig(isa, self.vectorised)

    def trace(self, isa: ISA) -> ExecutionTrace:
        """The (cached) dynamic execution on one ISA.

        Structural randomness is keyed only by (app, threads): both ISAs
        and both vectorisation settings observe the same input data and
        barrier-point sequence, exactly as native runs of the same
        problem would — except where the application itself iterates
        differently per architecture (HPGMG-FV).

        A workload carrying the ``distributed`` marker (see
        :class:`~repro.workloads.distributed.DistributedWorkload`)
        executes once per rank and is coalesced into a rank-major
        :class:`~repro.runtime.distributed.DistributedTrace`; the
        workload's distinct name keeps its randomness paths and cache
        digests apart from the shared-memory pipelines.
        """
        if isa not in self._traces:
            program = self.app.program(self.threads, isa)
            rng = self.tree.child("structure", self.app.name, self.threads)
            if getattr(self.app, "distributed", False):
                from repro.runtime.distributed import execute_distributed

                self._traces[isa] = execute_distributed(
                    program,
                    self.binary(isa),
                    self.app.ranks,
                    self.threads,
                    rng,
                    comm=self.app.comm_schedule(self.threads, isa),
                )
            else:
                self._traces[isa] = execute_program(
                    program, self.binary(isa), self.threads, rng
                )
        return self._traces[isa]

    def counters_on(self, isa: ISA, machine: Machine | None = None) -> TrueCounters:
        """True (noise-free) per-barrier-point counters on one machine."""
        machine = machine or machine_for(isa)
        key = (isa, machine.name)
        if key not in self._counters:
            model = PerfModel(self.tree.child("uarch", self.app.name, self.threads))
            self._counters[key] = model.true_counters(self.trace(isa), machine)
        return self._counters[key]

    def check_compatible(
        self,
        selection: BarrierPointSelection,
        machine: Machine,
        isa: ISA | None = None,
    ) -> TrueCounters:
        """Counters on a target, verifying the barrier sequences align.

        ``isa`` defaults to the machine's own; an explicit mismatched
        pairing (``StagePipeline.evaluate`` accepts one) fails inside
        the hardware model with a :class:`ValueError`.

        Raises
        ------
        CrossArchitectureMismatch
            If the target executes a different number of barrier points
            than the discovery architecture (Section V-B's HPGMG-FV
            limitation).
        """
        counters = self.counters_on(isa or machine.isa, machine)
        if counters.n_barrier_points != selection.n_barrier_points:
            raise CrossArchitectureMismatch(
                self.app.name, selection.n_barrier_points, counters.n_barrier_points
            )
        return counters

    def discovery_rng(self) -> RngTree:
        """Randomness of the discovery runs' interleaving jitter."""
        label = self.binary(self.discovery_isa).label
        return self.tree.child("discovery", self.app.name, self.threads, label)

    # ------------------------------------------------------- measurement
    def _measure_rng(self, isa: ISA, machine: Machine) -> RngTree:
        return self.tree.child(
            "measure", self.app.name, self.threads,
            self.binary(isa).label, machine.name,
        )

    def measured_means(self, machine: Machine, isa: ISA | None = None) -> np.ndarray:
        """Mean per-barrier-point counters on a target (instrumented run)."""
        isa = isa or machine.isa
        key = (isa, machine.name)
        if key not in self._measured:
            self._measured[key] = measure_barrier_point_means(
                self.counters_on(isa, machine),
                machine,
                self.config.protocol,
                self._measure_rng(isa, machine),
            )
        return self._measured[key]

    def reference_totals(self, machine: Machine, isa: ISA | None = None) -> np.ndarray:
        """Mean clean ROI counters on a target (the validation target)."""
        isa = isa or machine.isa
        key = (isa, machine.name)
        if key not in self._references:
            self._references[key] = measure_roi_totals(
                self.counters_on(isa, machine),
                machine,
                self.config.protocol,
                self._measure_rng(isa, machine),
            )
        return self._references[key]

    def rep_samples(
        self,
        selection: BarrierPointSelection,
        machine: Machine,
        isa: ISA | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-repetition (selected-BP, ROI) reads for one selection.

        Memoised on the representative set as well as the run index, so
        derived selections (coalescing, drop-small ablations) sharing a
        run index never alias each other's samples.
        """
        isa = isa or machine.isa
        key = (
            isa,
            machine.name,
            selection.run_index,
            tuple(int(i) for i in selection.representatives),
        )
        if key not in self._reps:
            counters = self.counters_on(isa, machine)
            rep_rng = self.tree.child(
                "per-rep", self.app.name, self.threads,
                self.binary(isa).label, machine.name,
                selection.run_index,
            )
            bp_reps = sample_barrier_point_reps(
                counters, machine, self.config.protocol, rep_rng,
                selection.representatives,
            )
            roi_reps = sample_roi_reps(
                counters, machine, self.config.protocol, rep_rng
            )
            self._reps[key] = (bp_reps, roi_reps)
        return self._reps[key]

    def release(self, machine: Machine, isa: ISA | None = None) -> None:
        """Forget a target's counters, means and per-repetition reads.

        ``measure`` calls this once it has estimated every selection on
        the target, so it holds one target's counters at a time; a
        later read builds them again from the same paths, bit for bit.
        """
        key = (isa or machine.isa, machine.name)
        self._counters.pop(key, None)
        self._measured.pop(key, None)
        for rep_key in [rep_key for rep_key in self._reps if rep_key[:2] == key]:
            del self._reps[rep_key]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"StageContext({self.app.name!r}, threads={self.threads}, "
            f"vectorised={self.vectorised}, artifacts={sorted(self.artifacts)})"
        )
