"""Axis sweeps on the stage API: thread teams and MPI-style ranks.

The paper evaluates representative regions at a fixed team width per
table.  A :class:`Sweep` turns the job's parallelism into a study axis
and asks the follow-up question — *does the representative region stay
representative as the job grows?* — by running one workload across
widths × machines through the registered stage graph.  The
:class:`Axis` says what a width is:

* :class:`ThreadAxis` — the OpenMP team of one shared-memory node,
  through the canonical graph (profile → signature → cluster → select
  → measure → reconstruct → validate);
* :class:`RankAxis` — the number of MPI-style ranks, each a fixed-width
  team on its own node.  ``rankify``/``coalesce_ranks`` (see
  :mod:`repro.api.rank_stages`) instrument every rank and coalesce the
  per-rank signatures rank-major; from clustering onward the canonical
  stages run unchanged, and measurement sees the rank-major hybrid
  trace whose network costs the machine's
  :class:`~repro.hw.network.NetworkSpec` prices.

Per (machine, width) cell a sweep reports:

* **wall cycles** — the slowest context's mean clean-ROI cycle count,
  which under barrier synchronisation is the region's wall-clock;
* **speedup / parallel efficiency** — wall(1) / wall(w), and that
  divided by w (computed by :class:`SweepResult` from the cells);
* **barrier-region CPI error** — the relative error of the CPI derived
  from the best barrier point set's reconstruction against the full
  run's CPI at that width: the robustness figure of merit;
* on the rank axis, the **communication share** — the slowest rank's
  network cycles (transfer + busy-poll wait) as a fraction of the wall,
  which separates "the region stopped being representative" from "the
  job became communication-bound".

Discovery always runs on the x86_64 machine (the paper's Section V-A
rule) at the cell's shape, so a width is scheduled only where both the
target and the discovery machine can host its teams scatter-first;
every other width is reported as unsupported
(:meth:`Axis.unsupported_reason`) rather than scheduled —
oversubscription is outside the paper's pinning protocol (see
:meth:`repro.hw.machines.Machine.validate_threads`).

The scheduled grid over every evaluated app (``repro scaling`` and
``repro ranks``) lives in :mod:`repro.experiments.sweep`; this module is
the single-workload public API and the computation both share.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import ClassVar

from repro.api.builder import PipelineRun, StagePipeline, _resolve_target, _resolve_workload
from repro.api.rank_stages import CoalesceRanksStage, RankifyStage
from repro.api.types import PipelineConfig
from repro.exec.request import StudyRequest
from repro.exec.stagestore import StageStore
from repro.hw.machines import APM_XGENE, ARMV8_IN_ORDER, INTEL_I7_3770, Machine, machine_for
from repro.hw.pmu import CYCLES, INSTRUCTIONS
from repro.isa.descriptors import ISA
from repro.workloads.distributed import DistributedWorkload

__all__ = [
    "RANK_COUNTS",
    "RANK_MACHINES",
    "RANK_THREADS",
    "SCALING_MACHINES",
    "SCALING_THREAD_COUNTS",
    "Axis",
    "RankAxis",
    "RankCell",
    "RankResult",
    "RankStudy",
    "ScalingCell",
    "ScalingResult",
    "ScalingStudy",
    "Sweep",
    "SweepCell",
    "SweepResult",
    "ThreadAxis",
    "decode_request",
    "default_rank_stages",
    "run_rank_cell",
    "run_scaling_cell",
    "run_sweep_cell",
]

#: The strong-scaling sweep's team widths.  16 exceeds every Table II
#: machine's hardware contexts and renders as an unsupported row — the
#: sweep states its own applicability limit instead of hiding it.
SCALING_THREAD_COUNTS = (1, 2, 4, 8, 16)

#: The rank sweep's job sizes (mirroring the paper's 1/2/4/8 threads).
RANK_COUNTS = (1, 2, 4, 8)

#: OpenMP team width of every rank — the hybrid's MPI×OpenMP shape.
#: Two threads keeps the largest job (8 ranks × 2 threads) at 16
#: contexts while still exercising rank-local barrier behaviour.
RANK_THREADS = 2

#: Default machine axis of both sweeps: both Table II platforms plus the
#: Section VIII in-order core (one rank per node on the rank axis), all
#: taken from the open machine registry.
SCALING_MACHINES = (INTEL_I7_3770.name, APM_XGENE.name, ARMV8_IN_ORDER.name)

#: The rank sweep's machine axis: the same tuple as SCALING_MACHINES.
RANK_MACHINES = SCALING_MACHINES


def default_rank_stages() -> list:
    """The rank-aware stage graph, from the live registries.

    ``rankify`` and ``coalesce_ranks`` replace ``profile`` and
    ``signature``; the rest is the canonical shared-memory tail, so
    registered third-party replacements (a custom ``cluster``) flow
    through rank sweeps unchanged.
    """
    from repro.api.registry import stage_registry

    tail = ("cluster", "select", "measure", "reconstruct", "validate")
    return [RankifyStage(), CoalesceRanksStage()] + [
        stage_registry.get(name)() for name in tail
    ]


class Axis:
    """What a :class:`Sweep` varies, and how one width becomes a job.

    A subclass decides the per-width job shape (:meth:`shape`), workload
    (:meth:`job`) and stage list (:meth:`stages`), the study request
    that declares a cell, and the table's title; the support predicate
    and the grid split below are shared by both axes.
    """

    #: Study request kind of this axis's cells (a ``CELL_KINDS`` key).
    kind: ClassVar[str]
    #: Table column naming the width.
    label: ClassVar[str]
    #: Whether cells are rank jobs: they carry a rank count and the
    #: communication bill (the ``Comm Mcyc`` / ``Comm %`` columns).
    ranked: ClassVar[bool] = False

    def shape(self, width: int) -> tuple[int, int]:
        """The (ranks, threads per rank) job one width runs."""
        raise NotImplementedError

    def job(self, app, width: int):
        """The workload one width runs."""
        return app

    def stages(self) -> list | None:
        """The stage graph (None: the canonical registered stages)."""
        return None

    def limit(self, host: Machine) -> str:
        """Why ``host`` cannot place this axis's per-node team."""
        raise NotImplementedError

    def title(self, app: str) -> str:
        """The rendered table's title for one application."""
        raise NotImplementedError

    def request(self, app: str, width: int, machine: str) -> StudyRequest:
        """Declare the scheduled cell for one (app, machine, width)."""
        raise NotImplementedError

    def unsupported_reason(self, machine: Machine, width: int) -> str | None:
        """Why a width cannot run against ``machine``; None when it can.

        The one support predicate of both axes: the target and the
        x86_64 discovery machine must each place the job's teams
        scatter-first, because discovery runs there at the cell's shape
        whatever the target.  Ingested machines with more contexts than
        the i7-3770 are where the second check bites.
        """
        ranks, threads = self.shape(width)
        if not machine.supports_hybrid(ranks, threads):
            return self.limit(machine)
        discovery = machine_for(ISA.X86_64)
        if not discovery.supports_hybrid(ranks, threads):
            return f"x86_64 discovery ({discovery.name}) {self.limit(discovery)}"
        return None

    def grid(self, machines, widths) -> list[tuple[Machine, int]]:
        """The supported (machine, width) cells, machine-major."""
        return [
            (machine, width)
            for machine in machines
            for width in widths
            if self.unsupported_reason(machine, width) is None
        ]

    def unsupported(self, machines, widths) -> dict[tuple[str, int], str]:
        """(machine name, width) → reason, for every unplaceable cell."""
        reasons = {
            (machine.name, width): self.unsupported_reason(machine, width)
            for machine in machines
            for width in widths
        }
        return {key: reason for key, reason in reasons.items() if reason is not None}


@dataclass(frozen=True)
class ThreadAxis(Axis):
    """Strong scaling: the width is the OpenMP team of one node."""

    kind: ClassVar[str] = "scaling"
    label: ClassVar[str] = "Threads"

    def shape(self, width: int) -> tuple[int, int]:
        return 1, width

    def limit(self, host: Machine) -> str:
        return f"exceeds {host.max_threads} hardware contexts"

    def title(self, app: str) -> str:
        return f"Strong scaling — {app} (scalar binaries, x86_64 discovery)"

    def request(self, app: str, width: int, machine: str) -> StudyRequest:
        return StudyRequest(
            kind=self.kind, app=app, threads=width, params=(("machine", machine),)
        )


@dataclass(frozen=True)
class RankAxis(Axis):
    """Distributed ranks: the width is the rank count, one rank per node.

    Attributes
    ----------
    threads:
        Per-rank OpenMP team width; machines whose nodes cannot host it
        report every rank count as unsupported.
    """

    threads: int = RANK_THREADS

    kind: ClassVar[str] = "ranks"
    label: ClassVar[str] = "Ranks"
    ranked: ClassVar[bool] = True

    def shape(self, width: int) -> tuple[int, int]:
        return width, self.threads

    def job(self, app, width: int):
        """Wrap the application into a ``width``-rank SPMD job.

        A workload already wrapped for that rank count runs as is.
        """
        if not getattr(app, "distributed", False):
            return DistributedWorkload(app, width)
        if app.ranks != width:
            raise ValueError(
                f"workload is wrapped for {app.ranks} ranks but the cell "
                f"asks for {width}"
            )
        return app

    def stages(self) -> list:
        return default_rank_stages()

    def limit(self, host: Machine) -> str:
        return (
            f"team of {self.threads} exceeds {host.max_threads} hardware "
            f"contexts per node"
        )

    def title(self, app: str) -> str:
        return (
            f"Distributed ranks — {app} ({self.threads} threads/rank, "
            "scalar binaries, x86_64 discovery)"
        )

    def request(self, app: str, width: int, machine: str) -> StudyRequest:
        return StudyRequest(
            kind=self.kind,
            app=app,
            threads=self.threads,
            params=(("machine", machine), ("ranks", width)),
        )


def decode_request(request: StudyRequest) -> tuple[Axis, int]:
    """The axis and width a ``scaling`` or ``ranks`` request declares."""
    if request.kind == RankAxis.kind:
        return RankAxis(request.threads), int(request.param("ranks"))
    return ThreadAxis(), request.threads


@dataclass(frozen=True, kw_only=True)
class SweepCell:
    """One (application, machine, width) point of a sweep.

    Attributes
    ----------
    app / machine / ranks / threads:
        The cell's coordinates: base application name, machine, rank
        count (None on the thread axis) and the per-rank team width.
    k / total_barrier_points:
        Barrier points selected by the best (lowest primary error) set
        at this width, and the total dynamic barrier points (per rank).
    wall_mcycles:
        Slowest hardware context's mean clean-ROI cycles, in millions —
        the job's wall-clock under barrier (and collective)
        synchronisation.
    comm_mcycles / comm_pct:
        The slowest rank's network cycles (transfer + busy-poll wait),
        in millions, from the noise-free model — the communication bill
        — and its share of the wall.  Zero for a shared-memory job, and
        not part of a thread-axis payload.
    instructions:
        Mean clean-ROI instructions summed over every context.
    cpi_true / cpi_estimate / cpi_error_pct:
        Aggregate CPI of the full run, of the barrier-point
        reconstruction, and ``100 × |estimate - true| / true``.
    failure:
        Non-empty when the methodology could not be applied on this
        machine (barrier-sequence mismatch); every numeric field is
        zero in that case.
    """

    app: str
    machine: str
    ranks: int | None = None
    threads: int
    k: int = 0
    total_barrier_points: int = 0
    wall_mcycles: float = 0.0
    comm_mcycles: float = 0.0
    comm_pct: float = 0.0
    instructions: float = 0.0
    cpi_true: float = 0.0
    cpi_estimate: float = 0.0
    cpi_error_pct: float = 0.0
    failure: str = ""

    @property
    def width(self) -> int:
        """The swept coordinate: the rank count, else the team width."""
        return self.threads if self.ranks is None else self.ranks

    def to_payload(self) -> dict:
        """JSON-shaped payload for the scheduler / process boundary."""
        payload = asdict(self)
        if self.ranks is None:
            for key in ("ranks", "comm_mcycles", "comm_pct"):
                del payload[key]
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> SweepCell:
        """Rebuild a cell from :meth:`to_payload` output."""
        return cls(**payload)


def _cell_from_run(
    run: PipelineRun, app: str, machine: Machine, axis: Axis, width: int
) -> SweepCell:
    """Derive one machine's cell from an executed stage graph.

    Picks the lowest primary-error barrier point set of the run; a
    machine the methodology failed on yields an all-zeros cell that
    records ``run.failures[machine.name]``.
    """
    ranks, threads = axis.shape(width)
    cell = SweepCell(
        app=app, machine=machine.name, ranks=ranks if axis.ranked else None, threads=threads
    )
    evaluations = run.evaluations.get(machine.name)
    if evaluations is None:
        return replace(cell, failure=run.failures[machine.name])

    best = min(
        range(len(evaluations)),
        key=lambda i: evaluations[i].report.primary_error,
    )
    selection = evaluations[best].selection
    measurements = run.context.require("measurements")[machine.name]
    reference = measurements["reference"]
    estimate = run.context.require("estimates")[machine.name][best]["totals"]
    wall = float(reference[:, CYCLES].max())
    instructions = float(reference[:, INSTRUCTIONS].sum())
    cpi_true = float(reference[:, CYCLES].sum()) / instructions
    cpi_estimate = float(estimate[:, CYCLES].sum()) / float(estimate[:, INSTRUCTIONS].sum())
    # Communication bill from the noise-free model, as the measure stage
    # recorded it (already inside the measured wall; itemised here).
    comm = float(measurements["comm_cycles"])
    return replace(
        cell,
        k=selection.k,
        total_barrier_points=selection.n_barrier_points,
        wall_mcycles=wall / 1e6,
        comm_mcycles=comm / 1e6,
        comm_pct=100.0 * comm / wall if wall else 0.0,
        instructions=instructions,
        cpi_true=cpi_true,
        cpi_estimate=cpi_estimate,
        cpi_error_pct=100.0 * abs(cpi_estimate - cpi_true) / cpi_true,
    )


def _app_name(app) -> str:
    """The application a cell reports: a pre-wrapped rank job's base."""
    return getattr(app, "base", app).name


def _run_width(
    app, axis: Axis, width: int, machines: tuple[Machine, ...], config, store
) -> list[SweepCell]:
    """One stage graph at one width, measured on every given machine."""
    pipeline = StagePipeline(
        axis.job(app, width),
        axis.shape(width)[1],
        False,
        config,
        stages=axis.stages(),
        targets=machines,
    )
    run = pipeline.run(store)
    name = _app_name(app)
    return [_cell_from_run(run, name, machine, axis, width) for machine in machines]


def run_sweep_cell(
    workload,
    machine,
    axis: Axis,
    width: int,
    config: PipelineConfig | None = None,
    store: StageStore | None = None,
) -> SweepCell:
    """Execute one sweep cell through the axis's stage graph.

    Discovery runs on x86_64 (the paper's Section V-A rule) at the
    cell's shape; measurement, reconstruction and validation target the
    cell's machine.  With a :class:`StageStore`, the x86_64-side stage
    payloads are shared by every machine at the same (app, width) — and
    on the thread axis with the crossarch cells' scalar half — so a grid
    sweep executes each discovery exactly once.
    """
    app = _resolve_workload(workload)
    config = config or PipelineConfig()
    return _run_width(app, axis, width, (_resolve_target(machine),), config, store)[0]


@dataclass(frozen=True)
class SweepResult:
    """All cells of one application's sweep.

    Attributes
    ----------
    app:
        The (base) workload name.
    axis:
        What the widths are: team widths or rank counts.
    machines / widths:
        The grid axes, in sweep order.
    cells:
        ``(machine name, width)`` → :class:`SweepCell` for every
        supported grid point.
    unsupported:
        ``(machine name, width)`` → reason, for every cell the target or
        the discovery machine cannot host.
    """

    app: str
    axis: Axis
    machines: tuple[str, ...]
    widths: tuple[int, ...]
    cells: dict
    unsupported: dict

    def cell(self, machine: str, width: int) -> SweepCell:
        """One grid point (raises ``KeyError`` for unsupported widths)."""
        return self.cells[(machine, width)]

    def speedup(self, machine: str, width: int) -> float | None:
        """wall(1) / wall(width) on one machine; None without a base."""
        base = self.cells.get((machine, 1))
        cell = self.cells.get((machine, width))
        if base is None or cell is None or cell.failure or base.failure:
            return None
        if cell.wall_mcycles == 0.0:
            return None
        return base.wall_mcycles / cell.wall_mcycles

    def efficiency_pct(self, machine: str, width: int) -> float | None:
        """Parallel efficiency: speedup over width, in percent."""
        speedup = self.speedup(machine, width)
        if speedup is None:
            return None
        return 100.0 * speedup / width


#: Per-axis names of the one cell and result type, so code that imports
#: or annotates with the thread-axis or rank-axis name still resolves.
ScalingCell = RankCell = SweepCell
ScalingResult = RankResult = SweepResult


class Sweep:
    """Sweep one workload's widths × machines through the stages.

    The public, in-process form of both sweeps::

        from repro.api import RankAxis, Sweep, ThreadAxis

        result = Sweep("miniFE", ThreadAxis(), (1, 2, 4, 8)).run()
        result.efficiency_pct("ARMv8 AppliedMicro X-Gene", 8)

        result = Sweep("miniFE", RankAxis(), (1, 2, 4)).run()
        result.cell("Intel Core i7-3770", 4).comm_pct

    Every cell composes the registered stage graph; third-party stages
    swapped into the stage registry, and machines added to the machine
    registry, flow through unchanged.  The multi-application scheduled
    grids behind ``repro scaling`` and ``repro ranks`` live in
    :mod:`repro.experiments.sweep` and execute the same cells.

    Parameters
    ----------
    workload:
        Registry name, workload class, or instance (the shared-memory
        application; the rank axis wraps it per rank count).
    axis:
        What the widths are (:class:`ThreadAxis` or :class:`RankAxis`).
    widths:
        Values to sweep; cells the target or the discovery machine
        cannot host are reported under :attr:`SweepResult.unsupported`.
    machines:
        Machine axis: registered names, ISAs, or Machine instances.
    config:
        Shared stage configuration (protocol scale, seed, ...).
    """

    def __init__(
        self,
        workload,
        axis: Axis,
        widths: tuple[int, ...],
        machines=SCALING_MACHINES,
        config: PipelineConfig | None = None,
    ) -> None:
        self.app = _resolve_workload(workload)
        self.axis = axis
        self.widths = tuple(widths)
        self.machines: tuple[Machine, ...] = tuple(
            _resolve_target(machine) for machine in machines
        )
        self.config = config or PipelineConfig()

    def grid(self) -> list[tuple[Machine, int]]:
        """The supported (machine, width) cells, in sweep order."""
        return self.axis.grid(self.machines, self.widths)

    def unsupported(self) -> dict[tuple[str, int], str]:
        """(machine name, width) → reason, for unplaceable cells."""
        return self.axis.unsupported(self.machines, self.widths)

    def run(self, store: StageStore | None = None) -> SweepResult:
        """Execute every supported cell (stage-cached when given a store).

        One stage graph runs per width, targeting every machine that can
        host it — the x86_64 discovery executes once per width and only
        measurement/validation fan out across the machine axis, with or
        without a store.  Use ``repro scaling`` / ``repro ranks`` for
        the scheduled multi-application grids.
        """
        cells: dict[tuple[str, int], SweepCell] = {}
        for width in self.widths:
            machines = tuple(
                machine
                for machine in self.machines
                if self.axis.unsupported_reason(machine, width) is None
            )
            if not machines:
                continue
            for cell in _run_width(self.app, self.axis, width, machines, self.config, store):
                cells[(cell.machine, width)] = cell
        return SweepResult(
            app=_app_name(self.app),
            axis=self.axis,
            machines=tuple(machine.name for machine in self.machines),
            widths=self.widths,
            cells=cells,
            unsupported=self.unsupported(),
        )


def ScalingStudy(
    workload,
    machines=SCALING_MACHINES,
    thread_counts: tuple[int, ...] = SCALING_THREAD_COUNTS,
    config: PipelineConfig | None = None,
) -> Sweep:
    """The strong-scaling :class:`Sweep`: thread counts × machines.

    Example: ``ScalingStudy("miniFE", thread_counts=(1, 2, 4, 8)).run()``.
    """
    return Sweep(workload, ThreadAxis(), thread_counts, machines, config)


def RankStudy(
    workload,
    machines=RANK_MACHINES,
    rank_counts: tuple[int, ...] = RANK_COUNTS,
    threads: int = RANK_THREADS,
    config: PipelineConfig | None = None,
) -> Sweep:
    """The distributed-memory :class:`Sweep`: rank counts × machines.

    Each rank is a ``threads``-wide team on its own node, e.g.
    ``RankStudy("miniFE", rank_counts=(1, 2, 4)).run()``.
    """
    return Sweep(workload, RankAxis(threads), rank_counts, machines, config)


def run_scaling_cell(
    workload,
    machine,
    threads: int,
    config: PipelineConfig | None = None,
    store: StageStore | None = None,
) -> SweepCell:
    """Execute one strong-scaling cell (see :func:`run_sweep_cell`).

    Example
    -------
    >>> from repro.api import run_scaling_cell, PipelineConfig
    >>> from repro.hw.measure import MeasurementProtocol
    >>> fast = PipelineConfig(
    ...     discovery_runs=1, protocol=MeasurementProtocol(repetitions=2)
    ... )
    >>> cell = run_scaling_cell("MCB", "Intel Core i7-3770", 2, fast)
    >>> cell.threads, cell.k >= 1
    (2, True)
    """
    return run_sweep_cell(workload, machine, ThreadAxis(), threads, config, store)


def run_rank_cell(
    workload,
    machine,
    ranks: int,
    threads: int = RANK_THREADS,
    config: PipelineConfig | None = None,
    store: StageStore | None = None,
) -> SweepCell:
    """Execute one rank cell (see :func:`run_sweep_cell`).

    Example
    -------
    >>> from repro.api import run_rank_cell, PipelineConfig
    >>> from repro.hw.measure import MeasurementProtocol
    >>> fast = PipelineConfig(
    ...     discovery_runs=2, protocol=MeasurementProtocol(repetitions=3)
    ... )
    >>> cell = run_rank_cell("MCB", "Intel Core i7-3770", ranks=2, config=fast)
    >>> cell.ranks, cell.comm_mcycles > 0
    (2, True)
    """
    return run_sweep_cell(workload, machine, RankAxis(threads), ranks, config, store)
