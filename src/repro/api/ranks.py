"""Distributed-memory rank studies on the stage API.

The paper's methodology is scoped to a single shared-memory node; a
:class:`RankStudy` opens the missing axis — *does a representative
region stay representative when the job runs as R communicating
processes?* — by sweeping one workload across rank counts × machines
through a rank-aware stage graph:

    rankify → coalesce_ranks → cluster → select → measure →
    reconstruct → validate

``rankify``/``coalesce_ranks`` (see :mod:`repro.api.rank_stages`)
instrument every rank and coalesce the per-rank signatures rank-major;
from clustering onward the canonical registered stages run unchanged on
the coalesced artifacts, and measurement sees the rank-major hybrid
trace whose network costs the machine's
:class:`~repro.hw.network.NetworkSpec` prices.

Per (machine, ranks) cell the study reports the same figures of merit
as the strong-scaling study — wall cycles, speedup/efficiency against
the 1-rank run, barrier points selected, reconstruction CPI error —
plus the **communication share**: the slowest rank's network cycles
(transfer + busy-poll wait) as a fraction of the wall, which is what
separates "the region stopped being representative" from "the job
became communication-bound".

The grid form (every evaluated app, scheduled cells, rendered tables)
lives in :mod:`repro.experiments.ranks` behind ``repro ranks``; this
module is the single-workload public API and the computation both
share.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api.builder import PipelineRun, StagePipeline, _resolve_target, _resolve_workload
from repro.api.rank_stages import CoalesceRanksStage, RankifyStage
from repro.api.scaling import best_run_metrics
from repro.api.types import PipelineConfig
from repro.exec.stagestore import StageStore
from repro.hw.machines import Machine
from repro.workloads.distributed import DistributedWorkload

__all__ = [
    "RANK_COUNTS",
    "RANK_MACHINES",
    "RANK_THREADS",
    "RankCell",
    "RankResult",
    "RankStudy",
    "default_rank_stages",
    "run_rank_cell",
    "rank_unsupported_reason",
]

#: The rank sweep's job sizes (mirroring the paper's 1/2/4/8 threads).
RANK_COUNTS = (1, 2, 4, 8)

#: OpenMP team width of every rank — the hybrid's MPI×OpenMP shape.
#: Two threads keeps the largest job (8 ranks × 2 threads) at 16
#: contexts while still exercising rank-local barrier behaviour.
RANK_THREADS = 2

#: Default machine axis: both Table II platforms plus the Section VIII
#: in-order core (one rank per node of the given machine).
RANK_MACHINES = (
    "Intel Core i7-3770",
    "ARMv8 AppliedMicro X-Gene",
    "ARMv8 in-order (A53-class)",
)


def rank_unsupported_reason(machine: Machine, threads: int) -> str:
    """Why a hybrid shape cannot be placed on one machine.

    Ranks land one per node, so only the per-rank team width can be
    unplaceable; the single source of the reason string the tables and
    tests render.
    """
    return (
        f"team of {threads} exceeds {machine.max_threads} hardware "
        f"contexts per node"
    )


def default_rank_stages() -> list:
    """The rank-aware stage graph, from the live registries.

    ``rankify`` and ``coalesce_ranks`` replace ``profile`` and
    ``signature``; the rest is the canonical shared-memory tail, so
    registered third-party replacements (a custom ``cluster``) flow
    through rank studies unchanged.
    """
    from repro.api.registry import stage_registry

    tail = ("cluster", "select", "measure", "reconstruct", "validate")
    return [RankifyStage(), CoalesceRanksStage()] + [
        stage_registry.get(name)() for name in tail
    ]


@dataclass(frozen=True)
class RankCell:
    """One (application, machine, ranks) point of a rank study.

    Attributes
    ----------
    app / machine / ranks / threads:
        The cell's coordinates: base application name, machine, rank
        count, and the per-rank OpenMP team width.
    k / total_barrier_points:
        Barrier points selected by the best (lowest primary error) set,
        and the total dynamic barrier points per rank.
    wall_mcycles:
        Slowest hardware context's mean clean-ROI cycles, in millions —
        the job's wall-clock under barrier + collective synchronisation.
    comm_mcycles:
        The slowest rank's network cycles (transfer + busy-poll wait),
        in millions, from the noise-free model — the communication bill.
    comm_pct:
        ``100 × comm_mcycles / wall_mcycles``.
    instructions:
        Mean clean-ROI instructions summed over every context.
    cpi_true / cpi_estimate / cpi_error_pct:
        Aggregate CPI of the full run, of the barrier-point
        reconstruction, and their relative error in percent.
    failure:
        Non-empty when the methodology could not be applied; every
        numeric field is zero in that case.
    """

    app: str
    machine: str
    ranks: int
    threads: int
    k: int
    total_barrier_points: int
    wall_mcycles: float
    comm_mcycles: float
    comm_pct: float
    instructions: float
    cpi_true: float
    cpi_estimate: float
    cpi_error_pct: float
    failure: str = ""

    def to_payload(self) -> dict:
        """JSON-shaped payload for the scheduler / process boundary."""
        return {
            "app": self.app,
            "machine": self.machine,
            "ranks": int(self.ranks),
            "threads": int(self.threads),
            "k": int(self.k),
            "total_barrier_points": int(self.total_barrier_points),
            "wall_mcycles": float(self.wall_mcycles),
            "comm_mcycles": float(self.comm_mcycles),
            "comm_pct": float(self.comm_pct),
            "instructions": float(self.instructions),
            "cpi_true": float(self.cpi_true),
            "cpi_estimate": float(self.cpi_estimate),
            "cpi_error_pct": float(self.cpi_error_pct),
            "failure": self.failure,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "RankCell":
        """Rebuild a cell from :meth:`to_payload` output."""
        return cls(**payload)

    @classmethod
    def failed(
        cls, app: str, machine: str, ranks: int, threads: int, reason: str
    ) -> "RankCell":
        """An all-zeros cell recording why the methodology failed here."""
        return cls(
            app=app,
            machine=machine,
            ranks=ranks,
            threads=threads,
            k=0,
            total_barrier_points=0,
            wall_mcycles=0.0,
            comm_mcycles=0.0,
            comm_pct=0.0,
            instructions=0.0,
            cpi_true=0.0,
            cpi_estimate=0.0,
            cpi_error_pct=0.0,
            failure=reason,
        )


def _cell_from_run(
    run: PipelineRun, app_name: str, machine: Machine, ranks: int, threads: int
) -> RankCell:
    """Derive one machine's rank cell from an executed stage graph."""
    metrics = best_run_metrics(run, machine)
    if metrics is None:
        return RankCell.failed(
            app_name, machine.name, ranks, threads, run.failures[machine.name]
        )

    # Communication bill from the noise-free model, as the measure stage
    # recorded it (already inside the measured wall; itemised here).
    comm_cycles = run.context.require("measurements")[machine.name]["comm_cycles"]
    return RankCell(
        app=app_name,
        machine=machine.name,
        ranks=ranks,
        threads=threads,
        k=metrics.selection.k,
        total_barrier_points=metrics.selection.n_barrier_points,
        wall_mcycles=metrics.wall_cycles / 1e6,
        comm_mcycles=comm_cycles / 1e6,
        comm_pct=(
            100.0 * comm_cycles / metrics.wall_cycles
            if metrics.wall_cycles
            else 0.0
        ),
        instructions=metrics.instructions,
        cpi_true=metrics.cpi_true,
        cpi_estimate=metrics.cpi_estimate,
        cpi_error_pct=metrics.cpi_error_pct,
    )


def run_rank_cell(
    workload,
    machine,
    ranks: int,
    threads: int = RANK_THREADS,
    config: PipelineConfig | None = None,
    store: StageStore | None = None,
) -> RankCell:
    """Execute one rank cell through the rank-aware stage graph.

    Discovery (per-rank instrumentation + coalescing + clustering)
    runs on x86_64 at the cell's job shape; measurement,
    reconstruction and validation target the cell's machine.  With a
    :class:`StageStore` the x86_64-side stage payloads are shared by
    every machine at the same (app, ranks, threads), so a grid sweep
    executes each discovery exactly once.

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
    app = _resolve_workload(workload)
    machine = _resolve_target(machine)
    config = config or PipelineConfig()
    if getattr(app, "distributed", False):
        job, base_name = app, app.base.name
        if job.ranks != ranks:
            raise ValueError(
                f"workload is wrapped for {job.ranks} ranks but the cell "
                f"asks for {ranks}"
            )
    else:
        job, base_name = DistributedWorkload(app, ranks), app.name
    pipeline = StagePipeline(
        job, threads, False, config,
        stages=default_rank_stages(), targets=(machine,),
    )
    return _cell_from_run(pipeline.run(store), base_name, machine, ranks, threads)


@dataclass(frozen=True)
class RankResult:
    """All cells of one application's rank study.

    Attributes
    ----------
    app:
        The base workload name.
    machines / rank_counts / threads:
        The axes, in sweep order, and the per-rank team width.
    cells:
        ``(machine name, ranks)`` → :class:`RankCell` for every
        supported grid point.
    unsupported:
        ``(machine name, ranks)`` → reason, for machines whose nodes
        cannot host the per-rank team.
    """

    app: str
    machines: tuple[str, ...]
    rank_counts: tuple[int, ...]
    threads: int
    cells: dict
    unsupported: dict

    def cell(self, machine: str, ranks: int) -> RankCell:
        """One grid point (raises ``KeyError`` for unsupported shapes)."""
        return self.cells[(machine, ranks)]

    def speedup(self, machine: str, ranks: int) -> float | None:
        """wall(1 rank) / wall(R ranks) on one machine; None without a base."""
        base = self.cells.get((machine, 1))
        cell = self.cells.get((machine, ranks))
        if base is None or cell is None or cell.failure or base.failure:
            return None
        if cell.wall_mcycles == 0.0:
            return None
        return base.wall_mcycles / cell.wall_mcycles

    def efficiency_pct(self, machine: str, ranks: int) -> float | None:
        """Parallel efficiency: speedup over rank count, in percent."""
        speedup = self.speedup(machine, ranks)
        if speedup is None:
            return None
        return 100.0 * speedup / ranks


class RankStudy:
    """Sweep one workload's rank counts × machines through the stages.

    The public, in-process form of the distributed-memory study::

        from repro.api import RankStudy

        result = RankStudy("miniFE", rank_counts=(1, 2, 4)).run()
        result.efficiency_pct("Intel Core i7-3770", 4)
        result.cell("Intel Core i7-3770", 4).comm_pct

    Every cell composes the registered rank-aware stage graph
    (:func:`default_rank_stages`); third-party stages swapped into the
    stage registry, and machines added to the machine registry, flow
    through unchanged.  The multi-application scheduled grid behind
    ``repro ranks`` lives in :mod:`repro.experiments.ranks` and
    executes the same :func:`run_rank_cell`.

    Parameters
    ----------
    workload:
        Registry name, workload class, or instance (the shared-memory
        application; each rank count wraps it on the fly).
    machines:
        Machine axis: registered names, ISAs, or Machine instances.
    rank_counts:
        Job sizes to sweep.
    threads:
        Per-rank OpenMP team width; machines whose nodes cannot host it
        are reported under :attr:`RankResult.unsupported`.
    config:
        Shared stage configuration (protocol scale, seed, ...).
    """

    def __init__(
        self,
        workload,
        machines=RANK_MACHINES,
        rank_counts: tuple[int, ...] = RANK_COUNTS,
        threads: int = RANK_THREADS,
        config: PipelineConfig | None = None,
    ) -> None:
        self.app = _resolve_workload(workload)
        self.machines: tuple[Machine, ...] = tuple(
            _resolve_target(machine) for machine in machines
        )
        self.rank_counts = tuple(rank_counts)
        self.threads = threads
        self.config = config or PipelineConfig()

    def grid(self) -> list[tuple[Machine, int]]:
        """The supported (machine, ranks) cells, in sweep order."""
        return [
            (machine, ranks)
            for machine in self.machines
            for ranks in self.rank_counts
            if machine.supports_hybrid(ranks, self.threads)
        ]

    def unsupported(self) -> dict[tuple[str, int], str]:
        """(machine name, ranks) → reason, for unplaceable shapes."""
        return {
            (machine.name, ranks): rank_unsupported_reason(machine, self.threads)
            for machine in self.machines
            for ranks in self.rank_counts
            if not machine.supports_hybrid(ranks, self.threads)
        }

    def run(self, store: StageStore | None = None) -> RankResult:
        """Execute every supported cell (stage-cached when given a store).

        One stage graph runs per rank count, targeting every machine
        that can host the shape — the x86_64 discovery executes once
        per rank count and only measurement/validation fan out across
        the machine axis.  Use ``repro ranks`` for the scheduled
        multi-application grid.
        """
        cells: dict[tuple[str, int], RankCell] = {}
        for ranks in self.rank_counts:
            machines = tuple(
                machine
                for machine in self.machines
                if machine.supports_hybrid(ranks, self.threads)
            )
            if not machines:
                continue
            job = DistributedWorkload(self.app, ranks)
            pipeline = StagePipeline(
                job, self.threads, False, self.config,
                stages=default_rank_stages(), targets=machines,
            )
            run = pipeline.run(store)
            for machine in machines:
                cells[(machine.name, ranks)] = _cell_from_run(
                    run, self.app.name, machine, ranks, self.threads
                )
        return RankResult(
            app=self.app.name,
            machines=tuple(machine.name for machine in self.machines),
            rank_counts=self.rank_counts,
            threads=self.threads,
            cells=cells,
            unsupported=self.unsupported(),
        )
