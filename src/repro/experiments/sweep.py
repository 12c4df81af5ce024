"""Sweep grids — does the representative region survive a growing job?

The paper's tables fix the team width (Table IV reports 8 threads);
these artefacts sweep the job's parallelism along the two axes of
:mod:`repro.api.sweep`:

* ``repro scaling`` — thread teams 1, 2, 4, 8, 16 on one node;
* ``repro ranks`` — ranks 1, 2, 4, 8, each a 2-thread OpenMP team on
  its own node, which opens the distributed-memory axis the paper's
  limitations section names.

One study cell is declared per (application, machine, width) over every
evaluated app and the three registered machines (plus ``--machines``),
so the scheduler deduplicates and parallelises the whole grid at once.
Cells the target or the x86_64 discovery machine cannot host
scatter-first (16 threads on every Table II machine) are rendered as
explicit unsupported rows instead of being scheduled.

Per application the table reports, per (machine, width): the job's wall
cycles, the speedup and parallel efficiency against width 1 on the same
machine, the barrier points selected, and the barrier-region CPI
estimate against the full run's CPI.  Rank tables add the
**communication share** (the slowest rank's network cycles — transfer
plus busy-poll wait at collectives — as a percentage of the wall).  A
representative region that stops being representative shows up as
growing CPI error, not as a missing row; a job that merely becomes
communication-bound shows up as a growing comm share with stable CPI
error.

Sweep cells are derivations over stage-cached artifacts and are
deliberately *not* persisted in the cell-level StudyStore
(:data:`repro.exec.cells.CELL_LEVEL_UNCACHED`): the heavy stages are
shared through the :class:`~repro.exec.stagestore.StageStore` — across
the machines of one (app, width), and on the thread axis with the
crossarch cells' scalar half — so a re-render re-executes only cheap
reconstruction against stage-cache hits, which ``--verbose`` accounts
for even under the ``processes`` backend.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api.registry import machine_registry
from repro.api.sweep import (
    RANK_COUNTS,
    SCALING_MACHINES,
    SCALING_THREAD_COUNTS,
    Axis,
    RankAxis,
    SweepCell,
    SweepResult,
    ThreadAxis,
    decode_request,
    run_sweep_cell,
)
from repro.exec.request import StudyRequest
from repro.exec.scheduler import StudyScheduler
from repro.exec.stagestore import stage_store_for
from repro.experiments.config import (
    ExperimentConfig,
    default_config,
    grid_machines,
    register_config_machines,
)
from repro.util.tables import render_table
from repro.workloads.registry import EVALUATED_APPS

__all__ = [
    "SweepGrid",
    "SweepTable",
    "rank_request",
    "ranks",
    "scaling",
    "scaling_request",
    "sweep_cell",
]


def scaling_request(app: str, threads: int, machine: str) -> StudyRequest:
    """Declare the scaling cell for one (app, machine, threads)."""
    return ThreadAxis().request(app, threads, machine)


def rank_request(app: str, ranks: int, machine: str) -> StudyRequest:
    """Declare the rank cell for one (app, machine, ranks)."""
    return RankAxis().request(app, ranks, machine)


def sweep_cell(request: StudyRequest, config: ExperimentConfig) -> dict:
    """Executor for ``"scaling"`` and ``"ranks"`` cells (scheduler workers)."""
    register_config_machines(config)
    axis, width = decode_request(request)
    cell = run_sweep_cell(
        request.app,
        request.param("machine"),
        axis,
        width,
        config.pipeline_config(),
        store=stage_store_for(config),
    )
    return cell.to_payload()


@dataclass(frozen=True)
class SweepTable:
    """A sweep artefact: one :class:`~repro.api.sweep.SweepResult` per app."""

    results: list[SweepResult]

    def render(self) -> str:
        """One ASCII table per application, in evaluation order."""
        blocks = []
        for result in self.results:
            comm = ("Comm Mcyc", "Comm %") if result.axis.ranked else ()
            headers = (
                "Machine", result.axis.label, "Wall Mcyc", *comm, "Speedup",
                "Eff (%)", "BPs", "CPI est/true", "CPI err (%)", "Note",
            )
            rows = [
                _row(result, machine, width, len(headers))
                for machine in result.machines
                for width in result.widths
            ]
            blocks.append(render_table(headers, rows, title=result.axis.title(result.app)))
        return "\n\n".join(blocks)


def _row(result: SweepResult, machine: str, width: int, columns: int) -> tuple:
    """One table row: the cell's figures, or a blank row with a note."""
    cell = result.cells.get((machine, width))
    note = result.unsupported.get((machine, width))
    if note is None:
        note = "not computed" if cell is None else cell.failure
    if note:
        return (machine, width) + (None,) * (columns - 3) + (note,)
    speedup = result.speedup(machine, width)
    efficiency = result.efficiency_pct(machine, width)
    comm = (
        (f"{cell.comm_mcycles:.2f}", f"{cell.comm_pct:.1f}") if result.axis.ranked else ()
    )
    return (
        machine,
        width,
        f"{cell.wall_mcycles:.2f}",
        *comm,
        f"{speedup:.2f}x" if speedup is not None else None,
        f"{efficiency:.1f}" if efficiency is not None else None,
        f"{cell.k}/{cell.total_barrier_points}",
        f"{cell.cpi_estimate:.3f} / {cell.cpi_true:.3f}",
        f"{cell.cpi_error_pct:.2f}",
        "",
    )


@dataclass(frozen=True)
class SweepGrid:
    """One scheduled sweep: every evaluated app × machines × widths.

    The machine axis is the three built-ins plus any ingested machines
    the config names (``--machine-spec`` / ``--machines``).
    """

    axis: Axis
    widths: tuple[int, ...]

    def requests_for(self, apps, machines) -> list[StudyRequest]:
        """Every supported (app, machine, width) cell, app-major."""
        grid = self.axis.grid([machine_registry.get(name) for name in machines], self.widths)
        return [
            self.axis.request(app, width, machine.name)
            for app in apps
            for machine, width in grid
        ]

    def requests(self, config: ExperimentConfig) -> list[StudyRequest]:
        """Every supported cell of the apps × machines × widths grid."""
        register_config_machines(config)
        return self.requests_for(EVALUATED_APPS, grid_machines(config, SCALING_MACHINES))

    def build(self, results, config: ExperimentConfig) -> SweepTable:
        """Assemble the per-app tables from executed study cells."""
        register_config_machines(config)
        machines = grid_machines(config, SCALING_MACHINES)
        cells: dict[str, dict[tuple[str, int], SweepCell]] = {}
        for request, payload in results.items():
            if request.kind == self.axis.kind:
                cell = SweepCell.from_payload(payload)
                cells.setdefault(cell.app, {})[(cell.machine, cell.width)] = cell
        unsupported = self.axis.unsupported(
            [machine_registry.get(name) for name in machines], self.widths
        )
        return SweepTable(
            results=[
                SweepResult(
                    app=app,
                    axis=self.axis,
                    machines=machines,
                    widths=self.widths,
                    cells=cells.get(app, {}),
                    unsupported=dict(unsupported),
                )
                for app in EVALUATED_APPS
            ]
        )

    def run(
        self,
        config: ExperimentConfig | None = None,
        scheduler: StudyScheduler | None = None,
    ) -> SweepTable:
        """Build the sweep tables from the scheduled grid."""
        config = config or default_config()
        scheduler = scheduler or StudyScheduler(config)
        return self.build(scheduler.run(self.requests(config)), config)


#: ``repro scaling``: thread teams on one node.
scaling = SweepGrid(ThreadAxis(), SCALING_THREAD_COUNTS)

#: ``repro ranks``: rank counts of 2-thread teams, one rank per node.
ranks = SweepGrid(RankAxis(), RANK_COUNTS)
