"""SPMD wrapping of the Table I applications into rank-parallel jobs.

:class:`DistributedWorkload` turns any shared-memory proxy app into an
MPI-style job of R identical ranks, attaching a communication schedule
derived from the application's own structure.  The wrapped object still
satisfies :class:`~repro.api.types.SupportsProgram` — its per-rank
program is exactly the base application's — so the stage machinery
composes with it unchanged; the extra rank structure travels through
the ``distributed`` / ``ranks`` / ``comm_schedule`` attributes that the
execution context and the ``profile`` stage duck-type on.

Default schedule layout (deterministic per application)
-------------------------------------------------------

The generated :class:`~repro.ir.comm.CommSchedule` models the dominant
communication skeleton of iterative domain-decomposed codes:

1. one ``BROADCAST`` (4 KiB of parameters, root 0) at position 0 —
   the initial problem distribution;
2. an ``ALLREDUCE`` (one 8-byte scalar — a residual or energy norm)
   at the end of every *phase*: the barrier-point sequence is split
   into :data:`DEFAULT_PHASES` equal phases, and the final barrier
   point always closes one, so the job ends globally synchronised;
3. a ring halo exchange (``SEND`` pairs between neighbouring ranks)
   at the same phase boundaries, with per-message bytes following a
   3-D surface-to-volume law: ``6 × (footprint / ranks)^(2/3)``,
   floored at one cache line.

Every quantity is a pure function of (application, ranks), so the
schedule — like everything else in the pipeline — is reproducible from
the configuration alone; collective positions are identical on every
rank by construction, which is what keeps region boundaries aligned
across the job.
"""

from __future__ import annotations

from repro.ir.comm import CommEvent, CommKind, CommSchedule, ring_exchange
from repro.ir.program import Program
from repro.isa.descriptors import ISA
from repro.util.units import CACHE_LINE_BYTES
from repro.workloads.base import ProxyApp

__all__ = ["DEFAULT_PHASES", "DistributedWorkload", "default_comm_schedule", "halo_bytes"]

#: Number of communication phases the barrier-point sequence is split
#: into (each closed by an allreduce + halo exchange).  Sixteen phases
#: keep even PathFinder's single barrier point valid (one final phase)
#: while giving LULESH's ~10k points a realistic collective cadence.
DEFAULT_PHASES = 16

#: Broadcast payload of the initial parameter distribution.
_BROADCAST_BYTES = 4096.0

#: Allreduce payload: one double (residual/energy norm).
_ALLREDUCE_BYTES = 8.0


def halo_bytes(footprint_bytes: float, ranks: int) -> float:
    """Per-message halo size for a 3-D domain decomposition.

    One rank owns ``footprint / ranks`` of the domain; its boundary
    layer scales like the sub-domain's surface, ``6 × volume^(2/3)``,
    floored at one cache line so even tiny workloads move real bytes.
    """
    if ranks < 1:
        raise ValueError(f"ranks must be >= 1, got {ranks}")
    share = max(float(footprint_bytes) / ranks, 1.0)
    return max(6.0 * share ** (2.0 / 3.0), float(CACHE_LINE_BYTES))


def _max_footprint_bytes(program: Program) -> float:
    """Largest block footprint of the program (the domain's scale)."""
    return max(
        (
            block.pattern.footprint_bytes
            for template in program.templates
            for block in template.blocks
        ),
        default=float(CACHE_LINE_BYTES),
    )


def default_comm_schedule(
    program: Program, ranks: int, phases: int = DEFAULT_PHASES
) -> CommSchedule:
    """Build the documented default schedule for one program × ranks.

    See the module docstring for the layout.  With a single rank the
    schedule keeps its collective positions (so region boundaries are
    defined identically at every rank count) but every operation costs
    zero cycles — the rank-sweep baseline.
    """
    n_bp = program.n_barrier_points
    interval = max(1, n_bp // max(1, phases))
    positions = sorted(
        {min(pos, n_bp - 1) for pos in range(interval - 1, n_bp, interval)}
        | {n_bp - 1}
    )

    events: list[CommEvent] = [
        CommEvent(kind=CommKind.BROADCAST, position=0, src=0, nbytes=_BROADCAST_BYTES)
    ]
    exchange = halo_bytes(_max_footprint_bytes(program), ranks)
    for position in positions:
        events.append(
            CommEvent(
                kind=CommKind.ALLREDUCE, position=position, nbytes=_ALLREDUCE_BYTES
            )
        )
        events.extend(ring_exchange(position, ranks, exchange))
    return CommSchedule(n_ranks=ranks, events=tuple(events))


class DistributedWorkload:
    """An SPMD job: R ranks of one Table I application.

    Satisfies ``SupportsProgram`` (delegating to the base application)
    and adds the rank structure the distributed execution path reads.

    Example
    -------
    >>> from repro.workloads.distributed import DistributedWorkload
    >>> job = DistributedWorkload("MCB", ranks=4)
    >>> job.name
    'MCB@4ranks'
    >>> job.comm_schedule(threads=2).n_ranks
    4

    Parameters
    ----------
    app:
        The base workload: a :class:`~repro.workloads.base.ProxyApp`
        instance, a workload class, or a registry name
        (case-insensitive, like everywhere else in the API).
    ranks:
        Number of MPI-style ranks.
    phases:
        Communication phases of the default schedule.
    """

    #: Duck-typing marker the execution context dispatches on.
    distributed = True

    def __init__(
        self, app: ProxyApp | type | str, ranks: int, phases: int = DEFAULT_PHASES
    ) -> None:
        if isinstance(app, str):
            # Imported lazily: repro.api pulls in this module's siblings,
            # so a top-level import would be circular.
            from repro.api.registry import workload_registry

            app = workload_registry.get(app)()
        if isinstance(app, type):
            app = app()
        if ranks < 1:
            raise ValueError(f"ranks must be >= 1, got {ranks}")
        if phases < 1:
            raise ValueError(f"phases must be >= 1, got {phases}")
        self.base = app
        self.ranks = ranks
        self.phases = phases
        #: Distinct from the base name so stage-cache digests and
        #: randomness-tree paths can never collide with the
        #: shared-memory pipelines of the same application.
        self.name = f"{app.name}@{ranks}ranks"
        self.description = (
            f"{app.name} as {ranks} MPI-style rank(s) "
            f"({phases}-phase collective cadence)"
        )
        self._schedules: dict[tuple[int, ISA], CommSchedule] = {}

    def program(self, threads: int, isa: ISA) -> Program:
        """The per-rank program — every rank runs the base app's (SPMD)."""
        return self.base.program(threads, isa)

    def comm_schedule(self, threads: int, isa: ISA = ISA.X86_64) -> CommSchedule:
        """The job's communication schedule (memoised per program)."""
        key = (threads, isa)
        if key not in self._schedules:
            self._schedules[key] = default_comm_schedule(
                self.program(threads, isa), self.ranks, self.phases
            )
        return self._schedules[key]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<DistributedWorkload {self.name!r}>"
