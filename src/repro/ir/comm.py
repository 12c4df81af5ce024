"""Inter-rank communication events of a distributed-memory workload.

The paper evaluates shared-memory OpenMP applications; real HPC jobs
run as MPI (or MPI+OpenMP hybrid) programs whose ranks synchronise
through point-to-point messages and collectives.  This module is the IR
for that axis: a :class:`CommSchedule` attaches communication events to
the barrier-point sequence of an SPMD program, one event list shared by
every rank.

Two modelling rules make the barrier-point methodology carry over:

* **Collectives are global barriers.**  An ``ALLREDUCE`` or
  ``BROADCAST`` at barrier-point position ``p`` synchronises *every*
  rank at the end of that barrier point, so all ranks observe the same
  region boundaries — the property barrier-point selection relies on,
  and the property the integration tests assert per rank.
* **Point-to-point sends lower to pairwise synchronisation edges.**  A
  ``SEND`` at position ``p`` couples only its two endpoints; it costs
  network cycles on both but does not introduce a global boundary.

Events are positional: ``position`` indexes the dynamic barrier-point
sequence (the same index space as ``Program.sequence``), which is what
lets the runtime coalesce per-rank traces into one rank-major execution
with aligned barrier points.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = ["CommKind", "CommEvent", "CommSchedule", "ring_exchange"]


class CommKind(enum.Enum):
    """The modelled MPI operation classes."""

    #: Matched point-to-point pair (``MPI_Send``/``MPI_Recv``); couples
    #: exactly two ranks.
    SEND = "send"
    #: Global reduction (``MPI_Allreduce``); synchronises every rank.
    ALLREDUCE = "allreduce"
    #: One-to-all broadcast (``MPI_Bcast``); modelled as a global
    #: barrier (receivers block until the root's payload arrives).
    BROADCAST = "broadcast"

    def __str__(self) -> str:
        return self.value


#: The kinds that synchronise all ranks and hence induce a region
#: boundary shared by the whole job.
_COLLECTIVES = frozenset({CommKind.ALLREDUCE, CommKind.BROADCAST})


@dataclass(frozen=True)
class CommEvent:
    """One communication operation at one barrier-point position.

    Attributes
    ----------
    kind:
        Operation class (:class:`CommKind`).
    position:
        Index into the dynamic barrier-point sequence after which the
        operation executes.
    src / dst:
        Endpoint ranks for ``SEND`` (both >= 0); for collectives ``src``
        is the root rank (``ALLREDUCE`` ignores it) and ``dst`` is -1.
    nbytes:
        Payload size per endpoint, in bytes.
    """

    kind: CommKind
    position: int
    src: int = 0
    dst: int = -1
    nbytes: float = 8.0

    def __post_init__(self) -> None:
        if self.position < 0:
            raise ValueError(f"event position must be >= 0, got {self.position}")
        if self.nbytes < 0:
            raise ValueError(f"event nbytes must be >= 0, got {self.nbytes}")
        if self.kind is CommKind.SEND:
            if self.src < 0 or self.dst < 0:
                raise ValueError(
                    f"SEND needs src and dst ranks >= 0, got {self.src}->{self.dst}"
                )
            if self.src == self.dst:
                raise ValueError(f"SEND endpoints must differ, got rank {self.src}")

    @property
    def is_collective(self) -> bool:
        """Whether this event synchronises every rank (global barrier)."""
        return self.kind in _COLLECTIVES


@dataclass(frozen=True)
class CommSchedule:
    """Communication events of one SPMD job, shared by all ranks.

    Attributes
    ----------
    n_ranks:
        Number of ranks in the job.
    events:
        The communication events, sorted by position on construction.
    """

    n_ranks: int
    events: tuple[CommEvent, ...] = ()

    def __post_init__(self) -> None:
        if self.n_ranks < 1:
            raise ValueError(f"n_ranks must be >= 1, got {self.n_ranks}")
        for event in self.events:
            endpoints = (event.src, event.dst) if event.kind is CommKind.SEND else (
                (event.src,) if event.kind is CommKind.BROADCAST else ()
            )
            for rank in endpoints:
                if not 0 <= rank < self.n_ranks:
                    raise ValueError(
                        f"{event.kind} endpoint rank {rank} outside 0.."
                        f"{self.n_ranks - 1}"
                    )
        object.__setattr__(
            self, "events", tuple(sorted(self.events, key=lambda e: e.position))
        )

    def validate_positions(self, n_barrier_points: int) -> None:
        """Raise if any event points past the barrier-point sequence."""
        for event in self.events:
            if event.position >= n_barrier_points:
                raise ValueError(
                    f"{event.kind} at position {event.position} but the "
                    f"program has only {n_barrier_points} barrier points"
                )

    def collective_positions(self) -> tuple[int, ...]:
        """Barrier-point positions holding a collective, ascending.

        These are the *global* region boundaries: every rank
        synchronises at exactly these positions, so they are identical
        for every rank by construction — the invariant the rank-aware
        barrier-point machinery relies on.
        """
        return tuple(
            sorted({e.position for e in self.events if e.is_collective})
        )

    def rank_boundaries(self, rank: int) -> tuple[int, ...]:
        """Synchronisation positions observed by one rank, ascending.

        Collectives appear for every rank; a ``SEND`` only for its two
        endpoints.  For any two ranks the collective subset is the same
        tuple — the "same region boundaries on every rank" property.
        """
        if not 0 <= rank < self.n_ranks:
            raise ValueError(f"rank {rank} outside 0..{self.n_ranks - 1}")
        positions = set()
        for event in self.events:
            if event.is_collective or rank in (event.src, event.dst):
                positions.add(event.position)
        return tuple(sorted(positions))


def ring_exchange(position: int, n_ranks: int, nbytes: float) -> list[CommEvent]:
    """Halo-exchange SEND pairs around a 1-D ring at one position.

    The canonical nearest-neighbour pattern of domain-decomposed codes:
    rank ``r`` sends its boundary layer to rank ``(r + 1) % n_ranks``.
    With a single rank there is no neighbour and the list is empty.
    """
    if n_ranks < 2:
        return []
    return [
        CommEvent(
            kind=CommKind.SEND,
            position=position,
            src=rank,
            dst=(rank + 1) % n_ranks,
            nbytes=nbytes,
        )
        for rank in range(n_ranks)
    ]
