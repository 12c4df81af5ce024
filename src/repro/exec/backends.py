"""The study scheduler's execution backend: a worker count.

Every cell of the study graph is independent — the paper's methodology
runs one pipeline per (application, thread count, vectorisation) with no
shared mutable state, and all randomness is path-addressed — so fanning
cells out is embarrassingly parallel.  A backend only has to provide an
order-preserving supervised map, ``map_supervised`` (retries, timeouts
and quarantine live in :mod:`repro.exec.supervise`).
:class:`ProcessPoolBackend` is the one implementation: at one worker it
runs every cell in the calling process (and calls itself ``serial``),
at more it runs a :class:`~concurrent.futures.ProcessPoolExecutor`
(``processes``).  Work items and results must be picklable, which the
scheduler guarantees by shipping (request, config) pairs and
JSON-shaped payloads.

Backends transport whatever the mapped function returns; the scheduler
exploits that to carry side-band data across the process boundary —
each result is a ``(payload, pid, stage_stats_delta)`` triple, so a
worker's stage-cache hit/miss counters reach the parent even when the
worker-local :func:`~repro.exec.stagestore.stage_store_for` memo does
not.  Note the cheap cells a pool starts with run inline in the calling
process too — the pid in the result is how the scheduler tells foreign
deltas from already-counted local ones, not the backend name.
"""

from __future__ import annotations

from typing import Callable, Protocol, Sequence

__all__ = ["ExecutionBackend", "ProcessPoolBackend"]


class ExecutionBackend(Protocol):
    """Order-preserving supervised map over independent work items."""

    name: str
    jobs: int

    def map_supervised(
        self,
        fn: Callable,
        items: Sequence,
        keys: Sequence[str],
        policy,
        on_complete: Callable | None = None,
        groups: Sequence | None = None,
    ) -> tuple:  # pragma: no cover
        """``(results in input order, SupervisionReport)`` under ``policy``."""
        ...


class ProcessPoolBackend:
    """Run cells on ``jobs`` worker processes, or inline at one.

    :meth:`map_supervised` runs a grid's leading cheap cells inline and
    submits one future per remaining cell
    (:class:`~repro.exec.supervise.ProcessSupervision`).  Large payloads
    ride a file handle rather than the pipe (see
    :mod:`repro.exec.scheduler`).  ``name`` is ``serial`` at one worker
    and ``processes`` otherwise.
    """

    #: At most this many wall seconds of cheap cells run in the calling
    #: process before the pool takes the rest (see
    #: :class:`~repro.exec.supervise.ProcessSupervision`): a warm
    #: ``repro all --quick`` re-renders its 56 cache-exempt cells inline
    #: in well under a second, where dispatching them cost more CPU than
    #: it saved.  The cap bounds how long a grid of many cheap cells runs
    #: serially.
    INLINE_SECONDS = 2.0

    def __init__(self, jobs: int) -> None:
        self.jobs = max(1, int(jobs))
        self.name = "serial" if self.jobs == 1 else "processes"

    def map_supervised(self, fn, items, keys, policy, on_complete=None, groups=None):
        from repro.exec.supervise import (
            ProcessSupervision,
            run_sequential_supervised,
        )

        if self.jobs == 1:
            # Input order already runs each group's first cell first; a
            # scheduled worker kill degrades to a raised
            # InjectedWorkerKill here, so retries still exercise.
            return run_sequential_supervised(fn, items, keys, policy, on_complete)
        # The scheduler's cell entry point runs safely inline (a
        # scheduled worker kill degrades to a raised exception there).
        return ProcessSupervision(self.jobs, policy, self.INLINE_SECONDS).run(
            fn, items, keys, on_complete, groups
        )
