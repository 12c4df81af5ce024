"""Pluggable execution backends for the study scheduler.

Every cell of the study graph is independent — the paper's methodology
runs one pipeline per (application, thread count, vectorisation) with no
shared mutable state, and all randomness is path-addressed — so fanning
cells out is embarrassingly parallel.  A backend only has to provide an
order-preserving supervised map, ``map_supervised`` (retries, timeouts
and quarantine live in :mod:`repro.exec.supervise`):

* ``serial``     — plain loop; the reference the others must match.
* ``threads``    — :class:`~concurrent.futures.ThreadPoolExecutor`;
  useful when the cells release the GIL (numpy-heavy studies do in
  part) and always available.
* ``processes``  — :class:`~concurrent.futures.ProcessPoolExecutor`;
  full CPU scaling.  Work items and results must be picklable, which
  the scheduler guarantees by shipping (request, config) pairs and
  JSON-shaped payloads.

Backends transport whatever the mapped function returns; the scheduler
exploits that to carry side-band data across the process boundary —
each result is a ``(payload, pid, stage_stats_delta)`` triple, so a
worker's stage-cache hit/miss counters reach the parent even when the
worker-local :func:`~repro.exec.stagestore.stage_store_for` memo does
not.  Note a pool with ``jobs == 1`` runs inline in the calling process,
and so do the cheap cells a process pool starts with — the pid in the
result is how the scheduler tells foreign deltas from already-counted
local ones, not the backend name.
"""

from __future__ import annotations

from typing import Callable, Protocol, Sequence

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "ThreadPoolBackend",
    "ProcessPoolBackend",
    "BACKEND_NAMES",
    "create_backend",
]


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


class SerialBackend:
    """Run cells one after another in the calling process."""

    name = "serial"

    def __init__(self, jobs: int = 1) -> None:
        self.jobs = 1

    def map_supervised(self, fn, items, keys, policy, on_complete=None, groups=None):
        # Input order already runs each group's first cell first.
        from repro.exec.supervise import run_sequential_supervised

        return run_sequential_supervised(fn, items, keys, policy, on_complete)


class ThreadPoolBackend:
    """Run cells on a thread pool (shared interpreter, shared memory)."""

    name = "threads"

    def __init__(self, jobs: int) -> None:
        self.jobs = max(1, int(jobs))

    def map_supervised(self, fn, items, keys, policy, on_complete=None, groups=None):
        from repro.exec.supervise import run_threaded_supervised

        return run_threaded_supervised(
            self.jobs, fn, items, keys, policy, on_complete, groups
        )


class ProcessPoolBackend:
    """Run cells on a process pool (true CPU parallelism).

    :meth:`map_supervised` runs a grid's leading cheap cells inline and
    submits one future per remaining cell
    (:class:`~repro.exec.supervise.ProcessSupervision`).  Large payloads
    ride a file handle rather than the pipe (see
    :mod:`repro.exec.scheduler`).
    """

    name = "processes"

    #: At most this many wall seconds of cheap cells run in the calling
    #: process before the pool takes the rest (see
    #: :class:`~repro.exec.supervise.ProcessSupervision`): a warm
    #: ``repro all --quick`` re-renders its 168 cache-exempt cells inline
    #: in 0.3 to 0.5 s, where dispatching them cost more CPU than it
    #: saved.  The cap bounds how long a grid of many cheap cells runs
    #: serially.
    INLINE_SECONDS = 2.0

    def __init__(self, jobs: int) -> None:
        self.jobs = max(1, int(jobs))

    def map_supervised(self, fn, items, keys, policy, on_complete=None, groups=None):
        from repro.exec.supervise import (
            ProcessSupervision,
            run_sequential_supervised,
        )

        if self.jobs == 1:
            # A one-job pool would run inline anyway; supervise inline
            # (a scheduled worker kill degrades to a raised
            # InjectedWorkerKill there, so retries still exercise).
            return run_sequential_supervised(fn, items, keys, policy, on_complete)
        # The scheduler's cell entry point runs safely inline (a
        # scheduled worker kill degrades to a raised exception there).
        return ProcessSupervision(self.jobs, policy, self.INLINE_SECONDS).run(
            fn, items, keys, on_complete, groups
        )


BACKEND_NAMES: dict[str, type] = {
    SerialBackend.name: SerialBackend,
    ThreadPoolBackend.name: ThreadPoolBackend,
    ProcessPoolBackend.name: ProcessPoolBackend,
}


def create_backend(name: str | None, jobs: int = 1) -> ExecutionBackend:
    """Instantiate a backend by name.

    ``name=None`` picks ``processes`` when more than one job is
    requested and ``serial`` otherwise, so ``--jobs 4`` alone already
    parallelises.
    """
    if name is None:
        name = ProcessPoolBackend.name if jobs > 1 else SerialBackend.name
    try:
        backend_cls = BACKEND_NAMES[name]
    except KeyError:
        known = ", ".join(sorted(BACKEND_NAMES))
        raise ValueError(f"unknown backend {name!r} (known: {known})") from None
    return backend_cls(jobs)
