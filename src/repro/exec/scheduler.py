"""The study-graph scheduler.

:class:`StudyScheduler` is the single entry point through which every
table and figure obtains its study cells.  One ``run`` call:

1. deduplicates the requested cells (preserving first-seen order),
2. satisfies what it can from the in-process memo, the on-disk
   :class:`~repro.exec.store.StudyStore` and — under ``--resume`` —
   the crash-safe :class:`~repro.exec.checkpoint.StudyCheckpoint`,
3. fans the remaining misses out over the configured
   :mod:`backend <repro.exec.backends>` under per-cell supervision
   (:mod:`repro.exec.supervise`: bounded retries, timeouts, crashed
   worker respawn, quarantine), one cell of each discovery group
   (:func:`~repro.exec.cells.discovery_group`) at a time, and
4. persists and checkpoints fresh results *as each cell completes*
   before handing the full request → payload mapping back.

Determinism: cell executors draw all randomness from
:class:`~repro.util.rng.RngTree` paths derived from the configuration
seed, never from global state, so the payloads are bit-identical across
backends, worker counts and execution order.  The determinism test suite
(`tests/integration/test_exec_scheduler.py`) asserts exactly that, and
the chaos suite (`tests/integration/test_chaos.py`) extends it across
injected faults: a cell that succeeds on its second attempt must be
byte-identical to one that succeeds on its first — the scheduler
*proves* this for retried cells by comparing the fresh payload against
any surviving store entry before trusting either.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Iterable

from repro.exec.backends import ExecutionBackend, create_backend
from repro.exec.cells import CELL_LEVEL_UNCACHED, discovery_group, execute_request
from repro.exec.checkpoint import StudyCheckpoint
from repro.exec.faults import active_plan, install_plan
from repro.exec.request import StudyRequest
from repro.exec.stagestore import stage_store_for
from repro.exec.store import StudyStore
from repro.exec.supervise import QuarantinedCellError, RetryPolicy

__all__ = ["SchedulerStats", "StudyScheduler"]


@dataclass
class SchedulerStats:
    """Counters describing how a scheduler satisfied its requests.

    Attributes
    ----------
    requested:
        Cells asked for, including duplicates across experiments.
    deduplicated:
        Duplicate requests coalesced away.
    memo_hits / cache_hits:
        Cells served from process memory / the disk store.
    resumed:
        Uncacheable cells reloaded from the study checkpoint
        (``--resume`` after a crash).
    executed:
        Cells actually computed.
    retries / respawns / timeouts / quarantined:
        Supervision events (see :mod:`repro.exec.supervise`): failed
        attempts retried, process pools respawned after a worker died,
        per-cell timeouts observed, and cells abandoned after
        exhausting their retry budget.
    retry_verified:
        Retried cells whose payload was proven byte-identical to a
        surviving cache entry (the cache-consistency proof).
    store_failures:
        Cache writes abandoned on ``OSError`` (e.g. a full disk) —
        the run degrades to uncached rather than failing.
    """

    requested: int = 0
    deduplicated: int = 0
    memo_hits: int = 0
    cache_hits: int = 0
    resumed: int = 0
    executed: int = 0
    retries: int = 0
    respawns: int = 0
    timeouts: int = 0
    quarantined: int = 0
    retry_verified: int = 0
    store_failures: int = 0

    def describe(self) -> str:
        """One-line summary for verbose CLI output."""
        text = (
            f"{self.requested} requested, {self.deduplicated} deduplicated, "
            f"{self.memo_hits} from memory, {self.cache_hits} from disk, "
            f"{self.executed} executed"
        )
        extras = [
            f"{value} {name}"
            for name, value in (
                ("resumed", self.resumed),
                ("retries", self.retries),
                ("respawns", self.respawns),
                ("timeouts", self.timeouts),
                ("quarantined", self.quarantined),
                ("retry-verified", self.retry_verified),
                ("store-failures", self.store_failures),
            )
            if value
        ]
        if extras:
            text += ", " + ", ".join(extras)
        return text


#: Payloads whose array mass exceeds this ride back from worker
#: processes as a file handle (content-addressed store or spill area)
#: instead of pickled bytes over the result pipe.
LARGE_PAYLOAD_BYTES = 64 * 1024

#: Result markers for the reference transport.
_INLINE, _STORED, _SPILLED = "inline", "stored", "spilled"


def _execute_item(item: tuple[StudyRequest, object, int], attempt: int = 1):
    """Picklable worker entry point: one (request, config, parent_pid).

    Consults the fault plane first — an injected fault here either
    SIGKILLs the worker (``processes`` backend; degraded to a raised
    :class:`~repro.exec.faults.InjectedWorkerKill` when the cell runs
    in the driver) or raises, and supervision retries the cell.

    Returns ``((transport, value), pid, stage_stats_delta)``:

    * the stage-cache counter increments this cell produced travel back
      alongside the payload, because under the ``processes`` backend
      they land in a worker-local :func:`stage_store_for` memo the
      parent can't see — the pid lets the scheduler recognise (and skip
      re-merging) deltas produced in its own process;
    * a *large* payload computed in a foreign process does not ride the
      pickle pipe.  Cacheable cells are written to the content-addressed
      :class:`~repro.exec.store.StudyStore` (where the scheduler would
      persist them anyway) and announced as ``("stored", None)``;
      uncacheable kinds spill to a columnar hand-off file announced as
      ``("spilled", path)``.  The scheduler reattaches either via mmap.
      If the store itself fails (a real or injected ``ENOSPC``), the
      payload degrades to the inline pickle transport — slower, never
      wrong.
    """
    from repro.api.codec import payload_nbytes  # lazy: avoids api↔exec cycle

    request, config, parent_pid = item
    in_worker = os.getpid() != parent_pid
    plan = active_plan(config)
    if plan.active:
        # Install so the write sites (store/columnar), which have no
        # config in scope, see the same plan in this process.
        install_plan(plan)
        plan.on_cell(request.describe(), in_worker, attempt)
    stats = stage_store_for(config).stats
    before = stats.snapshot()
    payload = execute_request(request, config)
    result = (_INLINE, payload)
    if in_worker and payload_nbytes(payload) > LARGE_PAYLOAD_BYTES:
        store = StudyStore(config.cache_dir, config)
        if store.enabled:
            try:
                if request.kind in CELL_LEVEL_UNCACHED:
                    result = (_SPILLED, store.spill(request, payload))
                else:
                    store.store(request, payload)
                    result = (_STORED, None)
            except OSError:
                result = (_INLINE, payload)
    return result, os.getpid(), stats.delta_since(before)


def _canonical(payload) -> str:
    """Canonical JSON form of a payload (the byte-identity witness)."""
    from repro.api.codec import payload_to_jsonable

    return json.dumps(payload_to_jsonable(payload), sort_keys=True)


class StudyScheduler:
    """Deduplicating, multi-backend executor of study cells.

    Parameters
    ----------
    config:
        :class:`~repro.experiments.config.ExperimentConfig`; supplies
        the protocol (part of every cache address), the default
        backend/jobs choice and the supervision budget.
    backend:
        Override the backend instance (tests inject doubles here; a
        double without ``map_supervised`` runs unsupervised).
    """

    def __init__(self, config, backend: ExecutionBackend | None = None) -> None:
        self.config = config
        self.backend = backend or create_backend(config.backend, config.jobs)
        self.store = StudyStore(config.cache_dir, config)
        self.checkpoint = StudyCheckpoint(config.cache_dir, config)
        self.stats = SchedulerStats()
        self._memory: dict[StudyRequest, object] = {}
        plan = active_plan(config)
        if plan.active:
            # Driver-side writes (store/journal) must see the plan too.
            install_plan(plan)

    def _policy(self) -> RetryPolicy:
        return RetryPolicy(
            retries=max(0, int(self.config.cell_retries)),
            timeout=max(0.0, float(self.config.cell_timeout)),
            backoff=max(0.0, float(self.config.retry_backoff)),
            seed=self.config.seed,
        )

    # ------------------------------------------------------------ running
    def run(self, requests: Iterable[StudyRequest]) -> dict[StudyRequest, object]:
        """Execute (or fetch) every requested cell.

        Returns a mapping with one entry per *unique* request; duplicate
        requests are deduplicated before any work is scheduled.  Raises
        :class:`~repro.exec.supervise.QuarantinedCellError` — *after*
        finishing and checkpointing every other cell — when any cell
        exhausts its retry budget.
        """
        ordered = list(requests)
        unique: list[StudyRequest] = []
        seen: set[StudyRequest] = set()
        for request in ordered:
            if request not in seen:
                seen.add(request)
                unique.append(request)
        self.stats.requested += len(ordered)
        self.stats.deduplicated += len(ordered) - len(unique)

        resume = bool(self.config.resume) and self.checkpoint.enabled
        missing: list[StudyRequest] = []
        for request in unique:
            if request in self._memory:
                self.stats.memo_hits += 1
                continue
            if request.kind in CELL_LEVEL_UNCACHED:
                payload = None
                if resume and self.checkpoint.completed(self.checkpoint.digest(request)):
                    # A crashed run already finished this uncacheable
                    # cell; reload its parked payload instead of
                    # recomputing the whole stage pipeline.
                    payload = self.checkpoint.load_payload(request)
                    if payload is not None:
                        self.stats.resumed += 1
            else:
                payload = self.store.load(request)
                if payload is not None:
                    self.stats.cache_hits += 1
            if payload is not None:
                self._memory[request] = payload
            else:
                missing.append(request)

        if missing:
            parent_pid = os.getpid()
            items = [(request, self.config, parent_pid) for request in missing]
            parent_stats = stage_store_for(self.config).stats

            def finish(index: int, result, attempts: int) -> None:
                self._finish_cell(
                    missing[index], result, attempts, parent_pid, parent_stats
                )
                self.stats.executed += 1

            supervised = getattr(self.backend, "map_supervised", None)
            if supervised is not None:
                keys = [request.describe() for request in missing]
                groups = [discovery_group(request) for request in missing]
                _, report = supervised(
                    _execute_item, items, keys, self._policy(), finish, groups
                )
                self.stats.retries += report.retries
                self.stats.respawns += report.respawns
                self.stats.timeouts += report.timeouts
                self.stats.quarantined += len(report.quarantined)
                if report.quarantined:
                    raise QuarantinedCellError(report.quarantined)
            else:
                # Test doubles (and any external backend) providing only
                # ``map``: run unsupervised, exactly as before.
                results = self.backend.map(_execute_item, items)
                for index, result in enumerate(results):
                    finish(index, result, 1)

        return {request: self._memory[request] for request in unique}

    def _finish_cell(
        self,
        request: StudyRequest,
        result,
        attempts: int,
        parent_pid: int,
        parent_stats,
    ) -> None:
        """Absorb one completed cell: merge counters, persist, journal."""
        (transport, value), pid, delta = result
        if pid != parent_pid:
            # Cell ran in a worker process: fold its stage-cache
            # traffic into this process's counters so --verbose
            # sees it.  Same-pid cells already incremented them.
            parent_stats.merge(delta)
        if transport == _STORED:
            # Worker persisted the payload content-addressed;
            # reattach via mmap.  A torn entry (killed worker)
            # degrades to recomputing the cell here.
            payload = self.store.load(request)
            if payload is None:  # pragma: no cover - crash path
                payload = execute_request(request, self.config)
        elif transport == _SPILLED:
            payload = self.store.reclaim(value)
        else:
            payload = value
        cacheable = request.kind not in CELL_LEVEL_UNCACHED
        if cacheable and transport != _STORED and self.store.enabled:
            if attempts > 1:
                # The cache-consistency proof: a retried cell must
                # produce the same bytes as any attempt that already
                # reached the store — retrying may repeat work, never
                # change results.
                existing = self.store.load(request)
                if existing is not None:
                    if _canonical(existing) != _canonical(payload):
                        raise RuntimeError(
                            f"retried cell {request.describe()} diverged from "
                            "its cached payload: retry attempts must be "
                            "byte-identical (determinism violation)"
                        )
                    self.stats.retry_verified += 1
            try:
                self.store.store(request, payload)
            except OSError:
                # A full or failing disk degrades caching, not the run.
                self.stats.store_failures += 1
        self._memory[request] = payload
        if self.checkpoint.enabled:
            try:
                self.checkpoint.record(
                    request, payload if not cacheable else None
                )
            except OSError:
                # An unjournaled completion only costs a re-execution
                # on resume; never fail a finished cell over it.
                self.stats.store_failures += 1

    def result(self, request: StudyRequest):
        """Execute (or fetch) a single cell and return its payload."""
        return self.run([request])[request]
