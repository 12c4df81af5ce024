"""Per-cell supervision: bounded retries, timeouts, respawn, quarantine.

The scheduler's fan-out used to assume every cell either returns or
raises; a worker that dies (OOM killer, segfaulting native extension,
an injected SIGKILL from the :mod:`fault plane <repro.exec.faults>`)
took the whole ``ProcessPoolExecutor`` — and the study — down with it.
This module wraps each backend's map with a supervisor that

* retries a failed cell up to :attr:`RetryPolicy.retries` times, with
  exponential backoff and deterministic jitter
  (:func:`repro.exec.faults.backoff_delay` — replayable by seed);
* enforces a per-cell wall-clock timeout.  On the ``processes``
  backend an overrunning cell's workers are killed and the pool is
  respawned; inline execution (serial/threads) cannot be preempted, so
  there the overrun is recorded post-hoc and the result kept;
* detects a crashed worker (``BrokenProcessPool``), respawns the pool,
  and charges the retry budget only to the cells that were *observed
  running* when it broke — innocent queued cells are resubmitted for
  free;
* quarantines a cell that exhausts its budget instead of aborting the
  grid: the rest of the study completes, then the scheduler fails the
  run with a :class:`QuarantinedCellError` diagnostic naming every
  quarantined cell and its last error;
* holds the cells of one *group* (cells that share a discovery, see
  :func:`repro.exec.cells.discovery_group`) back while another cell of
  the group is in flight (:class:`GroupHold`), so the pool computes
  each shared discovery once and the rest of the group loads it;
* runs a grid's leading cheap cells in the calling process before the
  process pool takes the rest (:class:`ProcessSupervision`).

Completion callbacks fire in the *supervisor's* process as each cell
finishes (never from a pool thread), which is what lets the scheduler
journal per-completion checkpoints that survive a driver SIGKILL.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, ThreadPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.exec.faults import backoff_delay

__all__ = [
    "RetryPolicy",
    "CellFailure",
    "SupervisionReport",
    "QuarantinedCellError",
    "GroupHold",
    "run_sequential_supervised",
    "run_threaded_supervised",
    "ProcessSupervision",
]


@dataclass(frozen=True)
class RetryPolicy:
    """Retry/timeout budget applied to every supervised cell.

    ``retries`` bounds *additional* attempts after the first (so a cell
    runs at most ``retries + 1`` times); ``timeout`` is the per-attempt
    wall clock in seconds (0 disables); ``backoff``/``seed`` feed
    :func:`~repro.exec.faults.backoff_delay`.
    """

    retries: int = 2
    timeout: float = 0.0
    backoff: float = 0.05
    seed: int = 0


@dataclass
class CellFailure:
    """One quarantined cell: its key, attempt count and last error."""

    key: str
    attempts: int
    error: str


@dataclass
class SupervisionReport:
    """What the supervisor had to do to finish (or give up on) a map."""

    retries: int = 0
    respawns: int = 0
    timeouts: int = 0
    quarantined: list = field(default_factory=list)


class QuarantinedCellError(RuntimeError):
    """Raised after the grid finishes when any cell exhausted its budget."""

    def __init__(self, failures: Sequence[CellFailure]) -> None:
        self.failures = list(failures)
        lines = "\n".join(
            f"  {f.key}: {f.attempts} attempt(s), last error: {f.error}"
            for f in self.failures
        )
        super().__init__(
            f"{len(self.failures)} cell(s) quarantined after exhausting "
            f"their retry budget:\n{lines}\n"
            "Completed cells were checkpointed; rerun with --resume after "
            "addressing the cause to execute only the quarantined cells."
        )


class GroupHold:
    """Dispatch gate that keeps one cell of each group in flight.

    ``groups[i]`` names cell ``i``'s group (``None``: ungrouped).  Of the
    cells passed in, :attr:`ready` lists, in input order, every
    ungrouped cell and the first of each group; the others are held.
    :meth:`release` hands out a group's next held cell once its cell in
    flight has finished or been quarantined (never on a retry, which
    keeps the group).  A held cell was never dispatched, so it is never
    running, blamed, timed out, retried or shown to the fault plane.
    """

    def __init__(self, groups: Sequence | None, indices: Iterable[int]) -> None:
        self._groups = groups
        self._held: dict[object, deque[int]] = {}
        self.ready: list[int] = []
        for index in sorted(indices):
            group = self._group(index)
            if group in self._held:
                self._held[group].append(index)
                continue
            if group is not None:
                self._held[group] = deque()
            self.ready.append(index)

    def _group(self, index: int):
        return self._groups[index] if self._groups else None

    def release(self, index: int) -> list[int]:
        """The held cell (if any) to dispatch now that ``index`` is settled."""
        held = self._held.get(self._group(index))
        return [held.popleft()] if held else []


def run_sequential_supervised(
    fn: Callable,
    items: Sequence,
    keys: Sequence[str],
    policy: RetryPolicy,
    on_complete: Callable | None = None,
) -> tuple[list, SupervisionReport]:
    """Supervised serial map: retry inline, record post-hoc timeouts."""
    report = SupervisionReport()
    results: list = [None] * len(items)
    for index in range(len(items)):
        _run_inline(fn, items, keys, index, policy, results, report, on_complete)
    return results, report


def _run_inline(fn, items, keys, index, policy, results, report, on_complete) -> None:
    """Run cell ``index`` in this process until it succeeds or exhausts
    its retry budget (then it is quarantined in ``report``)."""
    key = keys[index]
    attempts = 0
    while True:
        attempts += 1
        started = time.monotonic()
        try:
            result = fn(items[index], attempts)
        except Exception as exc:  # supervision boundary: retry or quarantine
            if attempts > policy.retries:
                report.quarantined.append(CellFailure(key, attempts, repr(exc)))
                return
            report.retries += 1
            delay = backoff_delay(policy.seed, key, attempts, policy.backoff)
            if delay:
                time.sleep(delay)
            continue
        if policy.timeout and time.monotonic() - started > policy.timeout:
            # Inline execution cannot be preempted; the overrun is
            # recorded but the (already computed) result is kept.
            report.timeouts += 1
        results[index] = result
        if on_complete is not None:
            on_complete(index, result, attempts)
        return


def run_threaded_supervised(
    jobs: int,
    fn: Callable,
    items: Sequence,
    keys: Sequence[str],
    policy: RetryPolicy,
    on_complete: Callable | None = None,
    groups: Sequence | None = None,
) -> tuple[list, SupervisionReport]:
    """Supervised thread-pool map.

    Each worker thread runs its own retry loop (failures stay on the
    thread that owns the cell); completion callbacks and report merging
    happen on the calling thread, in completion order.  Cells that share
    one of ``groups`` run one after another, in input order
    (:class:`GroupHold`).
    """
    if jobs <= 1 or len(items) <= 1:
        return run_sequential_supervised(fn, items, keys, policy, on_complete)
    report = SupervisionReport()
    results: list = [None] * len(items)

    def attempt_loop(index: int):
        item, key = items[index], keys[index]
        attempts, retries, timeouts = 0, 0, 0
        while True:
            attempts += 1
            started = time.monotonic()
            try:
                result = fn(item, attempts)
            except Exception as exc:  # supervision boundary: retry or quarantine
                if attempts > policy.retries:
                    return None, attempts, repr(exc), retries, timeouts
                retries += 1
                delay = backoff_delay(policy.seed, key, attempts, policy.backoff)
                if delay:
                    time.sleep(delay)
                continue
            if policy.timeout and time.monotonic() - started > policy.timeout:
                timeouts += 1
            return result, attempts, None, retries, timeouts

    hold = GroupHold(groups, range(len(items)))
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        futures = {pool.submit(attempt_loop, i): i for i in hold.ready}
        while futures:
            done, _ = wait(futures, return_when=FIRST_COMPLETED)
            for future in sorted(done, key=futures.__getitem__):
                index = futures.pop(future)
                result, attempts, error, retries, timeouts = future.result()
                report.retries += retries
                report.timeouts += timeouts
                if error is not None:
                    report.quarantined.append(CellFailure(keys[index], attempts, error))
                else:
                    results[index] = result
                    if on_complete is not None:
                        on_complete(index, result, attempts)
                for held in hold.release(index):
                    futures[pool.submit(attempt_loop, held)] = held
    return results, report


class ProcessSupervision:
    """Supervised process-pool map with crash detection and respawn.

    Supervision submits one future per cell: per-cell completion events
    are what enable crash attribution, per-cell timeouts and
    per-completion checkpointing.  Cells of one group wait in a
    :class:`GroupHold` until the group's cell in flight settles; after
    a pool break each fresh pool holds the groups' pending cells again.

    With ``inline_seconds`` (only for an ``fn`` that is safe to run in
    the calling process) the supervisor first runs cells itself, in
    input order, while each takes at most :attr:`CHEAP_CELL_SECONDS`
    and until ``inline_seconds`` of wall time have passed; the pool gets
    only what is left.  A grid of cheap cells (a warm re-render's
    cache-exempt cells take about a millisecond each) then costs no
    pool dispatch at all, and a grid with real work loses one cell's
    worth of overlap.  Not with a per-cell timeout, which only a worker
    can enforce.
    """

    #: How often the supervisor samples future states (running-worker
    #: attribution and timeout enforcement both ride this clock).
    POLL_SECONDS = 0.05

    #: An inline cell slower than this shows the grid has work worth
    #: spreading: the pool takes every cell after it.  Dispatch costs
    #: under a millisecond per cell, so a cell this long amortises it.
    CHEAP_CELL_SECONDS = 0.05

    def __init__(
        self, jobs: int, policy: RetryPolicy, inline_seconds: float = 0.0
    ) -> None:
        self.jobs = max(1, int(jobs))
        self.policy = policy
        self.inline_seconds = inline_seconds

    def run(
        self,
        fn: Callable,
        items: Sequence,
        keys: Sequence[str],
        on_complete: Callable | None = None,
        groups: Sequence | None = None,
    ) -> tuple[list, SupervisionReport]:
        """Map with two per-cell counters kept deliberately distinct:

        * ``submits`` — how often the cell was handed to a worker.  It
          is the ``attempt`` passed to ``fn``, so a resubmitted cell
          *always* advances its fault-plane occurrence index (a killed
          worker forgets nothing that matters), and deliberately also
          advances for innocents resubmitted after a pool break.
        * ``charged`` — failures charged against the retry budget: an
          exception raised by the cell, or a pool break attributed to
          it (observed running / timeout-killed).  Cells queued behind
          a crash are *not* charged — they resubmit for free.

        Quarantine triggers on ``charged``, never on ``submits``.
        """
        report = SupervisionReport()
        results: list = [None] * len(items)
        submits = [0] * len(items)
        charged = [0] * len(items)
        pending = set(range(len(items)))
        pool = None
        if self.inline_seconds and not self.policy.timeout and len(items) > 1:
            # Start the workers before the inline cells grow this
            # process: a fork-started worker would copy on write every
            # page of the heap it inherits.
            pool = ProcessPoolExecutor(max_workers=min(self.jobs, len(items)))
            pool.submit(int)
            until = time.monotonic() + self.inline_seconds
            for index in range(len(items)):
                started = time.monotonic()
                if started >= until:
                    break
                _run_inline(
                    fn, items, keys, index, self.policy, results, report, on_complete
                )
                pending.discard(index)
                if time.monotonic() - started > self.CHEAP_CELL_SECONDS:
                    break
            if not pending:
                pool.shutdown(wait=False)
        # Backstop: a pool that keeps breaking beyond every cell's
        # combined retry budget is burning, not converging.
        max_respawns = len(items) * (self.policy.retries + 1) + 1
        while pending:
            blamed = self._drain_one_pool(
                fn, items, keys, results, submits, charged, pending,
                report, on_complete, GroupHold(groups, pending), pool,
            )
            pool = None
            if pending:
                # The pool broke (worker SIGKILL or timeout kill).
                report.respawns += 1
                if report.respawns > max_respawns:
                    for index in sorted(pending):
                        report.quarantined.append(
                            CellFailure(
                                keys[index],
                                submits[index],
                                "process pool kept breaking (respawn budget "
                                f"of {max_respawns} exhausted)",
                            )
                        )
                    pending.clear()
                    break
                for index in sorted(blamed & pending):
                    charged[index] += 1
                    if charged[index] > self.policy.retries:
                        report.quarantined.append(
                            CellFailure(
                                keys[index],
                                submits[index],
                                "worker killed, crashed, or timed out while "
                                "executing this cell",
                            )
                        )
                        pending.discard(index)
                    else:
                        report.retries += 1
        return results, report

    def _drain_one_pool(
        self,
        fn: Callable,
        items: Sequence,
        keys: Sequence[str],
        results: list,
        submits: list,
        charged: list,
        pending: set,
        report: SupervisionReport,
        on_complete: Callable | None,
        hold: GroupHold,
        pool: ProcessPoolExecutor | None = None,
    ) -> set:
        """Run one pool (``pool``, else a new one) until everything
        pending finishes or it breaks.

        Returns the set of indices to *blame* for a break (observed
        running, or deliberately timeout-killed); an empty set with
        ``pending`` drained means the pool completed cleanly.
        """
        seen_running: dict[int, float] = {}
        timed_out: set[int] = set()
        futures: dict = {}
        retry_at: dict[int, float] = {}
        if pool is None:
            pool = ProcessPoolExecutor(max_workers=min(self.jobs, max(1, len(pending))))

        def submit(index: int) -> None:
            future = pool.submit(fn, items[index], submits[index] + 1)
            submits[index] += 1
            futures[future] = index

        try:
            for index in hold.ready:
                submit(index)
            while futures or retry_at:
                now = time.monotonic()
                for index, ready in sorted(retry_at.items()):
                    if ready <= now:
                        del retry_at[index]
                        submit(index)
                if not futures:
                    if retry_at:
                        time.sleep(max(0.0, min(retry_at.values()) - now))
                    continue
                done, _ = wait(
                    futures, timeout=self.POLL_SECONDS,
                    return_when=FIRST_COMPLETED,
                )
                now = time.monotonic()
                for future, index in futures.items():
                    if future not in done and future.running():
                        seen_running.setdefault(index, now)
                if self.policy.timeout:
                    for future, index in futures.items():
                        if future in done or index not in seen_running:
                            continue
                        if now - seen_running[index] > self.policy.timeout:
                            timed_out.add(index)
                    if timed_out:
                        # The only way to preempt a running cell is to
                        # kill its worker; that breaks the pool, so the
                        # caller respawns and resubmits the innocents.
                        report.timeouts += len(timed_out & pending)
                        self._kill_workers(pool)
                        return timed_out
                for future in done:
                    index = futures.pop(future)
                    try:
                        result = future.result()
                    except BrokenProcessPool:
                        blamed = {
                            i for f, i in futures.items()
                            if i in seen_running and not f.done()
                        }
                        blamed |= {index} if index in seen_running else set()
                        return blamed
                    except Exception as exc:  # cell failed inside a live worker
                        charged[index] += 1
                        if charged[index] > self.policy.retries:
                            report.quarantined.append(
                                CellFailure(keys[index], submits[index], repr(exc))
                            )
                            pending.discard(index)
                            for held in hold.release(index):
                                submit(held)
                        else:
                            report.retries += 1
                            retry_at[index] = now + backoff_delay(
                                self.policy.seed, keys[index],
                                charged[index], self.policy.backoff,
                            )
                        continue
                    results[index] = result
                    pending.discard(index)
                    seen_running.pop(index, None)
                    if on_complete is not None:
                        on_complete(index, result, submits[index])
                    for held in hold.release(index):
                        submit(held)
            return set()
        except BrokenProcessPool:
            # Raised at submit time when the pool died between drains.
            return {i for i in seen_running if i in pending}
        finally:
            pool.shutdown(wait=False, cancel_futures=True)

    @staticmethod
    def _kill_workers(pool: ProcessPoolExecutor) -> None:
        """Forcibly kill every pool worker (private API, best effort).

        ``ProcessPoolExecutor`` has no public preemption; killing the
        workers marks the pool broken, which the supervisor treats
        exactly like a crashed worker — respawn and resubmit.
        """
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.kill()
            except (OSError, AttributeError):
                pass
