"""Tests for the supervised map: one worker, the inline start, the group hold.

At one worker every cell runs in the calling process, in input order.
In a pool, cells of one group must never overlap and must run in input
order, while ungrouped cells keep the pool busy; a settled cell
(finished or quarantined) releases the next cell of its group, and a
held cell is never dispatched before its turn, so a pool break does not
touch it.
"""

import os
import signal
import time

import pytest

from repro.exec import supervise
from repro.exec.cells import discovery_group
from repro.exec.request import StudyRequest
from repro.exec.supervise import GroupHold, ProcessSupervision, RetryPolicy

#: Cells 0, 2 and 4 share group "g"; 1 and 3 are ungrouped.
GROUPS = ["g", None, "g", None, "g"]
ITEMS = list(range(len(GROUPS)))
KEYS = [f"cell{i}" for i in ITEMS]
NO_RETRY = RetryPolicy(retries=0, backoff=0.0)


def _timed(index, attempt):
    """Module-level so the process pool can pickle it."""
    started = time.monotonic()
    time.sleep(0.25)
    return index, attempt, started, time.monotonic()


def _first_fails(index, attempt):
    if index == 0:
        raise RuntimeError("leader fails")
    return _timed(index, attempt)


def _leader_kills_its_worker_once(index, attempt):
    if index == 0 and attempt == 1:
        time.sleep(0.2)  # long enough for the supervisor to see it running
        os.kill(os.getpid(), signal.SIGKILL)
    return _timed(index, attempt)


def _pid(index, attempt):
    time.sleep(0.02)
    return os.getpid()


def _slow_third(index, attempt):
    time.sleep(0.2 if index == 2 else 0.0)
    return os.getpid()


def _processes(fn, items, keys, policy, groups):
    return ProcessSupervision(2, policy).run(fn, items, keys, None, groups)


SUPERVISORS = pytest.mark.parametrize("supervise", [_processes], ids=["processes"])


def _overlap(a, b) -> bool:
    return a[2] < b[3] and b[2] < a[3]


class TestGroupHold:
    def test_ready_holds_all_but_each_groups_first(self):
        hold = GroupHold(GROUPS, reversed(ITEMS))
        assert hold.ready == [0, 1, 3]
        assert hold.release(1) == []
        assert hold.release(0) == [2]
        assert hold.release(2) == [4]
        assert hold.release(4) == []

    def test_no_groups_holds_nothing(self):
        assert GroupHold(None, ITEMS).ready == ITEMS


class TestDiscoveryGroup:
    def test_kinds_reading_one_discovery_share_a_group(self):
        def group(kind, threads=8, **params):
            return discovery_group(
                StudyRequest(kind, "HPCG", threads, tuple(params.items()))
            )

        scalar = group("crossarch")
        assert scalar is not None
        assert group("coretypes") == group("figure1") == group("scaling") == scalar
        assert group("scaling", threads=4) != scalar
        ranked = group("ranks", threads=2, ranks=4)
        assert ranked not in (group("ranks", threads=2, ranks=2), group("scaling", threads=2))
        for kind in ("variability", "limitations", "coalesce", "trace"):
            assert group(kind) is None


class TestPooledHold:
    @SUPERVISORS
    def test_group_runs_in_order_while_others_overlap(self, supervise):
        results, report = supervise(_timed, ITEMS, KEYS, NO_RETRY, GROUPS)
        assert [r[0] for r in results] == ITEMS
        assert report.quarantined == []
        group = [results[i] for i in (0, 2, 4)]
        for earlier, later in zip(group, group[1:]):
            assert earlier[3] <= later[2]
        # Two workers: the group's first cell shares the pool with an
        # ungrouped cell instead of idling a worker.
        assert _overlap(results[0], results[1])

    @SUPERVISORS
    def test_quarantined_leader_releases_its_group(self, supervise):
        results, report = supervise(_first_fails, ITEMS, KEYS, NO_RETRY, GROUPS)
        assert [f.key for f in report.quarantined] == ["cell0"]
        assert results[0] is None
        assert [r[0] for r in results[1:]] == ITEMS[1:]
        assert results[2][3] <= results[4][2]

    def test_pool_break_dispatches_held_cells_once(self):
        # The leader's worker dies on its first attempt; the held cells
        # were never submitted to the broken pool, so each runs exactly
        # once (attempt 1) after the leader's retry.
        groups = ["g", "g", "g"]
        policy = RetryPolicy(retries=1, backoff=0.0)
        results, report = _processes(
            _leader_kills_its_worker_once, [0, 1, 2], KEYS[:3], policy, groups
        )
        assert [(r[0], r[1]) for r in results] == [(0, 2), (1, 1), (2, 1)]
        assert report.respawns == 1
        assert report.quarantined == []
        assert results[0][3] <= results[1][2] and results[1][3] <= results[2][2]


class TestSerial:
    """One worker: every cell in the calling process, no pool at all."""

    @pytest.fixture(autouse=True)
    def _no_pool(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a one-worker map started a process pool")

        monkeypatch.setattr(supervise, "ProcessPoolExecutor", refuse)

    @staticmethod
    def _logged(log, fails=None, slow=()):
        """A cell function that logs each call; ``fails[i]`` attempts of
        cell ``i`` raise, and the cells in ``slow`` take 100 ms."""

        def fn(index, attempt):
            log.append((index, attempt, os.getpid()))
            if attempt <= (fails or {}).get(index, 0):
                raise RuntimeError(f"cell {index} fails")
            time.sleep(0.1 if index in slow else 0.0)
            return index

        return fn

    def test_every_cell_runs_here_in_input_order(self):
        # The conftest's INLINE_SECONDS of 0 turns off only a pool's
        # inline start.
        assert ProcessSupervision.INLINE_SECONDS == 0.0
        log, done = [], []
        results, report = ProcessSupervision(1, NO_RETRY).run(
            self._logged(log), ITEMS, KEYS,
            lambda index, result, attempts: done.append(index), GROUPS,
        )
        assert results == ITEMS and done == ITEMS
        assert log == [(i, 1, os.getpid()) for i in ITEMS]
        assert report == supervise.SupervisionReport()

    def test_a_cell_timeout_is_recorded_after_the_fact(self):
        log = []
        policy = RetryPolicy(retries=0, backoff=0.0, timeout=0.05)
        results, report = ProcessSupervision(1, policy).run(
            self._logged(log, slow={1, 3}), ITEMS, KEYS
        )
        assert results == ITEMS
        assert [entry[0] for entry in log] == ITEMS
        assert {entry[2] for entry in log} == {os.getpid()}
        assert report.timeouts == 2 and report.quarantined == []

    def test_a_failing_cell_retries_then_is_quarantined(self):
        log = []
        policy = RetryPolicy(retries=1, backoff=0.0)
        # Cell 1 fails once and recovers; cell 3 fails every attempt.
        results, report = ProcessSupervision(1, policy).run(
            self._logged(log, fails={1: 1, 3: 9}), ITEMS, KEYS
        )
        assert results == [0, 1, 2, None, 4]
        assert [entry[:2] for entry in log] == [
            (0, 1), (1, 1), (1, 2), (2, 1), (3, 1), (3, 2), (4, 1)
        ]
        assert report.retries == 2
        (failure,) = report.quarantined
        assert (failure.key, failure.attempts) == ("cell3", 2)
        assert "cell 3 fails" in failure.error


class TestInlineStart:
    def test_cheap_cells_run_here_until_the_budget_then_in_workers(self, monkeypatch):
        monkeypatch.setattr(ProcessSupervision, "INLINE_SECONDS", 0.05)
        results, report = ProcessSupervision(2, NO_RETRY).run(
            _pid, list(range(8)), [str(i) for i in range(8)]
        )
        here = [pid == os.getpid() for pid in results]
        # Eight 0.02 s cells overrun a 0.05 s budget: an inline prefix,
        # then the pool.
        assert here[0] and not here[-1]
        assert here == sorted(here, reverse=True)
        assert report.quarantined == [] and report.respawns == 0

    def test_a_slow_cell_hands_the_rest_to_the_pool(self, monkeypatch):
        monkeypatch.setattr(ProcessSupervision, "INLINE_SECONDS", 60.0)
        results, _ = ProcessSupervision(2, NO_RETRY).run(_slow_third, ITEMS, KEYS)
        here = [pid == os.getpid() for pid in results]
        assert here == [True, True, True, False, False]

    def test_a_cell_timeout_keeps_every_cell_in_workers(self, monkeypatch):
        monkeypatch.setattr(ProcessSupervision, "INLINE_SECONDS", 60.0)
        policy = RetryPolicy(retries=0, backoff=0.0, timeout=30.0)
        results, _ = ProcessSupervision(2, policy).run(_pid, ITEMS, KEYS)
        assert os.getpid() not in results

    def test_the_backend_runs_a_cheap_grid_inline(self, monkeypatch):
        monkeypatch.setattr(ProcessSupervision, "INLINE_SECONDS", 60.0)
        results, report = ProcessSupervision(2, NO_RETRY).run(
            _pid, ITEMS, KEYS, None, GROUPS
        )
        assert results == [os.getpid()] * len(ITEMS)
        assert report.quarantined == []
