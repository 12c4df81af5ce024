"""Integration tests for the study-graph scheduler.

The load-bearing guarantees: parallel execution is bit-identical to
serial on every backend, duplicate cells are executed once, and the
disk store survives hits, config changes and corruption.
"""

import pytest

from repro.clustering.simpoint import SimPointOptions
from repro.exec.backends import BACKEND_NAMES
from repro.exec.scheduler import StudyScheduler
from repro.exec.supervise import SupervisionReport
from repro.experiments import figure2, table3, table4
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import StudySummary, crossarch_request, decode_summaries

APPS = ("MCB", "graph500")


def _config(**overrides):
    base = dict(
        thread_counts=(1, 2), discovery_runs=2, repetitions=3, cache_dir=""
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def _summaries(config):
    scheduler = StudyScheduler(config)
    requests = [crossarch_request(app, t) for app in APPS for t in (1, 2)]
    results = scheduler.run(requests)
    return {r: StudySummary.from_payload(p) for r, p in results.items()}


class TestDeterminism:
    def test_all_backends_bit_identical(self):
        """Same seed → identical StudySummary on serial/threads/processes."""
        reference = _summaries(_config(backend="serial"))
        for backend in sorted(BACKEND_NAMES):
            got = _summaries(_config(backend=backend, jobs=2))
            assert got == reference, f"backend {backend} diverged"

    @pytest.mark.parametrize("backend", sorted(BACKEND_NAMES))
    def test_figure2_render_identical(self, backend):
        serial = figure2.run(_config(backend="serial"), apps=APPS)
        parallel = figure2.run(_config(backend=backend, jobs=4), apps=APPS)
        assert parallel.render() == serial.render()


class TestDeduplication:
    def test_duplicate_requests_execute_once(self):
        scheduler = StudyScheduler(_config())
        request = crossarch_request("MCB", 2)
        results = scheduler.run([request, request, request])
        assert len(results) == 1
        assert scheduler.stats.requested == 3
        assert scheduler.stats.deduplicated == 2
        assert scheduler.stats.executed == 1

    def test_cells_shared_across_experiments_execute_once(self):
        # Table III, Table IV and Figure 2 all want the 8-thread cells.
        config = _config(thread_counts=(2, 8))
        scheduler = StudyScheduler(config)
        requests = (
            table3.requests(config)
            + table4.requests(config)
            + figure2.requests(config)
        )
        results = scheduler.run(requests)
        unique = set(requests)
        assert scheduler.stats.executed == len(unique)
        assert set(results) == unique

    def test_memo_serves_repeat_runs(self):
        scheduler = StudyScheduler(_config())
        request = crossarch_request("MCB", 1)
        first = scheduler.run([request])[request]
        second = scheduler.run([request])[request]
        assert second is first
        assert scheduler.stats.executed == 1
        assert scheduler.stats.memo_hits == 1


class TestDiskCache:
    def test_fresh_scheduler_hits_disk(self, tmp_path):
        config = _config(cache_dir=str(tmp_path))
        request = crossarch_request("MCB", 2)
        first = StudyScheduler(config).run([request])[request]

        scheduler = StudyScheduler(config)
        second = scheduler.run([request])[request]
        assert scheduler.stats.cache_hits == 1
        assert scheduler.stats.executed == 0
        assert second == first

    def test_config_change_invalidates(self, tmp_path):
        request = crossarch_request("MCB", 2)
        config = _config(cache_dir=str(tmp_path))
        StudyScheduler(config).run([request])

        changed = _config(
            cache_dir=str(tmp_path), simpoint=SimPointOptions(max_k=4)
        )
        scheduler = StudyScheduler(changed)
        scheduler.run([request])
        assert scheduler.stats.cache_hits == 0
        assert scheduler.stats.executed == 1

    def test_corrupt_cache_file_recovers(self, tmp_path):
        config = _config(cache_dir=str(tmp_path))
        request = crossarch_request("MCB", 2)
        first_scheduler = StudyScheduler(config)
        first = first_scheduler.run([request])[request]

        path = first_scheduler.store.path(request)
        assert path.exists()
        path.write_text("truncated {")

        scheduler = StudyScheduler(config)
        recovered = scheduler.run([request])[request]
        assert scheduler.stats.executed == 1
        assert recovered == first  # recomputed, deterministic
        assert scheduler.store.load(request) == first  # rewritten cleanly


class TestCrossarchSummaries:
    def test_sweep_batches_product(self):
        scheduler = StudyScheduler(_config())
        requests = [crossarch_request(app, t) for app in APPS for t in (1, 2)]
        summaries = decode_summaries(scheduler.run(requests))
        assert list(summaries) == [(app, t) for app in APPS for t in (1, 2)]
        assert [(s.app, s.threads) for s in summaries.values()] == list(summaries)
        assert scheduler.stats.executed == 4

    def test_shared_scheduler_shares_memo(self):
        scheduler = StudyScheduler(_config())
        request = crossarch_request("MCB", 1)
        first = decode_summaries(scheduler.run([request]))
        second = decode_summaries(scheduler.run([request]))
        assert second == first
        assert scheduler.stats.executed == 1
        assert scheduler.stats.memo_hits == 1


class TestReferenceTransport:
    """Large payloads of cache-exempt cells computed in worker processes
    ride back as spill files, not pickled bytes; every other payload
    comes back inline and only the scheduler writes cell entries."""

    def _item(self, request, tmp_path, parent_pid):
        return (request, _config(cache_dir=str(tmp_path)), parent_pid)

    def test_large_uncached_payload_spills(self, tmp_path, monkeypatch):
        import numpy as np

        from repro.exec import cells, scheduler as sched

        request = crossarch_request("MCB", 2)
        big = {"big": np.arange(50_000, dtype=np.float64)}
        monkeypatch.setitem(cells.CELL_KINDS, "crossarch", "unused:unused")
        monkeypatch.setattr(cells, "_RESOLVED", {"crossarch": lambda r, c: big})
        monkeypatch.setattr(
            cells, "CELL_LEVEL_UNCACHED", frozenset({"crossarch"})
        )
        monkeypatch.setattr(
            sched, "CELL_LEVEL_UNCACHED", frozenset({"crossarch"})
        )
        # parent_pid -1 simulates "running in a foreign worker process".
        (transport, value), pid, _ = sched._execute_item(
            self._item(request, tmp_path, -1)
        )
        assert transport == "spilled"
        assert value is not None and "spill" in value

        config = _config(cache_dir=str(tmp_path))
        store = sched.StudyStore(config.cache_dir, config)
        reclaimed = store.reclaim(value)
        assert np.array_equal(reclaimed["big"], big["big"])
        import gc
        import os

        # The reclaimed payload is zero-copy views into the spilled
        # container's mapping, so the unlink is *deferred* — reading
        # after reclaim stays valid — and fires once the views die.
        assert os.path.exists(value)
        assert np.array_equal(reclaimed["big"], big["big"])  # read after reclaim
        del reclaimed
        gc.collect()
        assert not os.path.exists(value)

    def test_large_cacheable_payload_is_inline(self, tmp_path, monkeypatch):
        import numpy as np

        from repro.exec import cells, scheduler as sched

        request = crossarch_request("MCB", 2)
        big = {"big": np.arange(50_000, dtype=np.float64)}
        monkeypatch.setattr(cells, "_RESOLVED", {"crossarch": lambda r, c: big})
        (transport, value), pid, _ = sched._execute_item(
            self._item(request, tmp_path, -1)
        )
        assert transport == "inline" and value is big
        assert not [p for p in tmp_path.rglob("*") if p.is_file()]  # worker wrote nothing

    def test_small_or_local_payloads_stay_inline(self, tmp_path, monkeypatch):
        import os

        from repro.exec import cells, scheduler as sched

        request = crossarch_request("MCB", 2)
        small = {"n": 1}
        monkeypatch.setattr(cells, "_RESOLVED", {"crossarch": lambda r, c: small})
        # Foreign pid but tiny payload: inline.
        (transport, value), _, _ = sched._execute_item(
            self._item(request, tmp_path, -1)
        )
        assert transport == "inline" and value == small
        # Large payload but same pid (inlined pool): inline.
        import numpy as np

        big = {"big": np.arange(50_000, dtype=np.float64)}
        monkeypatch.setattr(cells, "_RESOLVED", {"crossarch": lambda r, c: big})
        (transport, value), _, _ = sched._execute_item(
            self._item(request, tmp_path, os.getpid())
        )
        assert transport == "inline"

    def test_scheduler_stores_payloads_once(self, tmp_path, monkeypatch):
        """End-to-end: a backend double running cells as a foreign worker."""
        import numpy as np

        from repro.exec import cells, scheduler as sched

        big = {"big": np.arange(50_000, dtype=np.float64)}
        monkeypatch.setattr(cells, "_RESOLVED", {"crossarch": lambda r, c: big})
        writes = []
        store = sched.StudyStore.store
        monkeypatch.setattr(
            sched.StudyStore,
            "store",
            lambda self, request, payload: writes.append(request)
            or store(self, request, payload),
        )

        class ForeignBackend:
            name, jobs = "double", 1

            def map_supervised(
                self, fn, items, keys, policy, on_complete=None, groups=None
            ):
                # Re-tag each item with a fake parent pid so the worker
                # side runs as in a real process pool.
                results = [fn((req, cfg, -1), 1) for req, cfg, _ in items]
                for index, result in enumerate(results):
                    on_complete(index, result, 1)
                return results, SupervisionReport()

        config = _config(cache_dir=str(tmp_path))
        scheduler = StudyScheduler(config, backend=ForeignBackend())
        request = crossarch_request("MCB", 2)
        results = scheduler.run([request])
        assert np.array_equal(results[request]["big"], big["big"])
        assert writes == [request]
        (entry,) = [p for p in tmp_path.rglob("*") if p.is_file()]
        assert entry == scheduler.store.path(request)
        assert np.array_equal(scheduler.store.load(request)["big"], big["big"])
