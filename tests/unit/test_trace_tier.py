"""Unit tests: the streamed trace tier and its satellites.

Covers the whole-file container read that `StudyStore.reclaim` rides,
the tile-size-invariant stream generator, the streamed signature
collector and every trace cell against the monolithic oracles, the
per-stage RSS-rise counter family, and the perf gate's missing-metric
tolerance.
"""

import gc
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.exec.stagestore import StageCacheStats, maxrss_kib
from repro.experiments import trace as trace_exp
from repro.experiments.config import default_config
from repro.experiments.trace import (
    _block_tiles,
    _trace_blocks,
    trace_cell,
    trace_request,
)
from repro.ir.memory import MemoryPattern, PatternKind
from repro.mem.cache import CacheSimulator
from repro.mem.ldv import N_DISTANCE_BINS
from repro.mem.reuse import reuse_distances, reuse_histogram
from repro.mem.streams import iter_stream_tiles
from repro.workloads.registry import EVALUATED_APPS

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

import check_regression  # noqa: E402


def _pattern(kind=PatternKind.STREAM, hot_fraction=0.5):
    return MemoryPattern(
        kind, footprint_bytes=2**18, hot_bytes=4 * 1024, hot_fraction=hot_fraction
    )


DIGEST = "aa" + "0" * 62
LINES = np.arange(100, dtype=np.int64)


def _store_with_entry(tmp_path):
    from repro.exec.store import STAGES, ArtifactStore

    store = ArtifactStore(tmp_path)
    store.write(STAGES, "lines", DIGEST, {"lines": LINES})
    return store, STAGES


class TestWholeRead:
    def test_payload_outlives_its_unlinked_file(self, tmp_path):
        """A read holds the whole container in memory: deleting the
        entry leaves the payload equal and read-only."""
        store, ns = _store_with_entry(tmp_path)
        payload, _ = store.read(ns, "lines", DIGEST)
        store.path(ns, "lines", DIGEST).unlink()
        gc.collect()
        assert np.array_equal(payload["lines"], LINES)
        assert not payload["lines"].flags.writeable

    def test_unlinked_entry_misses_on_the_next_read(self, tmp_path):
        """No open payload pins the file: the unlink is immediate and
        the next read of that entry misses."""
        store, ns = _store_with_entry(tmp_path)
        payload, _ = store.read(ns, "lines", DIGEST)
        path = store.path(ns, "lines", DIGEST)
        path.unlink()
        assert not path.exists()
        assert store.read(ns, "lines", DIGEST) is None
        assert payload["lines"][0] == 0

    def test_store_reclaim_deletes_the_spill_file_at_once(self, tmp_path):
        from repro.exec.request import StudyRequest
        from repro.exec.store import StudyStore
        from repro.experiments.config import ExperimentConfig

        config = ExperimentConfig(cache_dir=str(tmp_path))
        store = StudyStore(config.cache_dir, config)
        request = StudyRequest(kind="scaling", app="LULESH", threads=2)
        spilled = store.spill(request, {"x": np.arange(8.0)})
        payload = store.reclaim(spilled)
        assert not Path(spilled).exists()
        gc.collect()
        assert np.array_equal(payload["x"], np.arange(8.0))  # read after reclaim


class TestStreamTileGenerator:
    @pytest.mark.parametrize("kind", list(PatternKind))
    def test_tile_size_invariance(self, kind):
        pattern = _pattern(kind)
        want = np.concatenate(list(iter_stream_tiles(pattern, 5000, 11, 5000)))
        for tile_size in (1, 7, 4096, 1 << 20):
            got = np.concatenate(
                list(iter_stream_tiles(pattern, 5000, 11, tile_size))
            )
            assert np.array_equal(got, want), (kind, tile_size)

    def test_tile_lengths(self):
        tiles = list(iter_stream_tiles(_pattern(), 1000, 3, 256))
        assert [t.size for t in tiles] == [256, 256, 256, 232]

    def test_zero_accesses(self):
        assert list(iter_stream_tiles(_pattern(), 0, 3, 64)) == []


class TestStreamedCollector:
    def test_matches_monolithic_oracles(self):
        from repro.instrumentation.streamed import StreamedSignatureCollector

        pattern = _pattern(PatternKind.RANDOM)
        tiles = list(iter_stream_tiles(pattern, 6000, 5, 1024))
        stream = np.concatenate(tiles)

        collector = StreamedSignatureCollector(n_blocks=2)
        for tile in tiles:
            collector.feed(0, tile, instructions_per_access=2.5)
        result = collector.result()

        assert result["n_accesses"] == 6000
        assert result["bbv"][0] == round(6000 * 2.5)
        want_ldv = reuse_histogram(reuse_distances(stream), N_DISTANCE_BINS)
        assert np.array_equal(result["ldv"], want_ldv)
        l1 = CacheSimulator(32 * 1024, 8)
        l1_mask = l1.miss_mask(stream)
        assert result["levels"]["L1D"]["misses"] == int(l1_mask.sum())
        l2 = CacheSimulator(256 * 1024, 8)
        assert result["levels"]["L2"]["misses"] == int(
            l2.miss_mask(stream[l1_mask]).sum()
        )

    def test_bbv_rounding_is_tile_split_independent(self):
        """Rounding happens once in result(): 2.5 instr/access over 6
        accesses is 15, never the 16 a per-tile rounding would give."""
        from repro.instrumentation.streamed import StreamedSignatureCollector

        split = StreamedSignatureCollector(n_blocks=1)
        split.feed(0, np.array([1, 2, 3]), instructions_per_access=2.5)
        split.feed(0, np.array([4, 5, 6]), instructions_per_access=2.5)
        whole = StreamedSignatureCollector(n_blocks=1)
        whole.feed(0, np.array([1, 2, 3, 4, 5, 6]), instructions_per_access=2.5)
        assert split.result()["bbv"][0] == whole.result()["bbv"][0] == 15


#: The default cache hierarchy every cell without a machine streams
#: through: (name, size in bytes, associativity).
DEFAULT_LEVELS = (("L1D", 32 * 1024, 8), ("L2", 256 * 1024, 8))


def _assert_matches_oracles(request, config, payload, levels=DEFAULT_LEVELS):
    """Replay a cell's whole stream through the monolithic kernels."""
    blocks = _trace_blocks(request.app, request.threads)
    tiles = list(_block_tiles(request, blocks, config.seed, 1 << 30))
    stream = np.concatenate([tile for _, _, tile in tiles])
    assert payload["n_accesses"] == stream.size == request.param("accesses")
    assert payload["distinct_lines"] == np.unique(stream).size
    want_bbv = np.zeros(len(blocks), dtype=np.int64)
    for index, ipa, tile in tiles:
        want_bbv[index] = round(tile.size * ipa)
    assert payload["bbv"] == want_bbv.tolist()
    ldv = reuse_histogram(reuse_distances(stream), N_DISTANCE_BINS)
    assert np.array_equal(payload["ldv"], ldv), request.app
    substream = stream
    for name, size, associativity in levels:
        oracle = CacheSimulator(size, associativity).miss_mask(substream)
        got = payload["levels"][name]
        assert got["accesses"] == substream.size, (request.app, name)
        assert got["misses"] == int(oracle.sum()), (request.app, name)
        substream = substream[oracle]


#: A short stream in small tiles: 69 tiles for the 53 blocks of the
#: seven apps, so several blocks cross a tile boundary (at the default
#: ``TILE_ACCESSES`` every block's quick stream fits in one tile).
ORACLE_ACCESSES = 20_000
ORACLE_TILE = 4_096


class TestTraceCell:
    @pytest.fixture(autouse=True)
    def _oracle_tiles(self, monkeypatch):
        monkeypatch.setattr(trace_exp, "TILE_ACCESSES", ORACLE_TILE)

    @staticmethod
    def _config(tmp_path, **overrides):
        return replace(
            default_config("quick"),
            cache_dir=str(tmp_path),
            trace_accesses=ORACLE_ACCESSES,
            **overrides,
        )

    @pytest.mark.parametrize("app", EVALUATED_APPS)
    def test_streamed_signatures_match_the_oracles(self, app, tmp_path):
        config = self._config(tmp_path)
        request = trace_request(app, ORACLE_ACCESSES)
        _assert_matches_oracles(request, config, trace_cell(request, config))

    def test_ingested_machine_cell_matches_the_oracles(
        self, tmp_path, scratch_registry
    ):
        """An ingested machine's own L1D/L2 geometry (the armcortex host:
        32 KiB 4-way, 1 MiB 16-way) is what the cell streams through;
        graph500's misses differ from the default hierarchy's at both
        levels."""
        from repro.api.registry import machine_registry
        from repro.hw.ingest import (
            HostDescriptor,
            lower_descriptor,
            machine_to_spec,
            save_machine_spec,
        )

        hosts = Path(__file__).resolve().parents[1] / "data" / "hosts"
        lowered = lower_descriptor(
            HostDescriptor.from_tree(hosts / "armcortex"), name="grid-arm"
        )
        spec = tmp_path / "grid-arm.json"
        save_machine_spec(machine_to_spec(lowered.machine), spec)
        config = self._config(
            tmp_path, machine_specs=(str(spec),), machines=("grid-arm",)
        )
        request = trace_request("graph500", ORACLE_ACCESSES, "grid-arm")
        payload = trace_cell(request, config)
        machine = machine_registry.get("grid-arm")
        levels = (
            ("L1D", machine.l1d.size_bytes, machine.l1d.associativity),
            ("L2", machine.l2.size_bytes, machine.l2.associativity),
        )
        assert payload["machine"] == "grid-arm"
        _assert_matches_oracles(request, config, payload, levels)
        default = trace_cell(trace_request("graph500", ORACLE_ACCESSES), config)
        for name in ("L1D", "L2"):
            assert payload["levels"][name] != default["levels"][name], name

    def test_payload_is_tile_size_invariant(self, tmp_path, monkeypatch):
        """The tile size bounds memory and nothing else, so a cached cell
        must not depend on the tile count that filled it."""
        config = self._config(tmp_path)
        requests = [trace_request(app, ORACLE_ACCESSES) for app in EVALUATED_APPS]
        small = [trace_cell(request, config) for request in requests]
        monkeypatch.setattr(trace_exp, "TILE_ACCESSES", 1 << 20)
        for request, payload in zip(requests, small):
            assert trace_cell(request, config) == payload, request.app

    def test_cell_records_run_time_and_rss_for_the_profile(self, tmp_path, monkeypatch):
        from repro.exec import stagestore

        marks = iter([1_000, 1_500])  # the cell's start, then its end
        monkeypatch.setattr(stagestore, "maxrss_kib", lambda: next(marks))
        config = replace(
            default_config("quick"), cache_dir=str(tmp_path), trace_accesses=2000
        )
        trace_cell(trace_request("MCB", 2000), config)
        stats = stagestore.stage_store_for(config).stats
        assert stats.run_seconds["trace"] > 0
        assert stats.rss_rise_kib["trace"] == 500


class TestRssCounters:
    def test_record_run_keeps_how_far_a_stage_raised_the_peak(self, monkeypatch):
        from repro.exec import stagestore

        # The mark after "big" (64 MiB above its start), then after
        # "small", which ran below that peak.
        marks = iter([150_000, 150_000])
        monkeypatch.setattr(stagestore, "maxrss_kib", lambda: next(marks))
        stats = StageCacheStats()
        stats.record_run("big", 0.1, 150_000 - (64 << 10))
        stats.record_run("small", 0.1, 150_000)

        assert stats.rss_rise_kib == {"big": 64 << 10}
        cells = [
            [cell.strip() for cell in line.split("|")]
            for line in stats.profile_table().splitlines()
        ]
        rise = {row[0]: row[-1] for row in cells}
        # The stage that ran below the peak shows no rise, not the
        # process's whole high-water mark.
        assert (rise["big"], rise["small"], rise["total"]) == ("64 MiB", "-", "64 MiB")

    def test_a_process_started_from_a_larger_one_records_its_own_rise(self):
        # The child starts from this (larger) test process, whose peak
        # ru_maxrss would carry across exec and hide the allocation.
        script = (
            "from repro.exec.stagestore import StageCacheStats, maxrss_kib\n"
            "stats = StageCacheStats()\n"
            "before = maxrss_kib()\n"
            "blob = b'x' * (64 << 20)\n"
            "stats.record_run('alloc', 0.0, before)\n"
            "print(stats.rss_rise_kib['alloc'])\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        assert int(done.stdout) >= 48 << 10

    def test_a_fall_is_no_rise(self):
        stats = StageCacheStats()
        stats.record_run("profile", 0.1, maxrss_kib() + 1_000)
        assert "profile" not in stats.rss_rise_kib

    def test_delta_and_merge_use_max_semantics(self):
        stats = StageCacheStats()
        snap = stats.snapshot()
        stats.rss_rise_kib["trace"] = 1000
        delta = stats.delta_since(snap)
        assert delta["rss_rise_kib"] == {"trace": 1000}

        higher = StageCacheStats()
        higher.rss_rise_kib["trace"] = 2000
        higher.merge(delta)
        assert higher.rss_rise_kib["trace"] == 2000  # max, not 3000

        lower = StageCacheStats()
        lower.rss_rise_kib["trace"] = 500
        lower.merge(delta)
        assert lower.rss_rise_kib["trace"] == 1000

    def test_profile_table_has_rss_column(self):
        stats = StageCacheStats()
        stats.record_run("cluster", 0.5, 0)
        table = stats.profile_table()
        assert "RSS rise" in table
        assert "MiB" in table or "KiB" in table or "GiB" in table


class TestPerfGateTolerance:
    BASE = {
        "meta": {"calibration_score": 100.0},
        "grid": {"cold_seconds": 1.0, "warm_seconds": 0.1},
        "kernels": {"reuse_distances": {"accesses_per_second": 1000}},
    }

    def test_candidate_only_metric_warns_and_passes(self):
        candidate = {
            "meta": {"calibration_score": 100.0},
            "grid": {"cold_seconds": 1.0, "warm_seconds": 0.1},
            "kernels": {
                "reuse_distances": {"accesses_per_second": 1000},
                "reuse_streamed": {"accesses_per_second": 9999},
            },
        }
        failures, warnings = check_regression.check(self.BASE, candidate, 0.25)
        assert failures == []
        assert any("reuse_streamed" in w and "baseline" in w for w in warnings)

    def test_regression_still_fails(self):
        candidate = {
            "meta": {"calibration_score": 100.0},
            "grid": {"cold_seconds": 2.0, "warm_seconds": 0.1},
            "kernels": {"reuse_distances": {"accesses_per_second": 1000}},
        }
        failures, _ = check_regression.check(self.BASE, candidate, 0.25)
        assert any("grid.cold_seconds" in f for f in failures)
