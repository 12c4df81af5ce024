"""Unit tests: the streamed trace tier and its satellites.

Covers the `.rpt` tiled container (writer/reader round trip, torn-file
self-healing, the open-handle deferred-unlink guard that
`StudyStore.reclaim` rides), the tile-size-invariant stream generator,
the streamed signature collector against the monolithic oracles, the
mini-batch clustering path, the per-stage peak-RSS counter family, and
the perf gate's missing-metric tolerance.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.clustering.kmeans import kmeans
from repro.clustering.minibatch import minibatch_kmeans
from repro.clustering.simpoint import SimPointOptions, run_simpoint
from repro.exec.columnar import (
    TILE_MAGIC,
    TraceTileReader,
    TraceTileWriter,
    open_reader_count,
    unlink_when_closed,
)
from repro.exec.stagestore import StageCacheStats
from repro.ir.memory import MemoryPattern, PatternKind
from repro.mem.streams import iter_stream_tiles

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

import check_regression  # noqa: E402


def _pattern(kind=PatternKind.STREAM, hot_fraction=0.5):
    return MemoryPattern(
        kind, footprint_bytes=2**18, hot_bytes=4 * 1024, hot_fraction=hot_fraction
    )


def _write_container(path, n_tiles=4, tile_len=100):
    with TraceTileWriter(path, meta={"app": "unit", "accesses": n_tiles * tile_len}) as w:
        for i in range(n_tiles):
            w.append(
                {
                    "lines": np.arange(tile_len, dtype=np.int64) + i,
                    "miss_count": np.array([i], dtype=np.int64),
                }
            )
    return path


class TestTraceTileContainer:
    def test_round_trip(self, tmp_path):
        path = _write_container(tmp_path / "t.rpt")
        assert path.read_bytes()[:4] == TILE_MAGIC
        with TraceTileReader(path) as reader:
            assert reader.n_tiles == len(reader) == 4
            assert reader.meta["app"] == "unit"
            for i, tile in enumerate(reader):
                assert np.array_equal(
                    tile["lines"], np.arange(100, dtype=np.int64) + i
                )
                assert tile["miss_count"][0] == i

    def test_tiles_are_zero_copy_views(self, tmp_path):
        path = _write_container(tmp_path / "t.rpt")
        with TraceTileReader(path) as reader:
            tile = reader.tile(0)
            assert not tile["lines"].flags.writeable
            assert not tile["lines"].flags.owndata

    def test_column_concatenates_across_tiles(self, tmp_path):
        path = _write_container(tmp_path / "t.rpt", n_tiles=3, tile_len=10)
        with TraceTileReader(path) as reader:
            counts = np.concatenate(list(reader.column("miss_count")))
        assert np.array_equal(counts, np.array([0, 1, 2]))

    def test_torn_container_self_heals_as_missing(self, tmp_path):
        path = _write_container(tmp_path / "t.rpt")
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 9])  # tear the trailer
        with pytest.raises(FileNotFoundError):
            TraceTileReader(path)
        assert not path.exists()  # corrupt file was removed

    def test_abort_leaves_nothing_behind(self, tmp_path):
        path = tmp_path / "t.rpt"
        writer = TraceTileWriter(path, meta={})
        writer.append({"lines": np.arange(5)})
        writer.abort()
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []


class TestOpenHandleGuard:
    def test_unlink_defers_until_last_close(self, tmp_path):
        """The PR's reclaim regression: deleting a container an mmap'd
        reader still holds open must wait for that reader's close()."""
        path = _write_container(tmp_path / "t.rpt")
        reader = TraceTileReader(path)
        second = TraceTileReader(path)
        assert open_reader_count(path) == 2
        unlink_when_closed(path)
        assert path.exists()  # still mapped: deletion deferred
        second.close()
        assert path.exists()  # one reader left
        tile = reader.tile(0)  # the mapping stays valid throughout
        assert tile["lines"][0] == 0
        reader.close()
        assert not path.exists()  # last close performs the unlink
        assert open_reader_count(path) == 0

    def test_unlink_immediate_without_readers(self, tmp_path):
        path = _write_container(tmp_path / "t.rpt")
        unlink_when_closed(path)
        assert not path.exists()

    def test_store_reclaim_uses_the_guard(self, tmp_path):
        from repro.exec.request import StudyRequest
        from repro.exec.store import StudyStore
        from repro.experiments.config import ExperimentConfig

        config = ExperimentConfig(cache_dir=str(tmp_path))
        store = StudyStore(config.cache_dir, config)
        request = StudyRequest(kind="scaling", app="LULESH", threads=2)
        spilled = store.spill(request, {"x": np.arange(8.0)})
        payload = store.reclaim(spilled)
        # Regression (PR 7): the reclaimed arrays are np.frombuffer
        # views into the container's mapping, and the ``.rpb`` read
        # registered that mapping as an open reader — so reclaim defers
        # the unlink and reading *after* reclaim is safe everywhere,
        # not just on POSIX unlink-while-open semantics.
        assert Path(spilled).exists()
        assert open_reader_count(spilled) == 1
        assert np.array_equal(payload["x"], np.arange(8.0))
        del payload
        import gc

        gc.collect()
        assert open_reader_count(spilled) == 0
        assert not Path(spilled).exists()  # last view gone: deleted


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
        from repro.mem.cache import CacheSimulator
        from repro.mem.ldv import N_DISTANCE_BINS
        from repro.mem.reuse import reuse_distances, reuse_histogram

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


class TestTraceCell:
    def test_quick_cell_checks_oracles_and_writes_container(self, tmp_path):
        from dataclasses import replace

        from repro.experiments.config import default_config
        from repro.experiments.trace import trace_cell, trace_request

        config = replace(
            default_config("quick"),
            cache_dir=str(tmp_path),
            trace_accesses=3000,
        )
        request = trace_request("LULESH", 3000)
        payload = trace_cell(request, config)
        assert payload["oracle_checked"] is True
        assert payload["n_accesses"] == 3000
        containers = list((tmp_path / "traces").glob("*.rpt"))
        assert len(containers) == 1
        with TraceTileReader(containers[0]) as reader:
            assert reader.meta["app"] == "LULESH"
            total = sum(int(t["lines"].size) for t in reader)
        assert total == 3000

    def test_cell_records_run_time_and_rss_for_the_profile(self, tmp_path):
        from dataclasses import replace

        from repro.exec.stagestore import stage_store_for
        from repro.experiments.config import default_config
        from repro.experiments.trace import trace_cell, trace_request

        config = replace(
            default_config("quick"), cache_dir=str(tmp_path), trace_accesses=2000
        )
        trace_cell(trace_request("MCB", 2000), config)
        stats = stage_store_for(config).stats
        assert stats.run_seconds["trace"] > 0
        assert stats.rss_peak_kib["trace"] > 0


class TestMiniBatchKMeans:
    @staticmethod
    def _blobs(n=6000, seed=42):
        rng = np.random.default_rng(seed)
        centers = rng.normal(size=(3, 8)) * 6
        return np.concatenate(
            [centers[i] + rng.normal(size=(n // 3, 8)) for i in range(3)]
        )

    def test_deterministic_from_seed(self):
        data = self._blobs()
        a = minibatch_kmeans(data, 3, np.random.default_rng(7), batch_size=512)
        b = minibatch_kmeans(data, 3, np.random.default_rng(7), batch_size=512)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.centers, b.centers)
        assert a.inertia == b.inertia

    def test_inertia_close_to_exact_oracle(self):
        data = self._blobs()
        mb = minibatch_kmeans(data, 3, np.random.default_rng(7), batch_size=512)
        exact = kmeans(data, 3, np.random.default_rng(7))
        assert mb.inertia <= 1.10 * exact.inertia

    def test_small_inputs_fall_back_to_exact(self):
        data = self._blobs(n=300)
        mb = minibatch_kmeans(data, 3, np.random.default_rng(9), n_init=2)
        exact = kmeans(data, 3, np.random.default_rng(9), n_init=2)
        assert np.array_equal(mb.labels, exact.labels)
        assert mb.inertia == exact.inertia

    def test_simpoint_dispatch_and_options_validation(self):
        rng = np.random.default_rng(0)
        sig = rng.random((6000, 24))
        weights = rng.random(6000) + 0.1
        opts = SimPointOptions(algorithm="minibatch", max_k=3, batch_size=512)
        a = run_simpoint(sig, weights, np.random.default_rng(3), opts)
        b = run_simpoint(sig, weights, np.random.default_rng(3), opts)
        assert a.k == b.k
        assert np.array_equal(a.result.labels, b.result.labels)
        with pytest.raises(ValueError, match="algorithm"):
            SimPointOptions(algorithm="approximate")
        with pytest.raises(ValueError, match="batch_size"):
            SimPointOptions(batch_size=0)

    def test_minibatch_stage_registered(self):
        from repro.api.registry import stage_registry
        from repro.api.stages import MiniBatchClusterStage

        stage = stage_registry.get("cluster-minibatch")()
        assert isinstance(stage, MiniBatchClusterStage)
        assert stage.overrides["algorithm"] == "minibatch"

    def test_full_scale_uses_minibatch_quick_stays_exact(self):
        from repro.experiments.config import default_config

        assert default_config("full").simpoint.algorithm == "minibatch"
        assert default_config("quick").simpoint.algorithm == "exact"


class TestRssCounters:
    def test_record_run_captures_a_peak(self):
        stats = StageCacheStats()
        stats.record_run("profile", 0.1)
        assert stats.rss_peak_kib["profile"] > 0

    def test_delta_and_merge_use_max_semantics(self):
        stats = StageCacheStats()
        snap = stats.snapshot()
        stats.rss_peak_kib["trace"] = 1000
        delta = stats.delta_since(snap)
        assert delta["rss_peak_kib"] == {"trace": 1000}

        higher = StageCacheStats()
        higher.rss_peak_kib["trace"] = 2000
        higher.merge(delta)
        assert higher.rss_peak_kib["trace"] == 2000  # max, not 3000

        lower = StageCacheStats()
        lower.rss_peak_kib["trace"] = 500
        lower.merge(delta)
        assert lower.rss_peak_kib["trace"] == 1000

    def test_profile_table_has_rss_column(self):
        stats = StageCacheStats()
        stats.record_run("cluster", 0.5)
        table = stats.profile_table()
        assert "Peak RSS" in table
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
