"""Unit tests: the streamed trace tier and its satellites.

Covers the open-handle deferred-unlink guard that `StudyStore.reclaim`
rides, the tile-size-invariant stream generator, the streamed signature
collector and every trace cell against the monolithic oracles, the
mini-batch clustering path, the per-stage peak-RSS counter family, and
the perf gate's missing-metric tolerance.
"""

import gc
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.clustering.kmeans import kmeans
from repro.clustering.minibatch import minibatch_kmeans
from repro.clustering.simpoint import SimPointOptions, run_simpoint
from repro.exec.columnar import (
    open_reader_count,
    read_payload_file,
    unlink_when_closed,
    write_payload_atomic,
)
from repro.exec.stagestore import StageCacheStats
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


def _write_payload(path):
    write_payload_atomic(path, {"lines": np.arange(100, dtype=np.int64)})
    return path


class TestOpenHandleGuard:
    def test_unlink_defers_until_last_close(self, tmp_path):
        """Deleting a container whose mapping live payload views still
        alias must wait until the last of those views dies."""
        path = _write_payload(tmp_path / "t.rpb")
        first, _ = read_payload_file(path)
        second, _ = read_payload_file(path)
        assert open_reader_count(path) == 2
        unlink_when_closed(path)
        assert path.exists()  # still mapped: deletion deferred
        del second
        gc.collect()
        assert path.exists()  # one reader left
        assert first["lines"][0] == 0  # the mapping stays valid throughout
        del first
        gc.collect()
        assert not path.exists()  # the last view's death performs the unlink
        assert open_reader_count(path) == 0

    def test_unlink_immediate_without_readers(self, tmp_path):
        path = _write_payload(tmp_path / "t.rpb")
        payload, _ = read_payload_file(path)
        del payload
        gc.collect()
        assert open_reader_count(path) == 0
        assert unlink_when_closed(path) is True
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
#: seven apps, so several blocks cross a tile boundary (at the CLI's
#: default tile size every block's quick stream fits in one tile).
ORACLE_ACCESSES = 20_000
ORACLE_TILE = 4_096


class TestTraceCell:
    @staticmethod
    def _config(tmp_path, **overrides):
        return replace(
            default_config("quick"),
            cache_dir=str(tmp_path),
            trace_accesses=ORACLE_ACCESSES,
            trace_tile_size=ORACLE_TILE,
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

    def test_payload_is_tile_size_invariant(self, tmp_path):
        """``--trace-tile-size`` is execution-only, so a cached cell must
        not depend on the tile count that filled it."""
        small = self._config(tmp_path)
        large = replace(small, trace_tile_size=1 << 20)
        for app in EVALUATED_APPS:
            request = trace_request(app, ORACLE_ACCESSES)
            assert trace_cell(request, small) == trace_cell(request, large), app

    def test_cell_records_run_time_and_rss_for_the_profile(self, tmp_path):
        from repro.exec.stagestore import stage_store_for

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
