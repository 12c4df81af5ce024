"""Integration tests: stage-granular caching and invalidation.

The redesign's performance claim: study cells execute as stage graphs
against a digest-chained store, so changing ``SimPointOptions.max_k``
invalidates the cluster/select/measure payloads while the
profile/signature payloads are served from disk — asserted here through
the store's per-stage hit counters, with byte-identical results either
way.
"""

import json
from dataclasses import replace

import pytest

from repro.api import PipelineConfig, build_pipeline, evaluation_payload
from repro.api.study import run_crossarch
from repro.clustering.simpoint import SimPointOptions
from repro.exec.stagestore import StageStore, stage_store_for
from repro.hw.measure import MeasurementProtocol
from repro.isa.descriptors import ISA

FAST = PipelineConfig(
    discovery_runs=2, protocol=MeasurementProtocol(repetitions=3)
)

CACHEABLE = ("profile", "signature", "cluster", "select", "measure")


@pytest.fixture
def store(tmp_path):
    return StageStore(tmp_path / "cache")


def _run(config, store):
    return (
        build_pipeline("MCB", threads=2, config=config)
        .on(ISA.X86_64)
        .run(store)
    )


def _payload(run):
    return json.dumps(
        [evaluation_payload(e) for e in run.evaluations_on(ISA.X86_64)],
        sort_keys=True,
    )


class TestStageCache:
    def test_cold_run_misses_then_warm_run_hits_every_stage(self, store):
        _run(FAST, store)
        for stage in CACHEABLE:
            assert store.stats.miss_count(stage) == 1
            assert store.stats.hit_count(stage) == 0

        store.stats.reset()
        _run(FAST, store)
        for stage in CACHEABLE:
            assert store.stats.hit_count(stage) == 1
            assert store.stats.miss_count(stage) == 0

    def test_maxk_change_reuses_profile_and_signature(self, store):
        cold = _run(FAST, store)
        capped = replace(FAST, simpoint=SimPointOptions(max_k=2))

        store.stats.reset()
        warm = _run(capped, store)
        assert store.stats.hit_count("profile") == 1
        assert store.stats.hit_count("signature") == 1
        for stage in ("cluster", "select", "measure"):
            assert store.stats.miss_count(stage) == 1
            assert store.stats.hit_count(stage) == 0

        fresh = _run(capped, StageStore(""))
        assert _payload(warm) == _payload(fresh)
        assert _payload(cold) != _payload(warm)

    def test_bbv_weight_change_reuses_profile_only(self, store):
        _run(FAST, store)
        store.stats.reset()
        _run(replace(FAST, bbv_weight=0.8), store)
        assert store.stats.hit_count("profile") == 1
        for stage in ("signature", "cluster", "select", "measure"):
            assert store.stats.miss_count(stage) == 1

    def test_repetitions_change_reuses_everything_but_measure(self, store):
        _run(FAST, store)
        store.stats.reset()
        _run(replace(FAST, protocol=MeasurementProtocol(repetitions=4)), store)
        for stage in ("profile", "signature", "cluster", "select"):
            assert store.stats.hit_count(stage) == 1
        assert store.stats.miss_count("measure") == 1

    def test_seed_change_invalidates_everything(self, store):
        _run(FAST, store)
        store.stats.reset()
        _run(replace(FAST, seed=7), store)
        for stage in CACHEABLE:
            assert store.stats.miss_count(stage) == 1

    def test_new_target_reuses_discovery_side(self, store):
        _run(FAST, store)
        store.stats.reset()
        run = (
            build_pipeline("MCB", threads=2, config=FAST)
            .on(ISA.X86_64, ISA.ARMV8)
            .run(store)
        )
        for stage in ("profile", "signature", "cluster", "select"):
            assert store.stats.hit_count(stage) == 1
        assert store.stats.miss_count("measure") == 1
        assert len(run.evaluations) == 2

    def test_cached_payloads_reproduce_bitwise(self, store):
        first = _payload(_run(FAST, store))
        second = _payload(_run(FAST, store))
        disabled = _payload(_run(FAST, StageStore("")))
        assert first == second == disabled

    def test_corrupt_entry_treated_as_miss(self, store):
        _run(FAST, store)
        corrupted = list(store._dir.rglob("*_profile_*.rpb"))
        assert corrupted, "profile stage should persist a columnar container"
        for path in corrupted:
            path.write_bytes(b"RPB1\xff\xff\xff\xfftorn")
        store.stats.reset()
        _run(FAST, store)
        assert store.stats.miss_count("profile") == 1
        assert store.stats.hit_count("signature") == 1

    def test_disabled_store_counts_nothing(self):
        disabled = StageStore("")
        _run(FAST, disabled)
        assert not disabled.stats.hits and not disabled.stats.misses


class TestStageProfileCounters:
    def test_profile_counters_populated(self, store):
        _run(FAST, store)
        stats = store.stats
        for stage in CACHEABLE:
            assert stats.bytes_encoded[stage] > 0
            assert stats.store_seconds[stage] > 0
            assert stats.run_seconds[stage] > 0
        _run(FAST, store)
        for stage in CACHEABLE:
            assert stats.bytes_decoded[stage] > 0
            assert stats.load_seconds[stage] > 0
        table = stats.profile_table()
        for column in ("Stage", "Run (s)", "Decoded", "Encoded", "total"):
            assert column in table

    def test_empty_stats_render(self):
        from repro.exec.stagestore import StageCacheStats

        assert StageCacheStats().profile_table() == "no stage activity recorded"


class TestCrossArchStageCache:
    def test_crossarch_maxk_rerun_hits_profile_and_signature(self, tmp_path):
        store = StageStore(tmp_path / "cache")
        cold = run_crossarch("MCB", 2, FAST, store)

        capped = replace(FAST, simpoint=SimPointOptions(max_k=6))
        store.stats.reset()
        warm = run_crossarch("MCB", 2, capped, store)
        # Two pipelines per study (scalar + vectorised).
        assert store.stats.hit_count("profile") == 2
        assert store.stats.hit_count("signature") == 2
        assert store.stats.miss_count("cluster") == 2

        fresh = run_crossarch("MCB", 2, capped, None)
        for label, config_result in warm.configs.items():
            assert evaluation_payload(config_result.evaluation) == (
                evaluation_payload(fresh.configs[label].evaluation)
            )
        assert cold.app_name == "MCB"

    def test_stage_store_for_is_shared_per_cache_dir(self, tmp_path):
        class Cfg:
            cache_dir = str(tmp_path / "shared")

        assert stage_store_for(Cfg()) is stage_store_for(Cfg())
