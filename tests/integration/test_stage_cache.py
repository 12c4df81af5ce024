"""Integration tests: stage-granular caching and invalidation.

The redesign's performance claim: study cells execute as stage graphs
against a digest-chained store, so changing ``SimPointOptions.max_k``
invalidates the cluster/select/measure payloads while the profile
payload is served from disk and discovery never executes again —
asserted here through the store's per-stage hit counters and run
timers, with byte-identical results either way.  Loading is
demand-driven: a warm graph looks up only the stages its results read
(``select`` and ``measure``), never the discovery side behind them.
"""

import json
from dataclasses import replace

import pytest

from repro.api import PipelineConfig, build_pipeline, evaluation_payload
from repro.api.study import run_crossarch
from repro.clustering.simpoint import SimPointOptions
from repro.exec.stagestore import StageStore, stage_store_for
from repro.hw.machines import INTEL_I7_3770
from repro.hw.measure import MeasurementProtocol
from repro.isa.descriptors import ISA

FAST = PipelineConfig(
    discovery_runs=2, protocol=MeasurementProtocol(repetitions=3)
)

CACHEABLE = ("profile", "cluster", "select", "measure")

#: Stages whose live execution means discovery ran again.
DISCOVERY = ("profile", "signature", "rankify", "coalesce_ranks")


@pytest.fixture
def store(tmp_path):
    return StageStore(tmp_path / "cache")


def _run(config, store):
    return (
        build_pipeline("MCB", threads=2, config=config)
        .on(ISA.X86_64)
        .run(store)
    )


def _ran(stats, stages=DISCOVERY):
    """Which of ``stages`` executed live since the last reset."""
    return sorted(set(stages) & set(stats.run_seconds))


def _lookups(stats):
    """Stage names the store was asked for since the last reset."""
    return sorted(set(stats.hits) | set(stats.misses))


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
        assert not store.stats.misses
        assert store.stats.hit_count("select") == 1
        assert store.stats.hit_count("measure") == 1
        assert _ran(store.stats) == []

    def test_maxk_change_reuses_profile_and_signature(self, store):
        cold = _run(FAST, store)
        capped = replace(FAST, simpoint=SimPointOptions(max_k=2))

        store.stats.reset()
        warm = _run(capped, store)
        assert store.stats.hit_count("profile") == 1
        assert store.stats.miss_count("profile") == 0
        # The signatures are re-derived from the decoded observations.
        assert _ran(store.stats) == ["signature"]
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
        assert _ran(store.stats) == ["signature"]
        for stage in ("cluster", "select", "measure"):
            assert store.stats.miss_count(stage) == 1

    def test_repetitions_change_reuses_everything_but_measure(self, store):
        _run(FAST, store)
        store.stats.reset()
        _run(replace(FAST, protocol=MeasurementProtocol(repetitions=4)), store)
        assert store.stats.hit_count("select") == 1
        assert dict(store.stats.misses) == {"measure": 1}
        assert _ran(store.stats, DISCOVERY + ("cluster", "select")) == []

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
        assert store.stats.hit_count("select") == 1
        assert dict(store.stats.misses) == {"measure": 1}
        assert _ran(store.stats, DISCOVERY + ("cluster", "select")) == []
        assert len(run.evaluations) == 2

    def test_cached_payloads_reproduce_bitwise(self, store):
        first = _payload(_run(FAST, store))
        second = _payload(_run(FAST, store))
        disabled = _payload(_run(FAST, StageStore("")))
        assert first == second == disabled

    def test_corrupt_entry_treated_as_miss(self, store):
        cold = _payload(_run(FAST, store))
        corrupted = list(store._dir.rglob("*_select_*.rpb"))
        assert corrupted, "select stage should persist a columnar container"
        for path in corrupted:
            path.write_bytes(b"RPB1\xff\xff\xff\xfftorn")
        store.stats.reset()
        healed = _payload(_run(FAST, store))
        assert store.stats.miss_count("select") == 1
        # Re-selecting reads the clusterings and the signatures, so the
        # cluster and profile entries behind the torn one are loaded.
        for stage in ("profile", "cluster", "measure"):
            assert store.stats.hit_count(stage) == 1
        assert healed == cold

    def test_disabled_store_counts_nothing(self):
        disabled = StageStore("")
        _run(FAST, disabled)
        assert not disabled.stats.hits and not disabled.stats.misses


class TestDemandDrivenLoading:
    def test_warm_graph_loads_only_what_the_results_read(self, store):
        _run(FAST, store)
        store.stats.reset()
        _run(FAST, store)
        assert _lookups(store.stats) == ["measure", "select"]
        assert sorted(store.stats.run_seconds) == ["reconstruct", "validate"]

    def test_maxk_change_reruns_signature_and_cluster(self, store):
        _run(FAST, store)
        capped = replace(FAST, simpoint=SimPointOptions(max_k=2))
        store.stats.reset()
        warm = _run(capped, store)
        assert dict(store.stats.hits) == {"profile": 1}
        assert dict(store.stats.misses) == {"cluster": 1, "select": 1, "measure": 1}
        assert sorted(store.stats.run_seconds) == sorted(
            ("signature", "cluster", "select", "measure", "reconstruct", "validate")
        )
        assert _payload(warm) == _payload(_run(capped, StageStore("")))

    def test_warm_trimmed_graph_exposes_selections_and_measurements(self, store):
        def trimmed():
            return (
                build_pipeline("MCB", threads=2, config=FAST)
                .on(ISA.X86_64)
                .without_stage("reconstruct")
                .without_stage("validate")
                .run(store)
            )

        cold = trimmed()
        store.stats.reset()
        warm = trimmed()
        assert _lookups(store.stats) == ["measure", "select"]
        assert not store.stats.misses and not store.stats.run_seconds
        assert [s.representatives.tolist() for s in warm.selections] == [
            s.representatives.tolist() for s in cold.selections
        ]
        name = INTEL_I7_3770.name
        cold_m, warm_m = (
            r.context.require("measurements")[name] for r in (cold, warm)
        )
        assert warm_m["means"].tobytes() == cold_m["means"].tobytes()
        assert warm_m["reference"].tobytes() == cold_m["reference"].tobytes()

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_discover_then_run_with_store(self, store, warm):
        if warm:
            _run(FAST, store)
        pipeline = build_pipeline("MCB", threads=2, config=FAST).on(ISA.X86_64).build()
        selections = pipeline.discover()
        store.stats.reset()
        run = pipeline.run(store)
        assert run.selections is selections
        # Discovery already ran in-process: run() neither re-runs nor
        # looks up anything upstream of measure.
        assert _lookups(store.stats) == ["measure"]
        assert _ran(store.stats, DISCOVERY + ("cluster", "select")) == []
        assert _payload(run) == _payload(_run(FAST, StageStore("")))


class TestStageProfileCounters:
    def test_profile_counters_populated(self, store):
        _run(FAST, store)
        stats = store.stats
        for stage in CACHEABLE:
            assert stats.bytes_encoded[stage] > 0
            assert stats.store_seconds[stage] > 0
            assert stats.run_seconds[stage] > 0
        _run(FAST, store)
        for stage in ("select", "measure"):
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
        assert store.stats.miss_count("profile") == 0
        assert _ran(store.stats) == ["signature"]
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
