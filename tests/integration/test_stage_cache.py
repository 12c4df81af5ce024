"""Integration tests: stage-granular caching and invalidation.

Study cells execute as stage graphs against a digest-chained store that
keeps only what a later run reads: the ``select`` and ``measure``
payloads.  Changing ``SimPointOptions.max_k`` or ``bbv_weight``
relocates both and runs discovery again; changing only the measurement
protocol or the targets reuses the stored selections — asserted here
through the store's per-stage hit counters and run timers, with
byte-identical results either way.  Loading is demand-driven: a warm
graph looks up only ``select`` and ``measure``, never the discovery
side behind them, and runs no stage.  No stored payload grows with k or
with the measurement repetitions: ``measure`` keeps each selection's
reconstructed estimate and error spread, not its representatives'
readings or its per-repetition reads.
"""

import json
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest
from evaluations import evaluation_payload

from repro.api import PipelineConfig, build_pipeline
from repro.api.builder import StagePipeline
from repro.api.registry import machine_registry
from repro.api.study import run_crossarch
from repro.api.sweep import RANK_THREADS, SCALING_MACHINES
from repro.clustering.simpoint import SimPointOptions
from repro.core.reconstruction import reconstruct_per_rep, reconstruct_totals
from repro.core.selection import BarrierPointSelection
from repro.core.validation import EstimationReport, validate_estimate
from repro.exec import health
from repro.exec.stagestore import StageStore, stage_store_for
from repro.exec.store import STAGES
from repro.experiments.config import default_config
from repro.hw.machines import INTEL_I7_3770
from repro.hw.measure import MeasurementProtocol
from repro.isa.descriptors import ISA
from repro.workloads.distributed import DistributedWorkload

FAST = PipelineConfig(
    discovery_runs=2, protocol=MeasurementProtocol(repetitions=3)
)

CACHEABLE = ("select", "measure")

#: Stages whose live execution means discovery ran again.
DISCOVERY = ("profile", "signature")

#: Every stage a discovery-knob change runs again, in graph order.
REDISCOVERED = ("profile", "signature", "cluster", "select", "measure")


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

    def test_maxk_change_reruns_discovery(self, store):
        cold = _run(FAST, store)
        capped = replace(FAST, simpoint=SimPointOptions(max_k=2))

        store.stats.reset()
        warm = _run(capped, store)
        assert not store.stats.hits
        assert _ran(store.stats) == ["profile", "signature"]
        for stage in CACHEABLE:
            assert store.stats.miss_count(stage) == 1
            assert store.stats.hit_count(stage) == 0

        fresh = _run(capped, StageStore(""))
        assert _payload(warm) == _payload(fresh)
        assert _payload(cold) != _payload(warm)

    def test_bbv_weight_change_reruns_discovery(self, store):
        _run(FAST, store)
        store.stats.reset()
        _run(replace(FAST, bbv_weight=0.8), store)
        assert not store.stats.hits
        assert _ran(store.stats) == ["profile", "signature"]
        for stage in CACHEABLE:
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
        corrupted = list(store.artifacts.root.rglob("select_*.rpb"))
        assert corrupted, "select stage should persist a columnar container"
        for path in corrupted:
            path.write_bytes(b"RPB1\xff\xff\xff\xfftorn")
        store.stats.reset()
        healed = _payload(_run(FAST, store))
        assert store.stats.miss_count("select") == 1
        # Re-selecting reads the clusterings, so discovery runs again;
        # the measure entry behind the torn one still loads.
        assert store.stats.hit_count("measure") == 1
        assert _ran(store.stats) == ["profile", "signature"]
        assert "cluster" in store.stats.run_seconds
        assert healed == cold

    def test_disabled_store_counts_nothing(self):
        disabled = StageStore("")
        _run(FAST, disabled)
        assert not disabled.stats.hits and not disabled.stats.misses

    def test_a_heal_in_a_second_store_is_counted_once(self, tmp_path):
        # A store built while another's counters are all zero (the two
        # compare equal) still reports a heal read through it, once.
        first, second = StageStore(tmp_path / "a"), StageStore(tmp_path / "b")
        digest = "0" * 64
        second.store(digest, "select", {"weights": np.arange(4.0)})
        (path,) = second.artifacts.root.rglob("select_*.rpb")
        path.write_bytes(b"RPB1\xff\xff\xff\xfftorn")
        before = Counter(second.stats.heals)
        assert second.load(digest, "select") is None
        assert second.stats.heals - before == Counter(container=1)
        # One process-wide tally: the first store reads the same count.
        assert first.stats.heals is second.stats.heals is health.HEALS


class TestDemandDrivenLoading:
    def test_warm_graph_loads_only_what_the_results_read(self, store):
        _run(FAST, store)
        store.stats.reset()
        _run(FAST, store)
        assert _lookups(store.stats) == ["measure", "select"]
        assert not store.stats.run_seconds

    def test_maxk_change_reruns_signature_and_cluster(self, store):
        _run(FAST, store)
        capped = replace(FAST, simpoint=SimPointOptions(max_k=2))
        store.stats.reset()
        warm = _run(capped, store)
        # Nothing upstream of select is stored: discovery runs again.
        assert dict(store.stats.misses) == {"select": 1, "measure": 1}
        assert sorted(store.stats.run_seconds) == sorted(REDISCOVERED)
        assert _payload(warm) == _payload(_run(capped, StageStore("")))

    def test_warm_graph_exposes_what_it_loads(self, store):
        cold = _run(FAST, store)
        store.stats.reset()
        warm = _run(FAST, store)
        assert _lookups(store.stats) == ["measure", "select"]
        assert not store.stats.misses and not store.stats.run_seconds
        assert [s.representatives.tolist() for s in warm.selections] == [
            s.representatives.tolist() for s in cold.selections
        ]
        name = INTEL_I7_3770.name
        cold_m, warm_m = (
            r.context.require("measurements")[name] for r in (cold, warm)
        )
        assert set(warm_m) == set(cold_m) == {"reference", "comm_cycles"}
        assert warm_m["reference"].tobytes() == cold_m["reference"].tobytes()
        assert warm_m["comm_cycles"] == cold_m["comm_cycles"]
        _assert_same_estimates(warm.context, cold.context, name)

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


def _assert_same_estimates(got_ctx, want_ctx, name):
    """Both contexts hold the same estimates on ``name``, to the bit."""
    got, want = (ctx.require("estimates")[name] for ctx in (got_ctx, want_ctx))
    assert len(got) == len(want)
    for a, b in zip(got, want, strict=True):
        assert a.keys() == b.keys() == {"totals", "error_std"}
        for key in a:
            assert (a[key].dtype, a[key].shape) == (b[key].dtype, b[key].shape), key
            assert a[key].tobytes() == b[key].tobytes(), key


def _keys(node):
    """Every dict key anywhere in a payload tree."""
    if isinstance(node, dict):
        return set(node).union(*(_keys(value) for value in node.values()))
    if isinstance(node, list):
        return set().union(*(_keys(value) for value in node))
    return set()


def _arrays(node):
    """Every array anywhere in a payload tree."""
    if isinstance(node, np.ndarray):
        return [node]
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, list):
        return [array for value in node for array in _arrays(value)]
    return []


def _assert_estimates_reconstruct(payload, ctx, machine):
    """The stored estimates are Steps 4 and 5 over ``ctx``'s own readings, bit for bit."""
    estimates = payload["estimates"][machine.name]
    means = ctx.measured_means(machine)
    reference = ctx.reference_totals(machine)
    selections = ctx.require("selections")
    assert len(estimates) == len(selections)
    for selection, estimate in zip(selections, estimates, strict=True):
        bp_reps, roi_reps = ctx.rep_samples(selection, machine)
        totals = reconstruct_totals(selection, means[selection.representatives])
        report = validate_estimate(
            totals,
            reference,
            estimate_reps=reconstruct_per_rep(selection, bp_reps),
            reference_reps=roi_reps,
        )
        want = {"totals": totals, "error_std": report.error_std}
        assert estimate.keys() == want.keys()
        for key, array in want.items():
            got = estimate[key]
            assert (got.dtype, got.shape) == (array.dtype, array.shape), key
            assert got.tobytes() == array.tobytes(), key


def _assert_same_reports(got, want):
    """Two evaluations carry the same label and report, every float to the bit."""
    assert got.label == want.label
    for field in fields(EstimationReport):
        a, b = getattr(got.report, field.name), getattr(want.report, field.name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), field.name
        assert a.tobytes() == b.tobytes(), field.name


def _rank_pipeline():
    return StagePipeline(
        DistributedWorkload("MCB", ranks=2), RANK_THREADS, False, FAST,
        targets=(INTEL_I7_3770,),
    )


#: A default and a rank pipeline, each built afresh per call.
PIPELINES = pytest.mark.parametrize(
    "pipeline",
    [
        lambda: build_pipeline("MCB", threads=2, config=FAST).on(ISA.X86_64).build(),
        _rank_pipeline,
    ],
    ids=["default", "ranks"],
)


class TestStoredPayloads:
    """The store keeps only what a later run reads."""

    @PIPELINES
    def test_cold_pipeline_stores_only_select_and_measure(self, store, pipeline):
        pipeline().run(store)
        entries = list(store.artifacts.entries())
        assert sorted(path.name.split("_")[0] for path in entries) == ["measure", "select"]
        assert {path.parent.parent.name for path in entries} == {STAGES}

    @PIPELINES
    def test_measure_entry_holds_the_estimates_not_the_readings(self, store, pipeline):
        cold = pipeline()
        cold.run(store)
        digest = {stage.name: digest for stage, digest in cold._chain()}["measure"]
        payload = store.load(digest, "measure")
        ctx = cold.context
        name = INTEL_I7_3770.name
        assert _keys(payload) == {
            "measurements", "estimates", "failures", name,
            "reference", "comm_cycles", "totals", "error_std",
        }
        entry = payload["measurements"][name]
        assert entry["reference"].tobytes() == ctx.reference_totals(INTEL_I7_3770).tobytes()
        # No stored array has a repetitions axis: a (contexts, 4)
        # reference or estimate, or a (4,) error spread.
        contexts = entry["reference"].shape[0]
        assert {array.shape for array in _arrays(payload)} == {(contexts, 4), (4,)}
        _assert_estimates_reconstruct(payload, ctx, INTEL_I7_3770)

        warm = pipeline()
        warm.run(store)
        assert "observations" not in warm.context.artifacts
        _assert_same_estimates(warm.context, ctx, name)

    @PIPELINES
    def test_warm_reports_equal_cold_to_the_bit(self, store, pipeline):
        cold = pipeline().run(store)
        store.stats.reset()
        warm = pipeline().run(store)
        assert not store.stats.misses and not store.stats.run_seconds
        # The eager path validates the per-repetition reads afresh.
        eager = pipeline()
        eager.discover(store)
        assert warm.evaluations.keys() == cold.evaluations.keys() == {INTEL_I7_3770.name}
        for name, evaluations in cold.evaluations.items():
            assert len(warm.evaluations[name]) == len(evaluations) > 0
            for got, want in zip(warm.evaluations[name], evaluations, strict=True):
                _assert_same_reports(got, want)
                live = eager.evaluate(got.selection, INTEL_I7_3770.isa, INTEL_I7_3770)
                _assert_same_reports(got, live)

    def test_measure_entry_size_does_not_grow_with_k(self, tmp_path):
        def stored(config):
            store = StageStore(tmp_path / str(config.simpoint.max_k))
            run = _run(config, store)
            (entry,) = store.artifacts.root.rglob("measure_*.rpb")
            return [s.k for s in run.selections], entry.stat().st_size

        capped_k, capped = stored(replace(FAST, simpoint=SimPointOptions(max_k=2)))
        default_k, default = stored(FAST)
        assert max(capped_k) <= 2 < max(default_k)
        assert capped == default

    def test_quick_8_rank_lulesh_measure_entry_is_small_and_exact(self, store):
        # The largest quick measure entry: 8 ranks x 2 threads, 3 runs,
        # 3 machines.  Nothing in it grows with k or the repetitions, and
        # its estimates and error spreads are Steps 4 and 5 over readings
        # a run that stores nothing takes afresh.
        config = default_config("quick").pipeline_config()
        machines = tuple(machine_registry.get(name) for name in SCALING_MACHINES)

        def pipeline():
            return StagePipeline(
                DistributedWorkload("LULESH", ranks=8), RANK_THREADS, False, config,
                targets=machines,
            )

        cold = pipeline()
        cold.run(store)
        (entry,) = store.artifacts.root.rglob("measure_*.rpb")
        assert entry.stat().st_size <= 10 * 1024
        digest = {stage.name: digest for stage, digest in cold._chain()}["measure"]
        payload = store.load(digest, "measure")
        assert not payload["failures"]
        assert max(array.ndim for array in _arrays(payload)) == 2

        # Discovery is loaded, not re-run: the selections are the stored ones.
        fresh = pipeline()
        fresh.discover(store)
        for machine in machines:
            _assert_estimates_reconstruct(payload, fresh.context, machine)

    def test_quick_lulesh_select_entry_is_small_and_exact(self, store):
        # The largest quick discovery: 9,840 barrier points x 3 runs.
        # Nothing in the entry grows with the barrier-point count, and it
        # decodes to the live selections, every float to the bit.
        config = default_config("quick").pipeline_config()
        live = build_pipeline("LULESH", threads=8, config=config).build().discover(store)
        (entry,) = store.artifacts.entries()
        assert entry.name.startswith("select_")
        assert entry.stat().st_size < 16 * 1024
        assert [s.n_barrier_points for s in live] == [9840] * 3

        store.stats.reset()
        warm = build_pipeline("LULESH", threads=8, config=config).build().discover(store)
        assert dict(store.stats.hits) == {"select": 1} and not store.stats.run_seconds
        for got, want in zip(warm, live, strict=True):
            for field in fields(BarrierPointSelection):
                a, b = getattr(got, field.name), getattr(want, field.name)
                if isinstance(b, np.ndarray):
                    assert (a.dtype, a.shape) == (b.dtype, b.shape), field.name
                    assert a.tobytes() == b.tobytes(), field.name
                else:
                    assert type(a) is type(b), field.name
                    assert np.float64(a).tobytes() == np.float64(b).tobytes(), field.name


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
    def test_crossarch_maxk_rerun_reruns_discovery(self, tmp_path):
        store = StageStore(tmp_path / "cache")
        cold = run_crossarch("MCB", 2, FAST, store)

        capped = replace(FAST, simpoint=SimPointOptions(max_k=6))
        store.stats.reset()
        warm = run_crossarch("MCB", 2, capped, store)
        # Two pipelines per study (scalar + vectorised), each of which
        # misses its select entry and runs discovery again.
        assert not store.stats.hits
        assert store.stats.miss_count("select") == 2
        assert _ran(store.stats) == ["profile", "signature"]

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
