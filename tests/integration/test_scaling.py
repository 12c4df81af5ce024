"""Integration tests: the strong-scaling subsystem.

Covers the three acceptance properties of the scaling PR:

* the scaling table is deterministic — byte-identical payloads and
  rendering across the serial, threads and processes backends;
* stage-cache hit/miss counters survive the ``processes`` backend (the
  scheduler merges worker deltas into the parent store), so a fully
  stage-cached parallel re-render reports its traffic instead of
  "no stage cache traffic";
* the :func:`~repro.api.sweep.ScalingStudy` public API composes the
  registered stages, reports unsupported widths explicitly, and its
  speedup/efficiency accounting is self-consistent.
"""

import dataclasses

import pytest

from repro.api import PipelineConfig, RankStudy, ScalingStudy
from repro.api.sweep import run_scaling_cell
from repro.exec.scheduler import StudyScheduler
from repro.exec.stagestore import StageStore, stage_store_for
from repro.experiments.config import default_config
from repro.experiments.sweep import scaling as scaling_exp, scaling_request
from repro.hw.machines import APM_XGENE, ARMV8_IN_ORDER, INTEL_I7_3770
from repro.hw.measure import MeasurementProtocol

FAST = PipelineConfig(
    discovery_runs=2, protocol=MeasurementProtocol(repetitions=3)
)

#: A small grid: 2 machines x widths, one app — fast but real.
MACHINES = (INTEL_I7_3770.name, APM_XGENE.name)


def _small_requests(apps=("MCB",), thread_counts=(1, 2)):
    return [
        scaling_request(app, threads, machine)
        for app in apps
        for machine in MACHINES
        for threads in thread_counts
    ]


def _grid_config(tmp_path, **overrides):
    return default_config(
        "quick", cache_dir=str(tmp_path / "cache"), **overrides
    )


class TestScalingStudyApi:
    def test_grid_and_unsupported_split(self):
        study = ScalingStudy(
            "MCB", machines=MACHINES, thread_counts=(1, 2, 16), config=FAST
        )
        grid = study.grid()
        assert [(m.name, t) for m, t in grid] == [
            (INTEL_I7_3770.name, 1),
            (INTEL_I7_3770.name, 2),
            (APM_XGENE.name, 1),
            (APM_XGENE.name, 2),
        ]
        unsupported = study.unsupported()
        assert unsupported[(INTEL_I7_3770.name, 16)] == (
            "exceeds 8 hardware contexts"
        )
        assert unsupported[(APM_XGENE.name, 16)] == "exceeds 8 hardware contexts"

    @pytest.mark.parametrize(
        "make_study, width, reason",
        [
            (
                lambda machine: ScalingStudy(
                    "MCB", machines=(machine,), thread_counts=(16,), config=FAST
                ),
                16,
                "x86_64 discovery (Intel Core i7-3770) exceeds 8 hardware contexts",
            ),
            (
                lambda machine: RankStudy(
                    "MCB", machines=(machine,), rank_counts=(2,), threads=16,
                    config=FAST,
                ),
                2,
                "x86_64 discovery (Intel Core i7-3770) team of 16 exceeds 8 "
                "hardware contexts per node",
            ),
        ],
        ids=["threads", "ranks"],
    )
    def test_discovery_machine_caps_both_axes(self, make_study, width, reason):
        # A 32-core target hosts a 16-wide team, but discovery runs that
        # team on the 8-context x86_64 machine: the cell is unsupported,
        # not scheduled to fail mid-pipeline.
        wide = dataclasses.replace(APM_XGENE, name="wide-arm", cores=32)
        study = make_study(wide)
        assert study.grid() == []
        assert study.unsupported() == {("wide-arm", width): reason}
        result = study.run()
        assert result.cells == {}
        assert result.unsupported == {("wide-arm", width): reason}

    def test_run_reports_speedup_and_cpi(self, tmp_path):
        study = ScalingStudy(
            "MCB", machines=MACHINES, thread_counts=(1, 2), config=FAST
        )
        result = study.run(StageStore(tmp_path / "stages"))
        assert result.speedup(INTEL_I7_3770.name, 1) == pytest.approx(1.0)
        assert result.efficiency_pct(INTEL_I7_3770.name, 1) == pytest.approx(100.0)
        for machine in MACHINES:
            speedup = result.speedup(machine, 2)
            assert 1.0 < speedup < 4.0
            cell = result.cell(machine, 2)
            assert cell.k >= 1
            assert cell.cpi_true > 0 and cell.cpi_estimate > 0
            assert cell.cpi_error_pct < 50.0
        # 16 was not requested: speedup for absent widths is None.
        assert result.speedup(INTEL_I7_3770.name, 16) is None

    def test_discovery_stages_shared_across_machines(self, tmp_path):
        # Both machines at the same (app, threads) share the x86_64-side
        # stages: the second cell loads the first one's selections and
        # executes no discovery.
        store = StageStore(tmp_path / "stages")
        run_scaling_cell("MCB", INTEL_I7_3770.name, 2, FAST, store)
        store.stats.reset()
        run_scaling_cell("MCB", APM_XGENE.name, 2, FAST, store)
        assert store.stats.hit_count("select") == 1
        assert dict(store.stats.misses) == {"measure": 1}
        for stage in ("profile", "signature", "cluster", "select"):
            assert stage not in store.stats.run_seconds, stage

    def test_cell_payload_roundtrip(self, tmp_path):
        from repro.api.sweep import SweepCell

        cell = run_scaling_cell("MCB", INTEL_I7_3770.name, 2, FAST)
        assert SweepCell.from_payload(cell.to_payload()) == cell
        # Served and checkpointed payloads keep their shape: no rank
        # fields leak into a thread-axis cell.
        assert list(cell.to_payload()) == [
            "app", "machine", "threads", "k", "total_barrier_points",
            "wall_mcycles", "instructions", "cpi_true", "cpi_estimate",
            "cpi_error_pct", "failure",
        ]


class TestScalingDeterminism:
    def test_table_identical_across_backends(self, tmp_path):
        requests = _small_requests()
        renders = {}
        payloads = {}
        for backend in ("serial", "threads", "processes"):
            config = default_config(
                "quick",
                cache_dir=str(tmp_path / backend),
                jobs=2,
                backend=backend,
            )
            scheduler = StudyScheduler(config)
            results = scheduler.run(requests)
            payloads[backend] = results
            renders[backend] = scaling_exp.build(results, config).render()
        assert payloads["serial"] == payloads["threads"] == payloads["processes"]
        assert renders["serial"] == renders["threads"] == renders["processes"]
        # The 16-wide column renders as an explicit unsupported row.
        assert "exceeds 8 hardware contexts" in renders["serial"]

    def test_rerender_identical_from_stage_cache(self, tmp_path):
        requests = _small_requests()
        config = _grid_config(tmp_path)
        cold = StudyScheduler(config).run(requests)
        warm = StudyScheduler(config).run(requests)
        assert warm == cold


class TestProcessBackendStageStats:
    def test_worker_deltas_merge_into_parent(self, tmp_path):
        # Scaling cells bypass the cell-level store, so a re-render
        # re-executes them against the stage cache; under the processes
        # backend the hit counters used to stay in the workers and the
        # parent reported "no stage cache traffic".
        requests = _small_requests()
        config = _grid_config(tmp_path, jobs=2, backend="processes")

        StudyScheduler(config).run(requests)  # populate the stage cache
        parent_stats = stage_store_for(config).stats
        parent_stats.reset()

        scheduler = StudyScheduler(config)
        scheduler.run(requests)
        assert scheduler.stats.executed == len(requests)
        for stage in ("select", "measure"):
            assert parent_stats.hit_count(stage) > 0, stage
        assert not parent_stats.misses
        # The workers' run timers merge too: none of them re-ran discovery.
        assert sorted(parent_stats.run_seconds) == ["reconstruct", "validate"]
        assert "no stage cache traffic" not in parent_stats.describe()

    def test_pooled_grid_computes_each_discovery_once(self, tmp_path):
        # Cells that differ only in their machine share one discovery.
        # Listed group-adjacent, two workers would both start the same
        # discovery unless the scheduler holds the group's other cells.
        machines = MACHINES + (ARMV8_IN_ORDER.name,)
        requests = [
            scaling_request(app, threads, machine)
            for app in ("MCB", "miniFE")
            for threads in (1, 2)
            for machine in machines
        ]
        misses = {}
        for backend in ("serial", "processes"):
            config = _grid_config(tmp_path / backend, jobs=2, backend=backend)
            StudyScheduler(config).run(requests)
            misses[backend] = dict(stage_store_for(config).stats.misses)
        assert misses["processes"] == misses["serial"]
        assert misses["serial"]["cluster"] == 4  # one per (app, width)

    def test_pooled_kinds_share_one_discovery(self, tmp_path):
        # crossarch, coretypes and scaling cells of one (app, width) read
        # one scalar x86_64 discovery; three workers would all start it
        # unless the group spans the kinds.
        from repro.exec.request import StudyRequest
        from repro.experiments.runner import crossarch_request

        requests = [
            crossarch_request("miniFE", 2),
            StudyRequest(kind="coretypes", app="miniFE", threads=2),
            *(scaling_request("miniFE", 2, machine) for machine in MACHINES),
        ]
        misses = {}
        for backend in ("serial", "processes"):
            config = _grid_config(tmp_path / backend, jobs=3, backend=backend)
            StudyScheduler(config).run(requests)
            misses[backend] = dict(stage_store_for(config).stats.misses)
        assert misses["processes"] == misses["serial"]
        assert misses["serial"]["cluster"] == 2  # scalar and vectorised

    def test_serial_backend_not_double_counted(self, tmp_path):
        # Same-pid execution increments the parent store directly; the
        # returned delta must not be merged a second time.
        requests = _small_requests(thread_counts=(1,))
        config = _grid_config(tmp_path, backend="serial")

        StudyScheduler(config).run(requests)
        parent_stats = stage_store_for(config).stats
        parent_stats.reset()

        StudyScheduler(config).run(requests)
        # 2 machines x 1 width: select and measure hit once per cell,
        # and discovery executes nowhere.
        assert parent_stats.hit_count("measure") == len(requests)
        assert parent_stats.hit_count("select") == len(requests)
        assert not parent_stats.misses
        assert "profile" not in parent_stats.run_seconds

    def test_stats_snapshot_delta_merge_roundtrip(self):
        from repro.exec.stagestore import StageCacheStats

        stats = StageCacheStats()
        stats.hits["profile"] += 2
        before = stats.snapshot()
        stats.hits["profile"] += 1
        stats.misses["cluster"] += 4
        delta = stats.delta_since(before)
        assert delta["hits"] == {"profile": 1}
        assert delta["misses"] == {"cluster": 4}
        # Profiling counter families ride the same delta (empty here).
        assert delta["bytes_decoded"] == {} and delta["run_seconds"] == {}

        other = StageCacheStats()
        other.merge(delta)
        assert other.hit_count("profile") == 1
        assert other.miss_count("cluster") == 4
        other.merge({"hits": {"profile": 2}})
        assert other.hit_count("profile") == 3
