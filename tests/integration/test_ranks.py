"""Integration tests: the distributed-memory rank subsystem.

Covers the acceptance properties of the rank PR:

* ``repro ranks`` payloads and rendering are byte-identical across the
  serial, threads and processes backends;
* collective operations induce the same region boundaries on every
  rank, end to end through the rank stages (every rank's observations
  cover the same barrier points);
* the :func:`~repro.api.sweep.RankStudy` public API composes the
  registered rank-aware stages, reports the communication share, and
  its speedup/efficiency accounting is self-consistent;
* discovery-side stage payloads are shared across machines through the
  stage store;
* the cache-exempt rank and scaling cells are thin derivations: a warm
  re-run reads every number from stage payloads and executes no trace
  and no perf model.
"""

import pytest

from repro.api import PipelineConfig, RankStudy
from repro.api.registry import stage_registry
from repro.api.sweep import (
    RANK_THREADS,
    default_rank_stages,
    run_rank_cell,
    run_scaling_cell,
)
from repro.exec.scheduler import StudyScheduler
from repro.exec.stagestore import StageStore
from repro.experiments.config import default_config
from repro.experiments.sweep import rank_request, ranks as ranks_exp
from repro.hw.machines import APM_XGENE, INTEL_I7_3770
from repro.hw.measure import MeasurementProtocol

FAST = PipelineConfig(
    discovery_runs=2, protocol=MeasurementProtocol(repetitions=3)
)

MACHINES = (INTEL_I7_3770.name, APM_XGENE.name)


def _small_requests(apps=("MCB",), rank_counts=(1, 2)):
    return [
        rank_request(app, ranks, machine)
        for app in apps
        for machine in MACHINES
        for ranks in rank_counts
    ]


def _grid_config(tmp_path, **overrides):
    return default_config(
        "quick", cache_dir=str(tmp_path / "cache"), **overrides
    )


class TestRankStages:
    def test_rank_stages_registered(self):
        assert "rankify" in stage_registry
        assert "coalesce_ranks" in stage_registry
        names = [stage.name for stage in default_rank_stages()]
        assert names == [
            "rankify", "coalesce_ranks", "cluster", "select",
            "measure", "reconstruct", "validate",
        ]

    def test_rankify_requires_distributed_workload(self):
        from repro.api.builder import StagePipeline
        from repro.workloads.registry import create

        pipeline = StagePipeline(
            create("MCB"), 2, False, FAST, stages=default_rank_stages()
        )
        with pytest.raises(TypeError, match="DistributedWorkload"):
            pipeline.run()

    def test_every_rank_observes_the_same_region_boundaries(self):
        from repro.api.builder import StagePipeline
        from repro.isa.descriptors import ISA
        from repro.workloads.distributed import DistributedWorkload

        job = DistributedWorkload("MCB", ranks=4)
        pipeline = StagePipeline(
            job, 2, False, FAST,
            stages=default_rank_stages(), targets=(INTEL_I7_3770,),
        )
        run = pipeline.run()
        trace = run.context.trace(ISA.X86_64)
        boundaries = trace.region_boundaries(0)
        assert boundaries[-1] == trace.n_barrier_points - 1
        for rank in range(4):
            assert trace.region_boundaries(rank) == boundaries
        # End to end: every rank's observations cover the same barrier
        # points, so the coalesced signatures have one row per bp.
        for per_rank in run.context.require("rank_observations"):
            assert len(per_rank) == 4
            for obs in per_rank:
                assert obs.n_barrier_points == trace.n_barrier_points
        for sig in run.context.require("signatures"):
            assert sig.n_barrier_points == trace.n_barrier_points


class TestRankStudyApi:
    def test_grid_and_unsupported_split(self):
        study = RankStudy(
            "MCB", machines=MACHINES, rank_counts=(1, 4), threads=16,
            config=FAST,
        )
        assert study.grid() == []
        unsupported = study.unsupported()
        assert unsupported[(INTEL_I7_3770.name, 4)] == (
            "team of 16 exceeds 8 hardware contexts per node"
        )

    def test_run_reports_speedup_comm_and_cpi(self, tmp_path):
        study = RankStudy(
            "MCB", machines=MACHINES, rank_counts=(1, 2), config=FAST
        )
        result = study.run(StageStore(tmp_path / "stages"))
        assert result.speedup(INTEL_I7_3770.name, 1) == pytest.approx(1.0)
        base = result.cell(INTEL_I7_3770.name, 1)
        assert base.comm_mcycles == 0.0 and base.comm_pct == 0.0
        for machine in MACHINES:
            cell = result.cell(machine, 2)
            assert cell.ranks == 2 and cell.threads == RANK_THREADS
            assert cell.comm_mcycles > 0.0
            assert 0.0 < cell.comm_pct < 100.0
            assert 1.0 < result.speedup(machine, 2) < 4.0
            assert cell.k >= 1
            assert cell.cpi_true > 0 and cell.cpi_estimate > 0
            assert cell.cpi_error_pct < 50.0
        assert result.speedup(INTEL_I7_3770.name, 8) is None

    def test_discovery_stages_shared_across_machines(self, tmp_path):
        store = StageStore(tmp_path / "stages")
        run_rank_cell("MCB", INTEL_I7_3770.name, 2, config=FAST, store=store)
        store.stats.reset()
        run_rank_cell("MCB", APM_XGENE.name, 2, config=FAST, store=store)
        # The second machine loads the first one's selections and
        # executes no discovery.
        assert store.stats.hit_count("select") == 1
        assert dict(store.stats.misses) == {"measure": 1}
        for stage in ("rankify", "coalesce_ranks", "cluster", "select"):
            assert stage not in store.stats.run_seconds, stage

    def test_cell_payload_roundtrip(self):
        from repro.api.sweep import SweepCell

        cell = run_rank_cell("MCB", INTEL_I7_3770.name, 2, config=FAST)
        assert SweepCell.from_payload(cell.to_payload()) == cell
        assert list(cell.to_payload()) == [
            "app", "machine", "ranks", "threads", "k", "total_barrier_points",
            "wall_mcycles", "comm_mcycles", "comm_pct", "instructions",
            "cpi_true", "cpi_estimate", "cpi_error_pct", "failure",
        ]

    @pytest.mark.parametrize(
        "run_cell", [run_rank_cell, run_scaling_cell], ids=["ranks", "scaling"]
    )
    def test_warm_cell_executes_no_trace_and_no_perf_model(
        self, run_cell, tmp_path, monkeypatch
    ):
        def cell():
            store = StageStore(tmp_path / "stages")
            return run_cell("MCB", INTEL_I7_3770.name, 2, config=FAST, store=store)

        cold = cell()

        def refuse(*args, **kwargs):
            raise AssertionError("a warm cell re-ran a trace or the perf model")

        monkeypatch.setattr("repro.api.context.execute_program", refuse)
        monkeypatch.setattr("repro.runtime.distributed.execute_distributed", refuse)
        monkeypatch.setattr("repro.hw.perf.PerfModel.true_counters", refuse)
        assert cell() == cold

    def test_prewrapped_workload_rank_mismatch_rejected(self):
        from repro.workloads.distributed import DistributedWorkload

        job = DistributedWorkload("MCB", ranks=2)
        with pytest.raises(ValueError, match="wrapped for 2 ranks"):
            run_rank_cell(job, INTEL_I7_3770.name, 4, config=FAST)


class TestRankDeterminism:
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
            renders[backend] = ranks_exp.build(results, config).render()
        assert payloads["serial"] == payloads["threads"] == payloads["processes"]
        assert renders["serial"] == renders["threads"] == renders["processes"]
        # The 1-rank rows anchor the baseline with a zero comm bill.
        assert "0.00" in renders["serial"]

    def test_rerender_identical_from_stage_cache(self, tmp_path):
        requests = _small_requests()
        config = _grid_config(tmp_path)
        cold = StudyScheduler(config).run(requests)
        warm = StudyScheduler(config).run(requests)
        assert warm == cold

    def test_phase_count_is_part_of_the_cache_identity(self, tmp_path):
        # Jobs with different communication schedules must never share
        # stage-cache entries: the phase count enters the rankify cache
        # key and relocates the whole digest chain.
        from repro.api.builder import StagePipeline
        from repro.workloads.distributed import DistributedWorkload

        store = StageStore(tmp_path / "stages")
        for phases in (16, 4):
            job = DistributedWorkload("MCB", ranks=2, phases=phases)
            pipeline = StagePipeline(
                job, RANK_THREADS, False, FAST,
                stages=default_rank_stages(), targets=(INTEL_I7_3770,),
            )
            pipeline.run(store)
        assert store.stats.hit_count("rankify") == 0
        assert store.stats.miss_count("rankify") == 2
        assert store.stats.hit_count("measure") == 0

    def test_rank_digests_do_not_collide_with_shared_memory(self, tmp_path):
        # A rank pipeline and a plain pipeline at the same (app, threads,
        # seed) must address different stage-cache entries — the rank
        # count is part of the workload identity.
        from repro.api.builder import build_pipeline

        store = StageStore(tmp_path / "stages")
        run_rank_cell("MCB", INTEL_I7_3770.name, 2, config=FAST, store=store)
        store.stats.reset()
        build_pipeline("MCB", threads=RANK_THREADS, config=FAST).run(store)
        assert store.stats.hit_count("profile") == 0
        assert store.stats.miss_count("profile") == 1
