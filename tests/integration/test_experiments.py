"""Integration tests for the experiment drivers (quick protocol)."""

import pytest

from repro.api import PipelineConfig, StagePipeline
from repro.exec.scheduler import StudyScheduler
from repro.experiments import table1, table2
from repro.experiments.ablations import drop_insignificant
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import crossarch_request, decode_summaries
from repro.experiments.table3 import PAPER_TABLE3
from repro.hw.measure import MeasurementProtocol
from repro.workloads.registry import create

QUICK = ExperimentConfig(
    thread_counts=(4,), discovery_runs=2, repetitions=5, cache_dir=""
)


class TestStaticTables:
    def test_table1_rows(self):
        result = table1.run()
        assert len(result.rows) == 11
        rendered = result.render()
        assert "AMGMk" in rendered and "XSBench" in rendered
        assert "-s 16" in rendered  # graph500 input from Table I

    def test_table2_rows(self):
        result = table2.run()
        assert len(result.rows) == 2
        rendered = result.render()
        assert "Intel Core i7-3770" in rendered
        assert "X-Gene" in rendered


def _study(scheduler, app, threads):
    """Run one crossarch cell through ``scheduler`` and decode it."""
    results = scheduler.run([crossarch_request(app, threads)])
    return decode_summaries(results)[(app, threads)]


class TestCrossarchCells:
    def test_summary_contents(self):
        summary = _study(StudyScheduler(QUICK), "MCB", 4)
        assert summary.app == "MCB"
        assert summary.total_barrier_points == PAPER_TABLE3["MCB"][0]
        assert set(summary.configs) == {
            "x86_64", "x86_64-vect", "ARMv8", "ARMv8-vect",
        }
        cfg = summary.config("ARMv8")
        assert 0 <= cfg.error_mean["cycles"] < 50
        assert cfg.speedup > 1.0

    def test_disk_cache_roundtrip(self, tmp_path):
        config = ExperimentConfig(
            thread_counts=(4,), discovery_runs=2, repetitions=5,
            cache_dir=str(tmp_path),
        )
        first = _study(StudyScheduler(config), "MCB", 4)
        fresh = StudyScheduler(config)  # no memo: served from disk
        second = _study(fresh, "MCB", 4)
        assert fresh.stats.cache_hits == 1 and fresh.stats.executed == 0
        assert second == first
        assert list(tmp_path.rglob("*.rpb"))


class TestDropInsignificant:
    def test_drops_and_rescales(self):
        pipeline = StagePipeline(
            create("miniFE"),
            threads=4,
            config=PipelineConfig(
                discovery_runs=1, protocol=MeasurementProtocol(repetitions=3)
            ),
        )
        base = pipeline.discover()[0]
        reduced = drop_insignificant(base, 0.05)
        assert reduced.k <= base.k
        base_cover = (base.multipliers * base.rep_weights).sum()
        red_cover = (reduced.multipliers * reduced.rep_weights).sum()
        assert red_cover == pytest.approx(base_cover)

    def test_zero_threshold_identity(self):
        pipeline = StagePipeline(
            create("MCB"),
            threads=2,
            config=PipelineConfig(
                discovery_runs=1, protocol=MeasurementProtocol(repetitions=3)
            ),
        )
        base = pipeline.discover()[0]
        same = drop_insignificant(base, 0.0)
        assert list(same.representatives) == list(base.representatives)
