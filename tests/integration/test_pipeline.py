"""Integration tests: the full BarrierPoint pipeline on real workloads."""

import numpy as np
import pytest

from repro.api import PipelineConfig, StagePipeline
from repro.core.errors import CrossArchitectureMismatch
from repro.hw.measure import MeasurementProtocol
from repro.isa.descriptors import ISA
from repro.workloads.registry import create

FAST = PipelineConfig(
    discovery_runs=2, protocol=MeasurementProtocol(repetitions=5)
)


@pytest.fixture(scope="module")
def minife_pipeline():
    pipeline = StagePipeline(create("miniFE"), threads=4, config=FAST)
    selections = pipeline.discover()
    return pipeline, selections


class TestDiscovery:
    def test_one_selection_per_run(self, minife_pipeline):
        _, selections = minife_pipeline
        assert len(selections) == 2

    def test_selection_covers_all_barrier_points(self, minife_pipeline):
        _, selections = minife_pipeline
        for s in selections:
            assert s.n_barrier_points == 1208
            assert s.rep_weights.shape == (s.k,)

    def test_selection_is_small_subset(self, minife_pipeline):
        _, selections = minife_pipeline
        for s in selections:
            assert 2 <= s.k <= 20
            assert s.selected_instruction_fraction < 0.1

    def test_multipliers_positive(self, minife_pipeline):
        _, selections = minife_pipeline
        for s in selections:
            assert np.all(s.multipliers > 0)

    def test_discovery_deterministic(self):
        a = StagePipeline(create("MCB"), threads=2, config=FAST).discover()
        b = StagePipeline(create("MCB"), threads=2, config=FAST).discover()
        assert [list(s.representatives) for s in a] == [
            list(s.representatives) for s in b
        ]


class TestEvaluation:
    def test_x86_estimate_accurate(self, minife_pipeline):
        pipeline, selections = minife_pipeline
        result = pipeline.evaluate(selections[0], ISA.X86_64)
        assert result.label == "x86_64"
        assert result.report.error_pct("instructions") < 5.0
        assert result.report.error_pct("cycles") < 5.0

    def test_arm_estimate_accurate(self, minife_pipeline):
        pipeline, selections = minife_pipeline
        result = pipeline.evaluate(selections[0], ISA.ARMV8)
        assert result.label == "ARMv8"
        assert result.report.error_pct("cycles") < 6.0

    def test_vectorised_pipeline(self):
        pipeline = StagePipeline(
            create("miniFE"), threads=4, vectorised=True, config=FAST
        )
        selections = pipeline.discover()
        result = pipeline.evaluate(selections[0], ISA.ARMV8)
        assert result.label == "ARMv8-vect"
        assert result.report.error_pct("cycles") < 8.0

    def test_evaluate_many_matches_single(self, minife_pipeline):
        pipeline, selections = minife_pipeline
        many = pipeline.evaluate_many(selections, ISA.X86_64)
        single = pipeline.evaluate(selections[1], ISA.X86_64)
        assert many[1].report.error_mean == pytest.approx(single.report.error_mean)

    def test_hpgmg_cross_arch_mismatch(self):
        pipeline = StagePipeline(create("HPGMG-FV"), threads=4, config=FAST)
        selections = pipeline.discover()
        pipeline.evaluate(selections[0], ISA.X86_64)  # same-ISA fine
        with pytest.raises(CrossArchitectureMismatch, match="parallel sections"):
            pipeline.evaluate(selections[0], ISA.ARMV8)

    def test_single_region_app_trivial_selection(self):
        pipeline = StagePipeline(create("XSBench"), threads=4, config=FAST)
        selections = pipeline.discover()
        assert selections[0].k == 1
        assert selections[0].selected_instruction_fraction == pytest.approx(1.0)
        assert not selections[0].offers_gain
        result = pipeline.evaluate(selections[0], ISA.ARMV8)
        # One barrier point representing itself: near-noise-level error.
        assert result.report.error_pct("instructions") < 2.0


class TestTraceConsistency:
    def test_same_structure_across_isas(self, minife_pipeline):
        pipeline, _ = minife_pipeline
        x86 = pipeline.trace(ISA.X86_64)
        arm = pipeline.trace(ISA.ARMV8)
        assert np.array_equal(x86.bp_template, arm.bp_template)
        for a, b in zip(x86.template_traces, arm.template_traces, strict=True):
            assert np.array_equal(a.iters, b.iters)

    def test_counters_cached(self, minife_pipeline):
        pipeline, _ = minife_pipeline
        assert pipeline.counters(ISA.X86_64) is pipeline.counters(ISA.X86_64)
