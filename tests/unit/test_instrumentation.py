"""Tests for the Pintool-equivalent instrumentation layer."""

import numpy as np
import pytest

from repro.hw.machines import INTEL_I7_3770
from repro.hw.perf import PerfModel
from repro.instrumentation.bbv import collect_bbv
from repro.instrumentation.collector import BarrierPointCollector
from repro.instrumentation.ldv import collect_ldv
from repro.instrumentation.roi import mark_roi
from repro.isa.descriptors import ISA, BinaryConfig
from repro.mem.ldv import N_DISTANCE_BINS
from repro.runtime.execution import execute_program
from repro.runtime.interleave import signature_jitter_sigma


@pytest.fixture
def trace(toy_program, rng_tree):
    return execute_program(
        toy_program, BinaryConfig(ISA.X86_64, False), 2, rng_tree.child("structure")
    )


@pytest.fixture
def counters(trace, rng_tree):
    return PerfModel(rng_tree.child("uarch")).true_counters(trace, INTEL_I7_3770)


class TestBbv:
    def test_per_thread_dimensions(self, trace):
        bbv = collect_bbv(trace, per_thread=True)
        assert bbv.shape == (30, trace.n_blocks_total * trace.threads)

    def test_aggregate_dimensions(self, trace):
        bbv = collect_bbv(trace, per_thread=False)
        assert bbv.shape == (30, trace.n_blocks_total)

    def test_rows_positive_for_their_template_only(self, trace):
        bbv = collect_bbv(trace, per_thread=False)
        alpha_rows = bbv[trace.bp_template == 0]
        assert np.all(alpha_rows[:, 0] > 0)
        assert np.all(alpha_rows[:, 1] == 0)

    def test_vectorised_binary_changes_bbv(self, toy_program, rng_tree):
        structure = rng_tree.child("structure")
        scalar = execute_program(toy_program, BinaryConfig(ISA.X86_64, False), 2, structure)
        vector = execute_program(toy_program, BinaryConfig(ISA.X86_64, True), 2, structure)
        assert collect_bbv(scalar).sum() > collect_bbv(vector).sum()


class TestLdv:
    def test_per_thread_dimensions(self, trace):
        ldv = collect_ldv(trace, per_thread=True)
        assert ldv.shape == (30, N_DISTANCE_BINS * trace.threads)

    def test_access_counts_conserved(self, trace):
        ldv = collect_ldv(trace, per_thread=False)
        expected = 0.0
        for template, ttrace in zip(trace.program.templates, trace.template_traces, strict=True):
            for b_idx, block in enumerate(template.blocks):
                expected += (
                    ttrace.iters[:, b_idx, :].sum() * block.mix.memory_accesses
                )
        assert ldv.sum() == pytest.approx(expected, rel=1e-9)

    def test_footprint_drift_visible(self, trace):
        ldv = collect_ldv(trace, per_thread=False)
        alpha = np.flatnonzero(trace.bp_template == 0)
        first = ldv[alpha[0]] / ldv[alpha[0]].sum()
        # The toy program's alpha template has footprint_slope 0.3; the
        # drift may or may not cross a bin boundary, so just require the
        # rows to be valid distributions.
        assert first.sum() == pytest.approx(1.0)


class TestRoi:
    def test_mark_roi_slices_sequence(self, toy_program):
        roi = mark_roi(toy_program, 4, 10)
        assert roi.n_barrier_points == 6
        assert np.array_equal(roi.sequence, toy_program.sequence[4:10])

    def test_invalid_bounds(self, toy_program):
        with pytest.raises(ValueError):
            mark_roi(toy_program, 10, 4)
        with pytest.raises(ValueError):
            mark_roi(toy_program, 0, 1000)


class TestCollector:
    def test_observation_shapes(self, trace, counters, rng_tree):
        collector = BarrierPointCollector(rng_tree.child("d"))
        obs = collector.collect(trace, counters, run_index=0)
        assert obs.n_barrier_points == 30
        assert obs.bbv.shape[0] == 30
        assert obs.ldv.shape[0] == 30
        assert obs.weights.shape == (30,)

    def test_weights_are_exact_instructions(self, trace, counters, rng_tree):
        collector = BarrierPointCollector(rng_tree.child("d"))
        obs = collector.collect(trace, counters, run_index=0)
        assert np.allclose(obs.weights, counters.bp_instructions())

    def test_runs_differ(self, trace, counters, rng_tree):
        collector = BarrierPointCollector(rng_tree.child("d"))
        a = collector.collect(trace, counters, run_index=0)
        b = collector.collect(trace, counters, run_index=1)
        assert not np.allclose(a.bbv, b.bbv)
        assert not np.allclose(a.ldv, b.ldv)

    def test_same_run_reproducible(self, trace, counters, rng_tree):
        collector = BarrierPointCollector(rng_tree.child("d"))
        a = collector.collect(trace, counters, run_index=3)
        b = collector.collect(trace, counters, run_index=3)
        assert np.allclose(a.bbv, b.bbv)

    def test_collect_is_the_per_run_expression(self, trace, counters, rng_tree):
        obs = BarrierPointCollector(rng_tree.child("d")).collect(trace, counters, run_index=2)
        gen = rng_tree.child("d").generator("run", 2)
        sigma = signature_jitter_sigma(counters.bp_instructions(), trace.threads)
        bbv = collect_bbv(trace)
        bbv = bbv * np.exp(sigma[:, None] * gen.standard_normal(bbv.shape))
        ldv = collect_ldv(trace)
        ldv = ldv * np.exp(sigma[:, None] * gen.standard_normal(ldv.shape))
        assert np.array_equal(obs.bbv, bbv)
        assert np.array_equal(obs.ldv, ldv)

    def test_jitter_is_relative(self, trace, counters, rng_tree):
        collector = BarrierPointCollector(rng_tree.child("d"))
        obs = collector.collect(trace, counters, run_index=0)
        clean = collect_bbv(trace)
        ratio = obs.bbv[clean > 0] / clean[clean > 0]
        assert 0.5 < ratio.min() and ratio.max() < 2.0
