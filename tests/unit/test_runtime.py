"""Tests for the OpenMP runtime model."""

import numpy as np
import pytest

from repro.ir.program import Program
from repro.isa.descriptors import ISA, BinaryConfig
from repro.runtime.barriers import SPIN_IPC, SPIN_WINDOW_CYCLES, barrier_spin
from repro.runtime.execution import execute_program
from repro.runtime.interleave import signature_jitter_sigma
from repro.runtime.scheduler import thread_shares


class TestThreadShares:
    def test_rows_sum_to_one(self):
        gen = np.random.default_rng(0)
        shares = thread_shares(50, 8, 0.2, gen)
        assert shares.shape == (50, 8)
        assert np.allclose(shares.sum(axis=1), 1.0)

    def test_zero_imbalance_is_uniform(self):
        gen = np.random.default_rng(0)
        shares = thread_shares(3, 4, 0.0, gen)
        assert np.allclose(shares, 0.25)

    def test_single_thread_gets_everything(self):
        gen = np.random.default_rng(0)
        shares = thread_shares(3, 1, 0.5, gen)
        assert np.allclose(shares, 1.0)

    def test_imbalance_spreads_shares(self):
        gen = np.random.default_rng(0)
        shares = thread_shares(200, 4, 0.3, gen)
        assert shares.std() > 0.01

    def test_negative_imbalance_rejected(self):
        with pytest.raises(ValueError):
            thread_shares(1, 2, -0.1, np.random.default_rng(0))


class TestBarrierSpin:
    def test_slowest_thread_never_spins(self):
        busy = np.array([[100.0, 300.0, 200.0]])
        spin_cycles, _ = barrier_spin(busy)
        assert spin_cycles[0, 1] == 0.0

    def test_wait_equals_gap_when_below_window(self):
        busy = np.array([[100.0, 300.0]])
        spin_cycles, spin_instr = barrier_spin(busy)
        assert spin_cycles[0, 0] == pytest.approx(200.0)
        assert spin_instr[0, 0] == pytest.approx(200.0 * SPIN_IPC)

    def test_window_caps_counted_spin(self):
        busy = np.array([[0.0, 10 * SPIN_WINDOW_CYCLES]])
        spin_cycles, _ = barrier_spin(busy)
        assert spin_cycles[0, 0] == SPIN_WINDOW_CYCLES

    def test_balanced_regions_do_not_spin(self):
        busy = np.full((5, 4), 123.0)
        spin_cycles, spin_instr = barrier_spin(busy)
        assert np.all(spin_cycles == 0)
        assert np.all(spin_instr == 0)


class TestSignatureJitter:
    def test_smaller_regions_jitter_more(self):
        sig = signature_jitter_sigma(np.array([1e4, 1e6, 1e8]), threads=1)
        assert sig[0] > sig[1] > sig[2]

    def test_more_threads_jitter_more(self):
        one = signature_jitter_sigma(np.array([1e6]), threads=1)
        eight = signature_jitter_sigma(np.array([1e6]), threads=8)
        assert eight[0] > one[0]

    def test_clamped(self):
        sig = signature_jitter_sigma(np.array([1.0]), threads=8)
        assert sig[0] <= 0.35

    def test_invalid_threads(self):
        with pytest.raises(ValueError):
            signature_jitter_sigma(np.array([1e6]), threads=0)


class TestExecuteProgram:
    def test_trace_shape(self, toy_program, rng_tree):
        trace = execute_program(
            toy_program, BinaryConfig(ISA.X86_64, False), 4, rng_tree
        )
        assert trace.n_barrier_points == toy_program.n_barrier_points
        assert trace.threads == 4
        assert trace.template_traces[0].iters.shape == (15, 1, 4)

    def test_structural_determinism_across_binaries(self, toy_program, rng_tree):
        x86 = execute_program(toy_program, BinaryConfig(ISA.X86_64, False), 4, rng_tree)
        arm = execute_program(toy_program, BinaryConfig(ISA.ARMV8, True), 4, rng_tree)
        for a, b in zip(x86.template_traces, arm.template_traces, strict=True):
            assert np.array_equal(a.iters, b.iters)
            assert np.array_equal(a.footprint_scale, b.footprint_scale)

    def test_work_conserved_across_thread_counts(self, toy_program, rng_tree):
        binary = BinaryConfig(ISA.X86_64, False)
        t1 = execute_program(toy_program, binary, 1, rng_tree)
        t8 = execute_program(toy_program, binary, 8, rng_tree)
        total_1 = sum(t.iters.sum() for t in t1.template_traces)
        total_8 = sum(t.iters.sum() for t in t8.template_traces)
        assert total_1 == pytest.approx(total_8, rel=1e-9)

    def test_serial_region_runs_on_thread_zero(self, rng_tree, simple_mix, stream_pattern):
        from repro.ir.blocks import BasicBlock
        from repro.ir.regions import RegionTemplate

        block = BasicBlock("s/serial/b", "b", simple_mix, stream_pattern)
        serial = RegionTemplate("serial", (block,), (100.0,), parallel=False)
        program = Program("s", (serial,), np.zeros(3, dtype=int))
        trace = execute_program(program, BinaryConfig(ISA.X86_64, False), 4, rng_tree)
        iters = trace.template_traces[0].iters
        assert np.all(iters[:, :, 1:] == 0)
        assert np.all(iters[:, :, 0] > 0)

    def test_drift_applied_to_footprint(self, toy_program, rng_tree):
        trace = execute_program(toy_program, BinaryConfig(ISA.X86_64, False), 2, rng_tree)
        fp = trace.template_traces[0].footprint_scale
        assert fp[-1] == pytest.approx(1.3)  # slope 0.3 at phase 1

    def test_invalid_thread_count(self, toy_program, rng_tree):
        with pytest.raises(ValueError):
            execute_program(toy_program, BinaryConfig(ISA.X86_64, False), 0, rng_tree)


class TestTraceAccessors:
    def test_gather_instance_values_roundtrip(self, toy_program, rng_tree):
        trace = execute_program(toy_program, BinaryConfig(ISA.X86_64, False), 2, rng_tree)
        per_template = [
            np.arange(t.n_instances, dtype=float) for t in trace.template_traces
        ]
        gathered = trace.gather_instance_values(per_template)
        assert gathered.shape == (30,)
        assert gathered[0] == 0.0  # first instance of template 0
        assert gathered[1] == 0.0  # first instance of template 1
        assert gathered[2] == 1.0  # second instance of template 0
