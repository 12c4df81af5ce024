"""Tests for the eleven proxy workloads (Table I / Table III structure)."""

import numpy as np
import pytest

from repro.api.registry import workload_registry
from repro.isa.descriptors import ISA
from repro.workloads import vcycles_to_converge
from repro.workloads.registry import (
    ACCURATE_APPS,
    EVALUATED_APPS,
    FINE_GRAINED_APPS,
    SINGLE_REGION_APPS,
    TABLE1_ORDER,
    all_apps,
    create,
)

#: Expected 'Total' column of Table III (8-thread configurations).
TABLE3_TOTALS = {
    "AMGMk": 1000,
    "CoMD": 810,
    "graph500": 197,
    "HPCG": 803,
    "LULESH": 9840,
    "MCB": 10,
    "miniFE": 1208,
}


class TestRegistry:
    def test_eleven_applications(self):
        assert len(TABLE1_ORDER) == 11

    def test_table1_names(self):
        assert TABLE1_ORDER == (
            "AMGMk", "CoMD", "graph500", "HPCG", "HPGMG-FV", "LULESH",
            "MCB", "miniFE", "PathFinder", "RSBench", "XSBench",
        )

    def test_create_by_name(self):
        app = create("miniFE")
        assert app.name == "miniFE"

    def test_create_unknown_raises(self):
        with pytest.raises(KeyError, match="unknown workload"):
            create("SPECfp")

    def test_subsets_are_registered(self):
        for group in (EVALUATED_APPS, ACCURATE_APPS, SINGLE_REGION_APPS, FINE_GRAINED_APPS):
            for name in group:
                assert name in TABLE1_ORDER
                assert name in workload_registry

    def test_all_apps_instantiates(self):
        apps = all_apps()
        assert [a.name for a in apps] == list(TABLE1_ORDER)

    def test_metadata_present(self):
        for app in all_apps():
            assert app.description
            assert app.input_args
            assert app.total_ops > 0


class TestBarrierPointTotals:
    @pytest.mark.parametrize("name,total", sorted(TABLE3_TOTALS.items()))
    def test_table3_totals(self, name, total):
        assert create(name).total_barrier_points(threads=8) == total

    @pytest.mark.parametrize("name", SINGLE_REGION_APPS)
    def test_single_region_apps(self, name):
        assert create(name).total_barrier_points(threads=8) == 1

    def test_lulesh_thread_dependence(self):
        lulesh = create("LULESH")
        assert lulesh.total_barrier_points(threads=1) == 9800
        for threads in (2, 4, 8):
            assert lulesh.total_barrier_points(threads=threads) == 9840

    def test_sequences_identical_across_isa_except_hpgmg(self):
        for name in EVALUATED_APPS + SINGLE_REGION_APPS:
            app = create(name)
            x86 = app.program(8, ISA.X86_64)
            arm = app.program(8, ISA.ARMV8)
            assert np.array_equal(x86.sequence, arm.sequence), name

    def test_hpgmg_sequences_differ_across_isa(self):
        app = create("HPGMG-FV")
        x86 = app.program(8, ISA.X86_64)
        arm = app.program(8, ISA.ARMV8)
        assert x86.n_barrier_points != arm.n_barrier_points

    def test_hpgmg_convergence_model(self):
        assert vcycles_to_converge(ISA.X86_64) == 24
        assert vcycles_to_converge(ISA.ARMV8) == 26


class TestWorkloadStructure:
    def test_program_cached(self):
        app = create("HPCG")
        assert app.program(8, ISA.X86_64) is app.program(8, ISA.X86_64)

    def test_invalid_threads(self):
        with pytest.raises(ValueError):
            create("MCB").program(0, ISA.X86_64)

    def test_block_uids_unique_within_app(self):
        for app in all_apps():
            program = app.program(8, ISA.X86_64)
            uids = [
                block.uid for template in program.templates for block in template.blocks
            ]
            assert len(uids) == len(set(uids)), app.name

    def test_minife_matvec_dominates(self):
        # Section VI-C: the matvec region carries ~85% of instructions.
        program = create("miniFE").program(8, ISA.X86_64)
        counts = program.instance_counts()
        shares = {}
        total = 0.0
        for template, count in zip(program.templates, counts, strict=True):
            ops = template.abstract_instructions() * int(count)
            shares[template.name] = ops
            total += ops
        assert shares["sparse_matvec"] / total > 0.8

    def test_graph500_kron_share(self):
        # generate_kronecker_range runs once, ~30% of instructions.
        program = create("graph500").program(8, ISA.X86_64)
        counts = program.instance_counts()
        kron = program.templates[0]
        assert kron.name == "generate_kronecker_range"
        assert counts[0] == 1
        kron_ops = kron.abstract_instructions()
        total = sum(
            t.abstract_instructions() * int(c)
            for t, c in zip(program.templates, counts, strict=True)
        )
        assert 0.2 < kron_ops / total < 0.4

    def test_lulesh_regions_are_tiny(self):
        # "Many of the barrier points correspond to the execution of
        # less than 100,000 instructions."
        program = create("LULESH").program(8, ISA.X86_64)
        counts = program.instance_counts()
        tiny = 0
        total = 0
        for template, count in zip(program.templates, counts, strict=True):
            total += int(count)
            if template.abstract_instructions() < 100_000:
                tiny += int(count)
        assert tiny / total > 0.9

    def test_mcb_drift_configured(self):
        program = create("MCB").program(8, ISA.X86_64)
        drift = program.templates[0].drift
        assert drift.hot_decay > 0
        assert drift.footprint_slope > 0
