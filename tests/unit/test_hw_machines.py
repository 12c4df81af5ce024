"""Tests for machine descriptors, PMU noise and overhead models."""

import numpy as np
import pytest

from repro.hw.machines import APM_XGENE, INTEL_I7_3770, machine_for
from repro.hw.overhead import DEFAULT_OVERHEAD, InstrumentationOverhead
from repro.hw.pmu import N_METRICS, PmuNoiseSpec
from repro.ir.memory import PatternKind
from repro.isa.descriptors import ISA


class TestMachineTopology:
    def test_table2_parameters(self):
        intel = INTEL_I7_3770
        assert intel.freq_ghz == 3.4
        assert intel.cores == 4 and intel.smt_per_core == 2
        assert intel.l1d.size_bytes == 32 * 1024
        assert intel.l2.size_bytes == 256 * 1024
        assert intel.l3.size_bytes == 8 * 1024 * 1024

        xgene = APM_XGENE
        assert xgene.freq_ghz == 2.4
        assert xgene.cores == 8 and xgene.clusters == 4
        assert xgene.l2_shared_by_cluster

    def test_machine_for(self):
        assert machine_for(ISA.X86_64) is INTEL_I7_3770
        assert machine_for(ISA.ARMV8) is APM_XGENE

    def test_intel_smt_sharing(self):
        intel = INTEL_I7_3770
        assert intel.l1_sharers(4) == 1
        assert intel.l1_sharers(8) == 2
        assert intel.l2_sharers(8) == 2
        assert intel.smt_active(8)
        assert not intel.smt_active(4)

    def test_xgene_cluster_sharing(self):
        xgene = APM_XGENE
        assert xgene.l1_sharers(8) == 1  # L1 private always
        assert xgene.l2_sharers(4) == 1  # one thread per cluster
        assert xgene.l2_sharers(8) == 2  # pairs share the cluster L2
        assert not xgene.smt_active(8)

    def test_max_threads_enforced(self):
        with pytest.raises(ValueError):
            INTEL_I7_3770.validate_threads(9)
        with pytest.raises(ValueError):
            APM_XGENE.l1_sharers(16)

    def test_over_capacity_error_is_explicit(self):
        # The scaling sweep renders these as unsupported rows; the error
        # must say what the capacity is and why, not just "got 16".
        with pytest.raises(ValueError, match="8 hardware contexts"):
            INTEL_I7_3770.placement(16)
        with pytest.raises(ValueError, match="scatter-first"):
            APM_XGENE.validate_threads(16)
        assert not INTEL_I7_3770.supports_threads(16)
        assert INTEL_I7_3770.supports_threads(8)
        assert not APM_XGENE.supports_threads(0)

    def test_intel_placement_uniform_widths(self):
        for threads, l1 in ((1, 1), (2, 1), (4, 1), (8, 2)):
            placement = INTEL_I7_3770.placement(threads)
            assert placement.uniform()
            assert set(placement.l1_sharers.tolist()) == {l1}
            assert set(placement.l2_sharers.tolist()) == {l1}

    def test_intel_placement_partial_smt_fill(self):
        # 6 threads scatter-first on 4 cores x 2 SMT: cores 0 and 1
        # host pairs, cores 2 and 3 stay private — sharing must be
        # per-thread, not a blanket factor 2.
        placement = INTEL_I7_3770.placement(6)
        assert not placement.uniform()
        assert placement.core.tolist() == [0, 1, 2, 3, 0, 1]
        assert placement.l1_sharers.tolist() == [2, 2, 1, 1, 2, 2]
        assert placement.smt_corun.tolist() == [True, True, False, False, True, True]
        # The scalar API reports the worst case over the team.
        assert INTEL_I7_3770.l1_sharers(6) == 2
        assert INTEL_I7_3770.l1_sharers(3) == 1

    def test_xgene_placement_scatters_clusters_first(self):
        # 3 threads land on three different clusters: all caches private.
        placement = APM_XGENE.placement(3)
        assert placement.cluster.tolist() == [0, 1, 2]
        assert set(placement.l2_sharers.tolist()) == {1}
        # 6 threads: clusters 0 and 1 host pairs sharing the cluster L2.
        placement = APM_XGENE.placement(6)
        assert placement.cluster.tolist() == [0, 1, 2, 3, 0, 1]
        assert placement.l2_sharers.tolist() == [2, 2, 1, 1, 2, 2]
        assert set(placement.l1_sharers.tolist()) == {1}  # L1 always private
        assert not placement.smt_corun.any()

    def test_placement_covers_ragged_cluster_geometry(self):
        # A third-party registered machine need not divide its cores
        # evenly across clusters; placement must still cover every core
        # (not silently truncate the team to the rectangular part).
        from dataclasses import replace

        ragged = replace(APM_XGENE, name="ragged-6c", cores=6)
        assert ragged.max_threads == 6
        for threads in range(1, 7):
            assert ragged.placement(threads).threads == threads
        placement = ragged.placement(6)
        assert sorted(placement.core.tolist()) == [0, 1, 2, 3, 4, 5]
        # Clusters 0 and 1 hold two cores each; 2 and 3 hold one.
        assert placement.l2_sharers.tolist() == [2, 2, 1, 1, 2, 2]

    def test_placement_every_supported_width(self):
        # Sharer maps must be consistent for every width the sweep can
        # ask for: counts per core/cluster sum back to the team size.
        for machine in (INTEL_I7_3770, APM_XGENE):
            for threads in range(1, machine.max_threads + 1):
                placement = machine.placement(threads)
                assert placement.threads == threads
                assert (placement.l1_sharers >= 1).all()
                assert (placement.l2_sharers >= placement.l1_sharers).all() or (
                    not machine.l2_shared_by_cluster
                )
                # Each thread's sharer count equals its domain's census.
                for i in range(threads):
                    same_core = (placement.core == placement.core[i]).sum()
                    assert placement.l1_sharers[i] == same_core

    def test_memory_penalty_grows_with_threads(self):
        m = INTEL_I7_3770
        assert m.memory_penalty(8) > m.memory_penalty(1)

    def test_table_rows_mention_key_specs(self):
        platform, desc = INTEL_I7_3770.table_row()
        assert platform == "x86_64"
        assert "3.4 GHz" in desc and "32 KiB" in desc and "8 MiB" in desc
        platform, desc = APM_XGENE.table_row()
        assert platform == "ARMv8"
        assert "4 clusters x 2 cores" in desc

    def test_xgene_l1_undercounts_streams_only(self):
        l1 = APM_XGENE.l1d
        assert l1.capture_rate(PatternKind.STREAM) < 0.2
        assert l1.capture_rate(PatternKind.RANDOM) == 1.0
        assert INTEL_I7_3770.l1d.capture_rate(PatternKind.STREAM) == 1.0


class TestNumaPlacement:
    """nodes / numa_distance topology extension (ingested machines)."""

    def _two_node_xgene(self):
        from dataclasses import replace

        return replace(APM_XGENE, name="xgene-2node", nodes=2)

    def test_builtins_are_single_node(self):
        assert INTEL_I7_3770.nodes == 1
        assert INTEL_I7_3770.numa_distance is None
        placement = INTEL_I7_3770.placement(8)
        assert set(placement.node.tolist()) == {0}
        # Single node: the whole team shares the one L3 domain.
        assert placement.l3_sharers.tolist() == [8] * 8
        assert INTEL_I7_3770.l3_sharers(8) == 8

    def test_two_node_machine_scatters_nodes_first(self):
        m = self._two_node_xgene()
        # Clusters alternate across nodes: cluster k sits on node k % 2.
        placement = m.placement(4)
        assert placement.cluster.tolist() == [0, 1, 2, 3]
        assert placement.node.tolist() == [0, 1, 0, 1]
        assert placement.l3_sharers.tolist() == [2, 2, 2, 2]
        # Width 2 lands on two different nodes: fully private L3.
        assert m.placement(2).node.tolist() == [0, 1]
        assert m.l3_sharers(2) == 1
        assert m.l3_sharers(8) == 4  # worst-case node census

    def test_exact_capacity_boundary(self):
        m = self._two_node_xgene()
        placement = m.placement(m.max_threads)
        assert placement.threads == 8
        assert np.bincount(placement.node).tolist() == [4, 4]

    def test_over_capacity_error_names_machine_width_capacity(self):
        m = self._two_node_xgene()
        with pytest.raises(ValueError) as exc:
            m.placement(m.max_threads + 1)
        message = str(exc.value)
        assert "xgene-2node" in message
        assert "8 hardware contexts" in message
        assert "a team of 9" in message
        assert "use 1..8 threads" in message
        assert "across 2 NUMA nodes" in message

    def test_single_node_error_omits_numa_clause(self):
        with pytest.raises(ValueError) as exc:
            INTEL_I7_3770.placement(9)
        message = str(exc.value)
        assert "INTEL_I7_3770" in message or INTEL_I7_3770.name in message
        assert "NUMA" not in message

    def test_zero_and_negative_widths_rejected(self):
        for bad in (0, -1):
            with pytest.raises(ValueError, match="a team of " + str(bad)):
                INTEL_I7_3770.placement(bad)

    def test_nodes_bounds_validated(self):
        from dataclasses import replace

        with pytest.raises(ValueError, match=r"nodes must be in 1\.\.clusters"):
            replace(APM_XGENE, nodes=5)
        with pytest.raises(ValueError, match="nodes must be in"):
            replace(APM_XGENE, nodes=0)

    def test_numa_distance_shape_validated(self):
        from dataclasses import replace

        with pytest.raises(ValueError, match="2x2 matrix"):
            replace(APM_XGENE, nodes=2, numa_distance=((10.0, 21.0),))
        with pytest.raises(ValueError, match="must be positive"):
            replace(APM_XGENE, nodes=2, numa_distance=((10.0, -1.0), (21.0, 10.0)))
        with pytest.raises(ValueError, match="cannot be closer"):
            replace(APM_XGENE, nodes=2, numa_distance=((10.0, 9.0), (21.0, 10.0)))
        ok = replace(APM_XGENE, nodes=2, numa_distance=((10.0, 21.0), (21.0, 10.0)))
        assert ok.numa_distance == ((10.0, 21.0), (21.0, 10.0))

    def test_node_memory_penalty_per_census(self):
        m = self._two_node_xgene()
        # Penalty is per node-local sharer count, not team width.
        assert m.node_memory_penalty(1) == m.memory_penalty(1)
        assert m.node_memory_penalty(4) > m.node_memory_penalty(2)
        with pytest.raises(ValueError, match="xgene-2node"):
            m.node_memory_penalty(0)

    def test_hybrid_placement_offsets_nodes_per_rank(self):
        m = self._two_node_xgene()
        hybrid = m.hybrid_placement(ranks=2, threads=2)
        # Rank r occupies virtual nodes r*nodes .. r*nodes+nodes-1.
        assert hybrid.node.tolist() == [0, 1, 2, 3]
        assert (hybrid.l3_sharers >= 1).all()

    def test_validate_hybrid_error_names_machine(self):
        with pytest.raises(ValueError, match=APM_XGENE.name):
            APM_XGENE.validate_hybrid(ranks=0, threads=1)


class TestPmuNoise:
    def setup_method(self):
        self.spec = PmuNoiseSpec(
            sigma_rel=(0.01, 0.01, 0.01, 0.01),
            sigma_abs=(100.0, 100.0, 100.0, 100.0),
            interference_slope=0.1,
            unpinned_factor=3.0,
        )

    def test_sigma_shape(self):
        true = np.ones((5, 2, N_METRICS)) * 1e6
        sigma = self.spec.read_sigma(true, threads=1, pinned=True)
        assert sigma.shape == true.shape

    def test_relative_term_dominates_large_counts(self):
        true = np.full((1, N_METRICS), 1e9)
        sigma = self.spec.read_sigma(true, 1, True)
        assert sigma[0, 0] == pytest.approx(1e7, rel=0.01)

    def test_absolute_term_dominates_small_counts(self):
        true = np.full((1, N_METRICS), 10.0)
        sigma = self.spec.read_sigma(true, 1, True)
        assert sigma[0, 0] == pytest.approx(100.0, rel=0.01)

    def test_unpinned_triples_relative_noise(self):
        true = np.full((1, N_METRICS), 1e9)
        pinned = self.spec.read_sigma(true, 1, True)
        unpinned = self.spec.read_sigma(true, 1, False)
        assert unpinned[0, 0] == pytest.approx(3 * pinned[0, 0], rel=0.01)

    def test_interference_grows_with_threads(self):
        true = np.full((1, N_METRICS), 1e9)
        one = self.spec.read_sigma(true, 1, True)
        eight = self.spec.read_sigma(true, 8, True)
        assert eight[0, 0] > one[0, 0]

    def test_cv_blows_up_for_tiny_counts(self):
        # The CoMD-on-ARM effect: tiny counts, huge CV.
        tiny = np.full((1, N_METRICS), 150.0)
        cv = self.spec.coefficient_of_variation(tiny, 1, True)
        assert cv[0, 0] > 0.5

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            PmuNoiseSpec(sigma_rel=(0.1,), sigma_abs=(1.0,))


class TestOverhead:
    def test_per_read_vector_order(self):
        ovh = InstrumentationOverhead(cycles=1, instructions=2, l1d_misses=3, l2d_misses=4)
        assert list(ovh.per_read()) == [1, 2, 3, 4]

    def test_apply_adds_reads(self):
        true = np.zeros((2, N_METRICS))
        biased = DEFAULT_OVERHEAD.apply(true, reads=2.0)
        assert np.allclose(biased, 2.0 * DEFAULT_OVERHEAD.per_read())

    def test_overhead_share_shrinks_with_region_size(self):
        small = np.full((1, N_METRICS), 1e5)
        large = np.full((1, N_METRICS), 1e9)
        rel_small = (DEFAULT_OVERHEAD.apply(small) - small) / small
        rel_large = (DEFAULT_OVERHEAD.apply(large) - large) / large
        assert np.all(rel_small > rel_large)

    def test_negative_overhead_rejected(self):
        with pytest.raises(ValueError):
            InstrumentationOverhead(cycles=-1)
