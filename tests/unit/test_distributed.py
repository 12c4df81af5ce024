"""Unit tests: the distributed-memory rank model.

Covers the communication IR (events, schedules, boundary alignment),
the analytic network model, hybrid ranks × threads placement, the
coalesced distributed trace, the rank-aware performance model, and the
rank-major signature coalescing layout.
"""

import numpy as np
import pytest

from repro.core.signatures import build_signatures
from repro.hw.machines import APM_XGENE, INTEL_I7_3770
from repro.hw.network import NetworkSpec
from repro.hw.perf import PerfModel
from repro.hw.pmu import CYCLES, INSTRUCTIONS, N_METRICS
from repro.instrumentation.collector import DiscoveryObservation, Nonzeros
from repro.ir.comm import CommEvent, CommKind, CommSchedule, ring_exchange
from repro.isa.descriptors import ISA, BinaryConfig
from repro.runtime.distributed import execute_distributed
from repro.util.rng import RngTree
from repro.workloads.distributed import (
    DistributedWorkload,
    default_comm_schedule,
    halo_bytes,
)
from repro.workloads.registry import create

SCALAR_X86 = BinaryConfig(ISA.X86_64, False)


def _program(app="MCB", threads=2):
    return create(app).program(threads, ISA.X86_64)


class TestCommSchedule:
    def test_events_sorted_by_position(self):
        schedule = CommSchedule(
            n_ranks=2,
            events=(
                CommEvent(CommKind.ALLREDUCE, position=5),
                CommEvent(CommKind.BROADCAST, position=0),
            ),
        )
        assert [e.position for e in schedule.events] == [0, 5]

    def test_send_validation(self):
        with pytest.raises(ValueError, match="endpoints must differ"):
            CommEvent(CommKind.SEND, position=0, src=1, dst=1)
        with pytest.raises(ValueError, match="src and dst"):
            CommEvent(CommKind.SEND, position=0, src=0, dst=-1)
        with pytest.raises(ValueError, match="outside"):
            CommSchedule(
                n_ranks=2,
                events=(CommEvent(CommKind.SEND, position=0, src=0, dst=5),),
            )

    def test_positions_validated_against_program(self):
        schedule = CommSchedule(
            n_ranks=2, events=(CommEvent(CommKind.ALLREDUCE, position=99),)
        )
        with pytest.raises(ValueError, match="only 10 barrier points"):
            schedule.validate_positions(10)

    def test_collective_positions_identical_for_every_rank(self):
        schedule = CommSchedule(
            n_ranks=4,
            events=(
                CommEvent(CommKind.BROADCAST, position=0),
                CommEvent(CommKind.SEND, position=3, src=0, dst=1),
                CommEvent(CommKind.ALLREDUCE, position=7),
            ),
        )
        collectives = schedule.collective_positions()
        assert collectives == (0, 7)
        for rank in range(4):
            assert set(collectives) <= set(schedule.rank_boundaries(rank))
        # The SEND couples only its endpoints.
        assert 3 in schedule.rank_boundaries(0)
        assert 3 in schedule.rank_boundaries(1)
        assert 3 not in schedule.rank_boundaries(2)

    def test_ring_exchange(self):
        assert ring_exchange(0, 1, 64.0) == []
        events = ring_exchange(2, 4, 64.0)
        assert len(events) == 4
        assert {(e.src, e.dst) for e in events} == {(0, 1), (1, 2), (2, 3), (3, 0)}


class TestNetworkSpec:
    def test_p2p_alpha_beta(self):
        net = NetworkSpec(latency_cycles=1000.0, bytes_per_cycle=2.0)
        assert net.p2p_cycles(0.0) == 1000.0
        assert net.p2p_cycles(2000.0) == 2000.0

    def test_collective_tree_rounds(self):
        net = NetworkSpec(latency_cycles=1000.0, bytes_per_cycle=2.0)
        assert net.collective_cycles(0.0, 1) == 0.0
        assert net.collective_cycles(0.0, 2) == 1000.0
        assert net.collective_cycles(0.0, 8) == 3000.0
        assert net.collective_cycles(0.0, 5) == 3000.0  # ceil(log2 5) = 3

    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkSpec(latency_cycles=-1.0)
        with pytest.raises(ValueError):
            NetworkSpec(bytes_per_cycle=0.0)
        with pytest.raises(ValueError):
            NetworkSpec().collective_cycles(8.0, 0)

    def test_every_builtin_machine_has_a_network(self):
        from repro.hw.machines import ARMV8_IN_ORDER

        for machine in (INTEL_I7_3770, APM_XGENE, ARMV8_IN_ORDER):
            assert machine.network.p2p_cycles(64.0) > 0


class TestHybridPlacement:
    def test_tiles_node_placement_across_ranks(self):
        node = INTEL_I7_3770.placement(2)
        hybrid = INTEL_I7_3770.hybrid_placement(3, 2)
        assert hybrid.threads == 6
        for rank in range(3):
            cols = slice(rank * 2, (rank + 1) * 2)
            np.testing.assert_array_equal(
                hybrid.core[cols], node.core + rank * INTEL_I7_3770.cores
            )
            np.testing.assert_array_equal(hybrid.l1_sharers[cols], node.l1_sharers)
            np.testing.assert_array_equal(hybrid.l2_sharers[cols], node.l2_sharers)

    def test_no_sharing_across_rank_boundaries(self):
        hybrid = APM_XGENE.hybrid_placement(4, 8)
        # Every rank's cores live in a disjoint node-index range.
        for rank in range(4):
            cols = slice(rank * 8, (rank + 1) * 8)
            cores = hybrid.core[cols]
            assert cores.min() >= rank * APM_XGENE.cores
            assert cores.max() < (rank + 1) * APM_XGENE.cores

    def test_single_rank_matches_shared_memory_placement(self):
        single = INTEL_I7_3770.placement(5)
        hybrid = INTEL_I7_3770.hybrid_placement(1, 5)
        np.testing.assert_array_equal(single.core, hybrid.core)
        np.testing.assert_array_equal(single.l1_sharers, hybrid.l1_sharers)

    def test_validation(self):
        with pytest.raises(ValueError, match="ranks must be >= 1"):
            INTEL_I7_3770.hybrid_placement(0, 2)
        with pytest.raises(ValueError, match="hardware contexts"):
            INTEL_I7_3770.hybrid_placement(2, 16)
        assert INTEL_I7_3770.supports_hybrid(64, 8)
        assert not INTEL_I7_3770.supports_hybrid(2, 9)


class TestExecuteDistributed:
    def test_coalesced_shape_and_alignment(self):
        program = _program()
        rng = RngTree(7)
        trace = execute_distributed(program, SCALAR_X86, 4, 2, rng.child("s"))
        assert trace.ranks == 4
        assert trace.threads == 8
        assert trace.threads_per_rank == 2
        assert trace.n_barrier_points == program.n_barrier_points
        np.testing.assert_array_equal(trace.bp_template, program.sequence)
        for template_trace, _template in zip(
            trace.template_traces, program.templates, strict=True
        ):
            assert template_trace.iters.shape[2] == 8
        for rank in range(4):
            assert trace.rank_trace(rank).threads == 2
            np.testing.assert_array_equal(
                trace.rank_trace(rank).bp_template, trace.bp_template
            )

    def test_parallel_work_is_decomposed_serial_replicated(self):
        program = _program("HPCG")
        rng = RngTree(7)
        one = execute_distributed(program, SCALAR_X86, 1, 2, rng.child("s"))
        four = execute_distributed(program, SCALAR_X86, 4, 2, rng.child("s"))
        for template, tt_one, tt_four in zip(
            program.templates, one.template_traces, four.template_traces, strict=True
        ):
            if tt_one.n_instances == 0:
                continue
            total_one = tt_one.iters.sum()
            total_four = tt_four.iters.sum()
            if template.parallel:
                # Strong scaling: the whole job does the same total work
                # (up to per-rank lognormal variation).
                assert total_four == pytest.approx(total_one, rel=0.2)
            else:
                # Serial regions replicate per rank (the Amdahl term).
                assert total_four == pytest.approx(4 * total_one, rel=0.2)

    def test_mismatched_schedule_rejected(self):
        program = _program()
        schedule = CommSchedule(n_ranks=2)
        with pytest.raises(ValueError, match="schedule built for 2 ranks"):
            execute_distributed(
                program, SCALAR_X86, 4, 2, RngTree(1).child("s"), comm=schedule
            )

    def test_region_boundaries_identical_on_every_rank(self):
        job = DistributedWorkload("MCB", ranks=4)
        program = job.program(2, ISA.X86_64)
        trace = execute_distributed(
            program, SCALAR_X86, 4, 2, RngTree(1).child("s"),
            comm=job.comm_schedule(2),
        )
        boundaries = trace.region_boundaries(0)
        assert boundaries  # collectives exist
        for rank in range(trace.ranks):
            assert trace.region_boundaries(rank) == boundaries


class TestRankAwarePerfModel:
    def _counters(self, ranks, seed=3, app="MCB", machine=INTEL_I7_3770):
        job = DistributedWorkload(app, ranks=ranks)
        program = job.program(2, machine.isa)
        binary = BinaryConfig(machine.isa, False)
        trace = execute_distributed(
            program, binary, ranks, 2, RngTree(seed).child("s"),
            comm=job.comm_schedule(2, machine.isa),
        )
        model = PerfModel(RngTree(seed).child("u"))
        return model.true_counters(trace, machine)

    def test_counter_shape_covers_all_contexts(self):
        counters = self._counters(4)
        n_bp = counters.n_barrier_points
        assert counters.values.shape == (n_bp, 8, N_METRICS)
        assert counters.comm_cycles.shape == (n_bp, 4)

    def test_single_rank_has_zero_comm(self):
        counters = self._counters(1)
        assert counters.comm_cycles.shape[1] == 1
        assert counters.comm_cycles.sum() == 0.0

    def test_multi_rank_pays_network_cycles(self):
        counters = self._counters(4)
        assert counters.comm_cycles.sum() > 0.0

    def test_collectives_equalise_rank_finish_times(self):
        # At a collective-only position every rank waits for the slowest,
        # so the per-rank cycle maxima agree (up to the shared tree cost).
        program = _program()
        last = program.n_barrier_points - 1
        schedule = CommSchedule(
            n_ranks=4, events=(CommEvent(CommKind.ALLREDUCE, position=last),)
        )
        trace = execute_distributed(
            program, SCALAR_X86, 4, 2, RngTree(5).child("s"), comm=schedule
        )
        counters = PerfModel(RngTree(5).child("u")).true_counters(
            trace, INTEL_I7_3770
        )
        finish = counters.values[last, :, CYCLES].reshape(4, 2).max(axis=1)
        np.testing.assert_allclose(finish, finish[0], rtol=1e-12)

    def test_stacked_collectives_charge_the_lag_once(self):
        # Two collectives at one position synchronise the ranks once:
        # the second adds only its tree cost, not a second arrival wait.
        program = _program()
        last = program.n_barrier_points - 1

        def counters_for(events):
            schedule = CommSchedule(n_ranks=4, events=events)
            trace = execute_distributed(
                program, SCALAR_X86, 4, 2, RngTree(5).child("s"), comm=schedule
            )
            return PerfModel(RngTree(5).child("u")).true_counters(
                trace, INTEL_I7_3770
            )

        single = counters_for((CommEvent(CommKind.ALLREDUCE, position=last),))
        double = counters_for(
            (
                CommEvent(CommKind.ALLREDUCE, position=last),
                CommEvent(CommKind.BROADCAST, position=last),
            )
        )
        tree_cost = INTEL_I7_3770.network.collective_cycles(
            CommEvent(CommKind.BROADCAST, position=last).nbytes, 4
        )
        np.testing.assert_allclose(
            double.comm_cycles[last],
            single.comm_cycles[last] + tree_cost,
            rtol=1e-12,
        )

    def test_poll_instructions_accrue_with_comm(self):
        baseline = self._counters(1)
        distributed = self._counters(4)
        # Per-rank instruction share shrinks with the domain split; the
        # network poll instructions are visible on top of compute.
        assert distributed.values[:, :, INSTRUCTIONS].sum() > 0
        assert distributed.comm_cycles.sum() > baseline.comm_cycles.sum()

    def test_strong_scaling_reduces_wall_cycles(self):
        one = self._counters(1)
        four = self._counters(4)
        wall = lambda c: c.values[:, :, CYCLES].max(axis=1).sum()  # noqa: E731
        assert wall(four) < wall(one) / 2.0

    def test_deterministic_across_identical_runs(self):
        first = self._counters(4, seed=11)
        second = self._counters(4, seed=11)
        np.testing.assert_array_equal(first.values, second.values)
        np.testing.assert_array_equal(first.comm_cycles, second.comm_cycles)


class TestDistributedWorkload:
    def test_name_encodes_ranks(self):
        job = DistributedWorkload("miniFE", ranks=4)
        assert job.name == "miniFE@4ranks"
        assert job.distributed is True
        assert job.base.name == "miniFE"

    def test_accepts_instance_class_and_name(self):
        from repro.workloads.mcb import MCB

        for spec in ("MCB", MCB, MCB()):
            assert DistributedWorkload(spec, ranks=2).base.name == "MCB"

    def test_schedule_layout(self):
        job = DistributedWorkload("miniFE", ranks=4)
        program = job.program(2, ISA.X86_64)
        schedule = job.comm_schedule(2)
        assert schedule.n_ranks == 4
        collectives = schedule.collective_positions()
        # Broadcast opens the job; an allreduce closes it.
        assert collectives[0] == 0
        assert collectives[-1] == program.n_barrier_points - 1
        # Halo SENDs ride along at phase boundaries.
        assert any(e.kind is CommKind.SEND for e in schedule.events)
        # Memoised per (threads, isa).
        assert job.comm_schedule(2) is schedule

    def test_single_rank_schedule_has_no_sends(self):
        job = DistributedWorkload("miniFE", ranks=1)
        schedule = job.comm_schedule(2)
        assert all(e.kind is not CommKind.SEND for e in schedule.events)
        assert schedule.collective_positions()

    def test_halo_bytes_surface_to_volume(self):
        assert halo_bytes(0.0, 4) == 64.0  # cache-line floor
        big = halo_bytes(1e9, 2)
        bigger_split = halo_bytes(1e9, 8)
        assert bigger_split < big  # smaller sub-domain, smaller surface

    def test_default_schedule_positions_valid(self):
        for app in ("PathFinder", "LULESH"):
            program = create(app).program(2, ISA.X86_64)
            schedule = default_comm_schedule(program, 2)
            schedule.validate_positions(program.n_barrier_points)

    def test_validation(self):
        with pytest.raises(ValueError):
            DistributedWorkload("MCB", ranks=0)
        with pytest.raises(ValueError):
            DistributedWorkload("MCB", ranks=2, phases=0)


class TestCoalesceSignatures:
    @staticmethod
    def _observation(bbv_row, ldv_row, weight, n_bp=3):
        return DiscoveryObservation(
            bbv=Nonzeros.of(np.tile(np.asarray(bbv_row, dtype=float), (n_bp, 1))),
            ldv=Nonzeros.of(np.tile(np.asarray(ldv_row, dtype=float), (n_bp, 1))),
            weights=np.full(n_bp, float(weight)),
            run_index=0,
        )

    def test_rank_major_layout(self):
        ranks = [self._observation([1, 3], [1, 1], 1), self._observation([3, 1], [0, 2], 2)]
        merged = build_signatures(ranks)
        assert merged.shape == (3, 8)
        assert merged.bbv_dims == 4 and merged.ldv_dims == 4
        # [bbv(rank0) | bbv(rank1) | ldv(rank0) | ldv(rank1)], each
        # rank's half row-normalised on its own.
        np.testing.assert_array_equal(
            merged.rows(0, 1)[0], [0.125, 0.375, 0.375, 0.125, 0.25, 0.25, 0.0, 0.5]
        )
        np.testing.assert_array_equal(merged.weights, [3, 3, 3])

    def test_single_rank_is_identity(self):
        gen = np.random.default_rng(5)
        bbv, ldv = gen.random((4, 3)), gen.random((4, 2))
        ldv[1] = 0.0
        one = DiscoveryObservation(
            bbv=Nonzeros.of(bbv), ldv=Nonzeros.of(ldv), weights=gen.random(4), run_index=0
        )
        sig = build_signatures([one], bbv_weight=0.3)
        ldv_totals = ldv.sum(axis=1, keepdims=True)
        expected = np.hstack([
            bbv / bbv.sum(axis=1, keepdims=True) * 0.3,
            ldv / np.where(ldv_totals > 0, ldv_totals, 1.0) * (1.0 - 0.3),
        ])
        assert sig.rows(0, 4).tobytes() == expected.tobytes()
        assert sig.weights is one.weights
        assert (sig.bbv_dims, sig.ldv_dims) == (3, 2)

    def test_misaligned_ranks_rejected(self):
        rank0 = self._observation([1, 3], [1, 1], 1)
        with pytest.raises(ValueError, match="misaligned"):
            build_signatures([rank0, self._observation([1, 3], [1, 1], 1, n_bp=4)])
        with pytest.raises(ValueError, match="misaligned"):
            build_signatures([rank0, self._observation([1, 3, 1], [1, 1], 1)])
        with pytest.raises(ValueError, match="at least one"):
            build_signatures([])
