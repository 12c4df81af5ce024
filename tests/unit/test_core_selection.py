"""Tests for signatures, selection, reconstruction and validation."""

from dataclasses import replace

import numpy as np
import pytest

from repro.clustering.simpoint import run_simpoint
from repro.core.reconstruction import reconstruct_per_rep, reconstruct_totals
from repro.core.selection import BarrierPointSelection, select_barrier_points
from repro.core.signatures import build_signatures
from repro.core.validation import validate_estimate
from repro.hw.pmu import PMU_METRICS
from repro.instrumentation.collector import DiscoveryObservation, Nonzeros


def _observation(n=20, seed=0):
    gen = np.random.default_rng(seed)
    bbv = gen.random((n, 6)) + 0.1
    ldv = gen.random((n, 8)) + 0.1
    weights = gen.random(n) * 1e6 + 1e5
    return DiscoveryObservation(
        bbv=Nonzeros.of(bbv), ldv=Nonzeros.of(ldv), weights=weights, run_index=0
    )


def _selection(labels, weights, reps=None):
    labels = np.asarray(labels)
    weights = np.asarray(weights, dtype=float)
    if reps is None:
        reps = [int(np.flatnonzero(labels == c)[0]) for c in np.unique(labels)]
    reps = np.asarray(reps, dtype=np.int64)
    mult = np.array(
        [weights[labels == labels[r]].sum() / weights[r] for r in reps]
    )
    return BarrierPointSelection(
        representatives=reps,
        multipliers=mult,
        rep_weights=weights[reps],
        total_weight=float(weights.sum()),
        n_barrier_points=labels.size,
        run_index=0,
    )


class TestSignatures:
    def test_halves_normalised(self):
        sig = build_signatures((_observation(),), bbv_weight=0.5)
        rows = sig.rows(0, sig.n_barrier_points)
        bbv_part = rows[:, : sig.bbv_dims]
        ldv_part = rows[:, sig.bbv_dims :]
        assert np.allclose(bbv_part.sum(axis=1), 0.5)
        assert np.allclose(ldv_part.sum(axis=1), 0.5)

    def test_bbv_only(self):
        sig = build_signatures((_observation(),), bbv_weight=1.0)
        assert np.allclose(sig.rows(0, sig.n_barrier_points)[:, sig.bbv_dims :], 0.0)

    def test_ldv_only(self):
        sig = build_signatures((_observation(),), bbv_weight=0.0)
        assert np.allclose(sig.rows(0, sig.n_barrier_points)[:, : sig.bbv_dims], 0.0)

    def test_invalid_weight(self):
        with pytest.raises(ValueError):
            build_signatures((_observation(),), bbv_weight=1.5)


class TestSelection:
    def test_multipliers_cover_total_weight(self):
        obs = _observation(40, seed=1)
        sig = build_signatures((obs,))
        choice = run_simpoint(sig, sig.weights, np.random.default_rng(0))
        selection = select_barrier_points(choice, sig.weights)
        estimated_total = (
            selection.multipliers * sig.weights[selection.representatives]
        ).sum()
        assert estimated_total == pytest.approx(sig.weights.sum(), rel=1e-9)

    def test_one_representative_per_cluster(self):
        obs = _observation(40, seed=2)
        sig = build_signatures((obs,))
        choice = run_simpoint(sig, sig.weights, np.random.default_rng(0))
        selection = select_barrier_points(choice, sig.weights)
        labels = choice.result.labels
        assert selection.k == len(np.unique(labels[selection.representatives]))
        assert selection.k == len(np.unique(labels))

    def test_representative_in_own_cluster(self):
        obs = _observation(30, seed=3)
        sig = build_signatures((obs,))
        choice = run_simpoint(sig, sig.weights, np.random.default_rng(1))
        selection = select_barrier_points(choice, sig.weights)
        labels = choice.result.labels
        for rep, multiplier in zip(
            selection.representatives, selection.multipliers, strict=True
        ):
            cluster = labels == labels[rep]
            assert multiplier == sig.weights[cluster].sum() / sig.weights[rep]

    def test_keeps_only_the_representatives_weights(self):
        obs = _observation(30, seed=4)
        sig = build_signatures((obs,))
        choice = run_simpoint(sig, sig.weights, np.random.default_rng(2))
        selection = select_barrier_points(choice, sig.weights, run_index=5)
        assert selection.rep_weights.shape == (selection.k,)
        assert selection.rep_weights.tobytes() == (
            sig.weights[selection.representatives].tobytes()
        )
        assert selection.total_weight == float(sig.weights.sum())
        assert (selection.n_barrier_points, selection.run_index) == (30, 5)

    def test_misaligned_inputs_rejected(self):
        obs = _observation(20, seed=5)
        sig = build_signatures((obs,))
        choice = run_simpoint(sig, sig.weights, np.random.default_rng(0))
        with pytest.raises(ValueError, match="labels and weights"):
            select_barrier_points(choice, sig.weights[:-1])
        selection = _selection([0, 0, 1], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="must align"):
            replace(selection, rep_weights=selection.rep_weights[:1])

    def test_fraction_properties(self):
        weights = np.array([10.0, 10.0, 80.0])
        selection = _selection([0, 0, 1], weights)
        assert selection.bp_fraction == pytest.approx(2 / 3)
        assert selection.selected_instruction_fraction == pytest.approx(0.9)
        assert selection.largest_instruction_fraction == pytest.approx(0.8)
        assert selection.speedup == pytest.approx(1 / 0.9)
        assert selection.parallel_speedup == pytest.approx(1 / 0.8)

    def test_single_region_offers_no_gain(self):
        selection = _selection([0], [100.0])
        assert not selection.offers_gain


class TestReconstruction:
    def test_exact_when_every_bp_selected(self):
        n = 12
        weights = np.random.default_rng(0).random(n) + 0.5
        measured = np.random.default_rng(1).random((n, 2, 4)) * 1e6
        selection = _selection(np.arange(n), weights)
        estimate = reconstruct_totals(selection, measured[selection.representatives])
        assert np.allclose(estimate, measured.sum(axis=0))

    def test_exact_for_homogeneous_clusters(self):
        # 3 clusters of identical members: reconstruction must be exact.
        weights = np.repeat([1.0, 2.0, 5.0], 4)
        labels = np.repeat([0, 1, 2], 4)
        values = np.repeat(
            np.random.default_rng(2).random((3, 1, 4)) * 1e6, 4, axis=0
        ) * (weights / weights[0])[:, None, None]
        # scale values by weight so member counters are proportional
        values = values / values[0, 0, 0]
        selection = _selection(labels, weights)
        estimate = reconstruct_totals(selection, values[selection.representatives])
        assert np.allclose(estimate, values.sum(axis=0), rtol=1e-9)

    def test_per_rep_matches_loop(self):
        weights = np.ones(6)
        labels = np.array([0, 0, 1, 1, 2, 2])
        selection = _selection(labels, weights)
        samples = np.random.default_rng(3).random((5, selection.k, 2, 4))
        fast = reconstruct_per_rep(selection, samples)
        for r in range(5):
            manual = np.einsum("c,cij->ij", selection.multipliers, samples[r])
            assert np.allclose(fast[r], manual)

    def test_shape_mismatch_rejected(self):
        selection = _selection([0, 1], [1.0, 1.0])
        with pytest.raises(ValueError):
            reconstruct_totals(selection, np.zeros((5, 2, 4)))

    def test_row_count_other_than_k_rejected(self):
        # Every barrier point's means are not the representatives' rows:
        # with k = 2 of 4 barrier points, only 2 rows are accepted.
        selection = _selection([0, 0, 1, 1], np.ones(4))
        assert (selection.k, selection.n_barrier_points) == (2, 4)
        for rows in (1, selection.n_barrier_points):
            with pytest.raises(ValueError, match="2 representatives"):
                reconstruct_totals(selection, np.ones((rows, 2, 4)))
        assert reconstruct_totals(selection, np.ones((2, 2, 4))).shape == (2, 4)


class TestValidation:
    def test_zero_error_for_exact_estimate(self):
        ref = np.random.default_rng(0).random((4, 4)) + 1.0
        report = validate_estimate(ref.copy(), ref)
        assert np.all(report.error_mean == 0)

    def test_known_error(self):
        ref = np.ones((2, 4))
        est = np.ones((2, 4)) * 1.1
        report = validate_estimate(est, ref)
        assert report.error_mean == pytest.approx(np.full(4, 0.1))
        assert report.error_pct("cycles") == pytest.approx(10.0)

    def test_std_from_reps(self):
        ref = np.ones((2, 4))
        est = np.ones((2, 4))
        est_reps = np.ones((10, 2, 4)) + np.random.default_rng(0).normal(
            0, 0.05, (10, 2, 4)
        )
        ref_reps = np.ones((10, 2, 4))
        report = validate_estimate(est, ref, est_reps, ref_reps)
        assert np.all(report.error_std > 0)

    def test_metric_accessors(self):
        ref = np.ones((1, 4))
        est = np.array([[1.0, 1.02, 1.0, 1.5]])
        report = validate_estimate(est, ref)
        assert report.error_pct("instructions") == pytest.approx(2.0)
        assert report.error_pct("l2d_misses") == pytest.approx(50.0)
        assert report.worst_error == pytest.approx(0.5)
        assert report.primary_error == pytest.approx(0.02)

    def test_summary_mentions_all_metrics(self):
        report = validate_estimate(np.ones((1, 4)), np.ones((1, 4)))
        for metric in PMU_METRICS:
            assert metric in report.summary()

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            validate_estimate(np.ones((2, 3)), np.ones((2, 4)))
