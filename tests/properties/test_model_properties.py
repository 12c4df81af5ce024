"""Property-based tests for analytic models and methodology invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.clustering.kmeans import KMeansResult
from repro.clustering.simpoint import ClusteringChoice
from repro.core.reconstruction import reconstruct_totals
from repro.core.selection import BarrierPointSelection, select_barrier_points
from repro.experiments.ablations import drop_insignificant
from repro.ir.memory import MemoryPattern, PatternKind
from repro.mem.hierarchy import miss_fraction, miss_probability
from repro.mem.ldv import pattern_ldv_rows
from repro.runtime.scheduler import thread_shares
from repro.util.stats import relative_error

pattern_kinds = st.sampled_from(list(PatternKind))


@given(
    pattern_kinds,
    st.floats(min_value=1.0, max_value=1e8),
    st.floats(min_value=1.0, max_value=1e4),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=1.0, max_value=1e6),
)
@settings(max_examples=150)
def test_miss_fraction_bounded(kind, fp, hot_lines, hot_frac, capacity):
    frac = miss_fraction(kind, np.array([fp]), hot_lines, np.array([hot_frac]), capacity)
    assert 0.0 <= frac[0] <= 1.0


@given(
    pattern_kinds,
    st.floats(min_value=10.0, max_value=1e7),
    st.floats(min_value=1.0, max_value=1e4),
    st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=80)
def test_miss_fraction_monotone_in_capacity(kind, fp, hot_lines, hot_frac):
    small = miss_fraction(kind, np.array([fp]), hot_lines, np.array([hot_frac]), 100.0)
    large = miss_fraction(kind, np.array([fp]), hot_lines, np.array([hot_frac]), 1e5)
    assert large[0] <= small[0] + 1e-12


@given(st.floats(min_value=1.0, max_value=1e8), st.floats(min_value=1.0, max_value=1e6))
@settings(max_examples=100)
def test_miss_probability_within_unit_interval(distance, capacity):
    p = miss_probability(np.array([distance]), capacity)
    assert 0.0 <= p[0] <= 1.0


@given(
    pattern_kinds,
    st.integers(min_value=1, max_value=8),
    st.floats(min_value=0.5, max_value=4.0),
    st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=80)
def test_ldv_rows_are_distributions(kind, threads, fp_scale, hot_scale):
    pattern = MemoryPattern(
        kind, footprint_bytes=4 * 2**20, hot_bytes=16 * 1024, hot_fraction=0.6
    )
    rows = pattern_ldv_rows(
        pattern, threads, np.array([fp_scale]), np.array([hot_scale])
    )
    assert np.all(rows >= 0)
    assert rows.sum() == 1.0 or abs(rows.sum() - 1.0) < 1e-9


@given(
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=1, max_value=16),
    st.floats(min_value=0.0, max_value=0.8),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=80)
def test_thread_shares_always_normalised(n_inst, threads, cv, seed):
    shares = thread_shares(n_inst, threads, cv, np.random.default_rng(seed))
    assert np.all(shares >= 0)
    assert np.allclose(shares.sum(axis=1), 1.0)


@st.composite
def selections_with_measurements(draw):
    n = draw(st.integers(min_value=2, max_value=30))
    k_labels = draw(st.integers(min_value=1, max_value=min(n, 6)))
    labels = np.array(
        [draw(st.integers(min_value=0, max_value=k_labels - 1)) for _ in range(n)]
    )
    # Guarantee every label occurs.
    labels[:k_labels] = np.arange(k_labels)
    weights = np.array(
        [draw(st.floats(min_value=0.1, max_value=100.0)) for _ in range(n)]
    )
    per_weight = np.array(
        [draw(st.floats(min_value=0.5, max_value=2.0)) for _ in range(k_labels)]
    )
    # Counters proportional to weight within each cluster -> homogeneous.
    values = weights[:, None, None] * per_weight[labels][:, None, None]
    values = np.repeat(values, 4, axis=2)  # (n, 1, 4)
    reps = [int(np.flatnonzero(labels == c)[0]) for c in range(k_labels)]
    mult = np.array([weights[labels == c].sum() / weights[r] for c, r in enumerate(reps)])
    selection = BarrierPointSelection(
        representatives=np.asarray(reps, dtype=np.int64),
        multipliers=mult,
        rep_weights=weights[reps],
        total_weight=float(weights.sum()),
        n_barrier_points=n,
        run_index=0,
    )
    return selection, values


@given(selections_with_measurements())
@settings(max_examples=60)
def test_reconstruction_exact_for_homogeneous_clusters(case):
    """If counters scale with weight inside each cluster, the
    multiplier-weighted representative reproduces the totals exactly."""
    selection, values = case
    estimate = reconstruct_totals(selection, values[selection.representatives])
    reference = values.sum(axis=0)
    assert np.all(relative_error(estimate, reference) < 1e-9)


@given(selections_with_measurements())
@settings(max_examples=60)
def test_selection_fractions_within_bounds(case):
    selection, _ = case
    assert 0 < selection.selected_instruction_fraction <= 1.0 + 1e-9
    assert 0 < selection.largest_instruction_fraction <= selection.selected_instruction_fraction + 1e-9
    assert selection.speedup >= 1.0 - 1e-9


@st.composite
def clusterings_with_weights(draw):
    """A clustering of up to 400 barrier points and their weights."""
    n = draw(st.integers(min_value=1, max_value=400))
    k = draw(st.integers(min_value=1, max_value=min(n, 20)))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    gen = np.random.default_rng(seed)
    labels = gen.integers(0, k, n)
    labels[:k] = np.arange(k)
    # Weights spanning many orders of magnitude, so that any change in
    # the summation order would show in the low bits.
    weights = gen.lognormal(mean=12.0, sigma=4.0, size=n)
    projected = gen.random((n, 3))
    centers = np.array([projected[labels == c].mean(axis=0) for c in range(k)])
    result = KMeansResult(labels=labels, centers=centers, inertia=0.0, iterations=0)
    choice = ClusteringChoice(k=k, result=result, projected=projected, bic_by_k={k: 0.0})
    return choice, weights


def _full_weight_columns(representatives, weights):
    """Table IV's columns over every barrier point's weight: the formulas
    selections used while they kept the whole weight vector."""
    selected = float(weights[representatives].sum() / weights.sum())
    largest = float(weights[representatives].max() / weights.sum())
    return {
        "selected_instruction_fraction": selected,
        "largest_instruction_fraction": largest,
        "speedup": 1.0 / selected,
        "parallel_speedup": 1.0 / largest,
        "offers_gain": weights.size > 1 and selected < 0.999,
    }


def _full_weight_drop(representatives, multipliers, weights, min_weight_fraction):
    """``drop_insignificant`` over every barrier point's weight."""
    total = weights.sum()
    covered = multipliers * weights[representatives]
    keep = covered / total >= min_weight_fraction
    if not keep.any():
        keep[np.argmax(covered)] = True
    scale = covered.sum() / covered[keep].sum()
    return representatives[keep], multipliers[keep] * scale


def _assert_columns_bitwise(selection, representatives, weights):
    for name, want in _full_weight_columns(representatives, weights).items():
        got = getattr(selection, name)
        assert type(got) is type(want), name
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), name


@given(clusterings_with_weights(), st.floats(min_value=0.0, max_value=0.99))
@settings(max_examples=100)
def test_columns_equal_the_full_weight_formulas_bitwise(case, min_weight_fraction):
    """Keeping only the representatives' weights and the total changes
    no bit of a Table IV column, before or after dropping clusters."""
    choice, weights = case
    selection = select_barrier_points(choice, weights)
    assert selection.n_barrier_points == weights.size
    _assert_columns_bitwise(selection, selection.representatives, weights)

    dropped = drop_insignificant(selection, min_weight_fraction)
    representatives, multipliers = _full_weight_drop(
        selection.representatives, selection.multipliers, weights, min_weight_fraction
    )
    assert dropped.representatives.tobytes() == representatives.tobytes()
    assert dropped.multipliers.tobytes() == multipliers.tobytes()
    _assert_columns_bitwise(dropped, representatives, weights)
