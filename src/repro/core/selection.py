"""Barrier-point selection: representatives and multipliers.

After clustering, one barrier point per cluster — the one closest to the
centroid — represents the cluster in simulation.  Its *multiplier* is
the ratio of the cluster's total instruction weight to the
representative's own weight: scaling the representative's counters by it
estimates the whole cluster's contribution, which is exactly Step 4's
reconstruction rule.

The paper keeps **all** clusters rather than dropping low-weight ones:
Section VI-C reports that discarding insignificant barrier points (as
original BarrierPoint optionally does) "affects the cache estimations
significantly".  The drop-small ablation bench revisits that choice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.clustering.simpoint import ClusteringChoice

__all__ = ["BarrierPointSelection", "select_barrier_points"]


@dataclass(frozen=True)
class BarrierPointSelection:
    """One barrier point set (the unit Table III counts min/max over).

    Holds what reconstruction and Table IV read, and nothing that grows
    with the barrier-point count; cluster membership stays on the
    :class:`~repro.clustering.simpoint.ClusteringChoice` it came from.

    Attributes
    ----------
    representatives:
        ``(k,)`` barrier-point indices, one per cluster.
    multipliers:
        ``(k,)`` weight ratios scaling each representative's counters.
    rep_weights:
        ``(k,)`` the representatives' instruction weights.
    total_weight:
        Instruction weight of the whole region of interest.
    n_barrier_points:
        Total dynamic barrier points ('Total' in Table III).
    run_index:
        Discovery run that produced this set.
    """

    representatives: np.ndarray
    multipliers: np.ndarray
    rep_weights: np.ndarray
    total_weight: float
    n_barrier_points: int
    run_index: int

    def __post_init__(self) -> None:
        if not self.representatives.shape == self.multipliers.shape == self.rep_weights.shape:
            raise ValueError("representatives, multipliers and rep_weights must align")

    @property
    def k(self) -> int:
        """Number of selected barrier points ('BPs Selected' in Table IV)."""
        return int(self.representatives.size)

    @property
    def bp_fraction(self) -> float:
        """Fraction of barrier points selected (Table IV column a)."""
        return self.k / self.n_barrier_points

    @property
    def selected_instruction_fraction(self) -> float:
        """Fraction of instructions in the selected set (Table IV 'Total')."""
        return float(self.rep_weights.sum() / self.total_weight)

    @property
    def largest_instruction_fraction(self) -> float:
        """Largest representative's instruction share (Table IV 'Largest BP')."""
        return float(self.rep_weights.max() / self.total_weight)

    @property
    def speedup(self) -> float:
        """Simulation speed-up from the instruction reduction (footnote d)."""
        return 1.0 / self.selected_instruction_fraction

    @property
    def parallel_speedup(self) -> float:
        """Upper-bound speed-up if representatives simulate in parallel
        (footnote c: bounded by the largest barrier point)."""
        return 1.0 / self.largest_instruction_fraction

    @property
    def offers_gain(self) -> bool:
        """False for the single-parallel-region limitation of Section V-B
        (RSBench, XSBench, PathFinder): the whole core loop must run."""
        return self.n_barrier_points > 1 and self.selected_instruction_fraction < 0.999


def select_barrier_points(
    choice: ClusteringChoice, weights: np.ndarray, run_index: int = 0
) -> BarrierPointSelection:
    """Pick representatives and multipliers from a clustering.

    Parameters
    ----------
    choice:
        SimPoint output (labels, centroids, projected coordinates).
    weights:
        ``(n_bp,)`` instruction weights from the discovery run.
    run_index:
        Provenance tag.
    """
    weights = np.asarray(weights, dtype=float)
    labels = choice.result.labels
    if labels.shape != weights.shape:
        raise ValueError("labels and weights must align")
    projected = choice.projected
    centers = choice.result.centers

    representatives = []
    multipliers = []
    for cluster in range(choice.result.k):
        members = np.flatnonzero(labels == cluster)
        if members.size == 0:
            continue
        dist = ((projected[members] - centers[cluster]) ** 2).sum(axis=1)
        rep = int(members[int(dist.argmin())])
        cluster_weight = float(weights[members].sum())
        rep_weight = float(weights[rep])
        if rep_weight <= 0:
            raise ValueError(f"representative {rep} has non-positive weight")
        representatives.append(rep)
        multipliers.append(cluster_weight / rep_weight)

    order = np.argsort(representatives)
    representatives = np.asarray(representatives, dtype=np.int64)[order]
    return BarrierPointSelection(
        representatives=representatives,
        multipliers=np.asarray(multipliers, dtype=float)[order],
        rep_weights=weights[representatives],
        total_weight=float(weights.sum()),
        n_barrier_points=int(labels.size),
        run_index=run_index,
    )
