"""Program behaviour reconstruction (workflow Step 4).

The whole-program estimate of every counter is the multiplier-weighted
sum of the representatives' measured counters:

    estimate[thread, metric] = Σ_clusters  m_c × measured[rep_c, thread, metric]

The multipliers come from the x86_64 discovery analysis; the measured
counters come from whichever platform is being estimated — this is the
paper's cross-architectural step.  The ``measure`` stage applies both
functions to every selection on every target as it measures them,
validates the results, and stores the totals and the error spread
instead of the representatives' readings.
"""

from __future__ import annotations

import numpy as np

from repro.core.selection import BarrierPointSelection

__all__ = ["reconstruct_totals", "reconstruct_per_rep"]


def reconstruct_totals(
    selection: BarrierPointSelection, rows: np.ndarray
) -> np.ndarray:
    """Estimate whole-ROI counters from the representatives' mean readings.

    Parameters
    ----------
    selection:
        The barrier point set (representatives + multipliers).
    rows:
        ``(k, threads, 4)`` mean measured counters of the representatives
        only (in ``selection.representatives`` order): the target
        platform's per-barrier-point means indexed by the
        representatives.

    Returns
    -------
    numpy.ndarray
        ``(threads, 4)`` estimated whole-ROI counters.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.shape[0] != selection.k:
        raise ValueError(
            f"got {rows.shape[0]} measured rows, selection has "
            f"{selection.k} representatives"
        )
    return np.einsum("c,cij->ij", selection.multipliers, rows)


def reconstruct_per_rep(
    selection: BarrierPointSelection, rep_samples: np.ndarray
) -> np.ndarray:
    """Estimate whole-ROI counters from per-repetition readings.

    Parameters
    ----------
    selection:
        The barrier point set.
    rep_samples:
        ``(repetitions, k, threads, 4)`` per-repetition measurements of
        the representatives only (in ``selection.representatives``
        order), as returned by
        :func:`repro.hw.measure.sample_barrier_point_reps`.

    Returns
    -------
    numpy.ndarray
        ``(repetitions, threads, 4)`` per-repetition estimates, used
        for the error-bar statistics of Figure 2.
    """
    rep_samples = np.asarray(rep_samples, dtype=float)
    if rep_samples.ndim != 4 or rep_samples.shape[1] != selection.k:
        raise ValueError(
            f"rep_samples must be (reps, {selection.k}, threads, 4), "
            f"got {rep_samples.shape}"
        )
    return np.einsum("c,rcij->rij", selection.multipliers, rep_samples)
