"""Exact LRU stack (reuse) distance computation.

The LRU stack distance of an access is the number of *distinct* cache
lines touched since the previous access to the same line; cold (first)
accesses have infinite distance.  An access to a fully-associative LRU
cache of ``C`` lines hits iff its stack distance is ``< C`` — this is the
classic property that lets BarrierPoint's LDVs characterise memory
behaviour independently of any particular cache.

:func:`reuse_distances_vectorised` (the default behind
:func:`reuse_distances`) is an argsort/merge-counting formulation.
With ``prev[i]`` the previous access to ``i``'s line, the identity

    distance(i) = (i - prev[i] - 1) - #{q < i : prev[q] > prev[i]}

holds because a position ``p`` in the open window ``(prev[i], i)``
fails to contribute a *distinct* line exactly when its next access
``q = next[p]`` also lands in the window — and those ``q`` are
precisely the warm accesses before ``i`` whose own ``prev`` lies
inside the window.  The correction term is a per-element
previous-greater count over the warm ``prev`` sequence — an inversion
count, computed by a bottom-up mergesort whose per-level merge is one
``np.lexsort`` over (run id, value): O(N log² N) work but ~log N
vectorised passes instead of N interpreted steps.  The tests hold it
to the scalar Fenwick-tree formulation of Bennett & Kruskal / Olken,
element for element (``tests/reuse_reference.py``).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "reuse_distances",
    "reuse_distances_vectorised",
    "reuse_histogram",
]

#: Sentinel distance for cold (first-touch) accesses.
COLD = -1


def _check_stream(lines: np.ndarray) -> np.ndarray:
    lines = np.asarray(lines)
    if lines.ndim != 1:
        raise ValueError(f"lines must be 1-D, got shape {lines.shape}")
    return lines


def _previous_occurrence(lines: np.ndarray) -> np.ndarray:
    """``prev[i]`` = index of the last earlier access to ``lines[i]``'s
    line, or -1 for a first touch (vectorised via one grouping argsort)."""
    n = lines.size
    order = np.lexsort((np.arange(n), lines))  # group by line, time ascending
    grouped = lines[order]
    prev = np.full(n, -1, dtype=np.int64)
    same_line = grouped[1:] == grouped[:-1]
    prev[order[1:][same_line]] = order[:-1][same_line]
    return prev


def _count_previous_greater(values: np.ndarray) -> np.ndarray:
    """``c[t]`` = #{s < t : values[s] > values[t]} for each position.

    Bottom-up merge counting: at each level, elements are (virtually)
    merged in runs of ``2 * width`` by one stable ``np.lexsort`` on
    (run id, value); a right-half element preceded by ``L`` left-half
    elements in the merged order has exactly ``left_size - L`` greater
    left-half elements — stability breaks value ties in favour of the
    left half, keeping the count strict.
    """
    n = values.size
    counts = np.zeros(n, dtype=np.int64)
    if n < 2:
        return counts
    index = np.arange(n)
    width = 1
    while width < n:
        run = index // (2 * width)
        in_right = (index // width) % 2 == 1
        order = np.lexsort((values, run))
        run_sorted = run[order]
        right_sorted = in_right[order]

        first_in_run = np.empty(n, dtype=bool)
        first_in_run[0] = True
        first_in_run[1:] = run_sorted[1:] != run_sorted[:-1]
        run_start = np.maximum.accumulate(np.where(first_in_run, index, 0))
        pos_in_merged = index - run_start

        cum_right = np.cumsum(right_sorted)
        right_before_run = np.maximum.accumulate(
            np.where(first_in_run, cum_right - right_sorted, 0)
        )
        pos_in_right = cum_right - right_sorted - right_before_run

        left_size = np.minimum(width, n - run_sorted * 2 * width)
        left_before = pos_in_merged - pos_in_right
        right_mask = right_sorted
        counts[order[right_mask]] += (left_size - left_before)[right_mask]
        width *= 2
    return counts


def reuse_distances_vectorised(lines: np.ndarray) -> np.ndarray:
    """Vectorised exact stack distances (see module docstring)."""
    lines = _check_stream(lines)
    n = lines.size
    distances = np.full(n, COLD, dtype=np.int64)
    if n == 0:
        return distances
    prev = _previous_occurrence(lines)
    warm = prev >= 0
    if not warm.any():
        return distances
    warm_idx = np.flatnonzero(warm)
    warm_prev = prev[warm_idx]
    # Each position is ``prev`` of at most one access, so the values are
    # distinct and the previous-greater count is tie-free.
    corrections = _count_previous_greater(warm_prev)
    distances[warm_idx] = warm_idx - warm_prev - 1 - corrections
    return distances


def reuse_distances(lines: np.ndarray) -> np.ndarray:
    """Exact LRU stack distance of every access in a line-address stream.

    Parameters
    ----------
    lines:
        1-D integer array of cache-line identifiers, in access order.

    Returns
    -------
    numpy.ndarray
        ``int64`` array of the same length; cold accesses are ``-1``.
    """
    return reuse_distances_vectorised(lines)


def reuse_histogram(distances: np.ndarray, n_bins: int) -> np.ndarray:
    """Bin exact distances into the library's logarithmic LDV bins.

    Parameters
    ----------
    distances:
        Output of :func:`reuse_distances` (cold accesses ``-1``).
    n_bins:
        Number of LDV bins, normally
        :data:`repro.mem.ldv.N_DISTANCE_BINS`; the last bin collects cold
        accesses.

    Returns
    -------
    numpy.ndarray
        ``(n_bins,)`` float histogram of access counts.
    """
    from repro.mem.ldv import bin_of_distance

    distances = np.asarray(distances)
    hist = np.zeros(n_bins, dtype=float)
    cold = distances < 0
    hist[n_bins - 1] += float(np.count_nonzero(cold))
    warm = distances[~cold]
    if warm.size:
        bins = bin_of_distance(warm.astype(float))
        bins = np.minimum(bins, n_bins - 1)
        np.add.at(hist, bins, 1.0)
    return hist
