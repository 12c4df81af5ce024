"""Barrier-point coalescing (the paper's Section VIII future work).

Section V-C shows that applications with thousands of tiny inter-barrier
regions (LULESH, HPGMG-FV) defeat the methodology: per-read
instrumentation overhead and PMU quantisation noise dwarf the regions'
own counter values.  The paper proposes, as future work, "adjusting the
size of barrier points so that more applications benefit".

This module implements that adjustment: consecutive barrier points are
greedily merged into *super regions* until each reaches a minimum
instruction budget.  Merging consecutive regions is exactly what a
developer would get by hoisting the PAPI reads out of the inner parallel
regions — one counter read per super region, amortised over more work —
and the signature algebra is additive (BBVs and LDVs of merged regions
simply sum), so the SimPoint machinery runs unchanged on the coarser
partition.
"""

from __future__ import annotations

import numpy as np

from repro.instrumentation.collector import DiscoveryObservation, Nonzeros

__all__ = ["coalesce_groups", "aggregate_observation", "aggregate_values"]


def coalesce_groups(weights: np.ndarray, min_instructions: float) -> np.ndarray:
    """Greedily merge consecutive barrier points into super regions.

    Parameters
    ----------
    weights:
        ``(n_bp,)`` per-barrier-point instruction counts, in dynamic
        order.
    min_instructions:
        Minimum instructions a super region must reach before the next
        region starts.  ``0`` keeps every barrier point separate.

    Returns
    -------
    numpy.ndarray
        ``(n_bp,)`` group index per barrier point; group ids are
        consecutive starting at 0 and non-decreasing along the run.  A
        trailing under-budget remainder is merged into the last group.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 1 or weights.size == 0:
        raise ValueError(f"weights must be non-empty 1-D, got shape {weights.shape}")
    if min_instructions < 0:
        raise ValueError(f"min_instructions must be >= 0, got {min_instructions}")

    groups = np.empty(weights.size, dtype=np.int64)
    current = 0
    accumulated = 0.0
    for i, w in enumerate(weights):
        groups[i] = current
        accumulated += float(w)
        if accumulated >= min_instructions and i + 1 < weights.size:
            current += 1
            accumulated = 0.0

    # Merge an under-budget trailing group into its predecessor.
    if current > 0:
        last_mask = groups == current
        if weights[last_mask].sum() < min_instructions:
            groups[last_mask] = current - 1
    return groups


def aggregate_values(values: np.ndarray, groups: np.ndarray) -> np.ndarray:
    """Sum per-barrier-point arrays into per-group arrays.

    Works for any array with a leading barrier-point axis: counter
    planes ``(n_bp, threads, metrics)``, signature matrices
    ``(n_bp, D)``, or weights ``(n_bp,)``.
    """
    values = np.asarray(values)
    groups = np.asarray(groups)
    if values.shape[0] != groups.shape[0]:
        raise ValueError(
            f"{values.shape[0]} rows but {groups.shape[0]} group assignments"
        )
    n_groups = int(groups.max()) + 1
    out = np.zeros((n_groups,) + values.shape[1:], dtype=float)
    np.add.at(out, groups, values)
    return out


def _aggregate_nonzeros(half: Nonzeros, groups: np.ndarray, n_groups: int) -> Nonzeros:
    """:func:`aggregate_values` of a half's dense form, bit for bit.

    The kept entries are added in row order, as the dense sum adds its
    rows.  Every group sum starts at +0.0, so it is never -0.0, and
    adding the +0.0 entries this sum skips would change no bit of it.
    """
    width = half.shape[1]
    rows, cols = np.divmod(half.index, width)
    index, slot = np.unique(groups[rows] * width + cols, return_inverse=True)
    values = np.zeros(len(index))
    np.add.at(values, slot, half.values)
    return Nonzeros(shape=(n_groups, width), index=index, values=values)


def aggregate_observation(
    observation: DiscoveryObservation, groups: np.ndarray
) -> DiscoveryObservation:
    """Aggregate a Pintool observation onto the coalesced partition.

    BBVs, LDVs and instruction weights are additive over consecutive
    regions, so the merged observation is exactly what the Pintool would
    have collected with the reads hoisted.
    """
    weights = aggregate_values(observation.weights, groups)
    return DiscoveryObservation(
        bbv=_aggregate_nonzeros(observation.bbv, groups, len(weights)),
        ldv=_aggregate_nonzeros(observation.ldv, groups, len(weights)),
        weights=weights,
        run_index=observation.run_index,
    )
