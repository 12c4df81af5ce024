"""Out-of-core streaming reuse-distance engine (tile-merge formulation).

The monolithic vectorised kernel in :mod:`repro.mem.reuse` materialises
the whole access stream plus several same-sized intermediates — at the
10⁷–10⁸ accesses of a paper-scale trace that is gigabytes of transient
allocation and an O(N log² N) lexsort cascade.  This module processes
the stream tile by tile with carried state, keeping peak memory at
O(distinct lines + tile) while staying **bit-identical** to the
monolithic oracles (which remain in :mod:`repro.mem.reuse`, untouched,
as the golden reference — the PR 3/5 pattern).

Tile-merge formulation
======================

Between tiles the engine carries, for every distinct line seen so far,
the global position of its most recent access (the classic *marker*
set: position ``j`` is a marker iff it is the last access to its line).
For an access at global position ``i`` whose previous same-line access
is ``prev[i]``, the stack distance is the number of markers in the open
window ``(prev[i], i)`` *at time i*.  Within one tile starting at
global offset ``B`` this splits exactly:

* **intra-warm** (``prev[i] >= B``): every marker in the window was
  created inside the tile, so the distance reduces to the monolithic
  identity over tile-local positions —
  ``(i - prev[i] - 1) - #{q < i intra-warm : prev[q] > prev[i]}``.
  Cross-warm accesses never enter the correction term because their
  ``prev`` lies before ``B <= prev[i]``.

* **cross-warm** (``prev[i] < B``): the window decomposes into the
  pre-tile marker snapshot and in-tile activity::

      distance(i) =   #{pre-tile markers > prev[i]}          (term1)
                    - #{cross-warm q < i : prev[q] > prev[i]} (term2)
                    + #{intra-first j < i}                    (term3)

  term1 is one ``searchsorted`` against the sorted marker positions;
  term2 is a previous-greater count over the cross-warm subsequence
  (each such ``q`` consumed the pre-tile marker at ``prev[q]``); term3
  counts markers created inside the tile and still alive in the window
  (one per line first touched in the tile, all after ``B > prev[i]``).

Both correction terms use :func:`_count_previous_greater_fast`, a
bottom-up merge count that replaces the per-level two-key ``lexsort``
of the monolithic path with a pairwise base case plus single-key
``np.sort`` over packed ``(run, value, position)`` integers — ~6×
faster per element and, because tiles bound the run depth, the level
count stays at ``log2(tile)`` instead of ``log2(stream)``.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

from repro.mem.reuse import COLD, _count_previous_greater

__all__ = [
    "ReuseStreamState",
    "iter_array_tiles",
    "reuse_distance_tiles",
    "reuse_distances_streamed",
]

#: Default tile length for streamed kernels (accesses per tile).
DEFAULT_TILE_SIZE = 1 << 20

# Packing layout for the fast merge count: (run << 48) | (value << 24) | pos.
_PACK_BITS = 24
_PACK_MASK = (1 << _PACK_BITS) - 1
#: Largest input the packed merge handles: at the first merge level the
#: run index occupies bits 48+, so ``size >> 7`` must stay below 2^15
#: to clear the int64 sign bit.
_PGC_FAST_MAX = 1 << 22
#: Width of the brute-force base case (one 3-D broadcast per block).
_PGC_BASE = 64
#: Base-case blocks processed per broadcast chunk (bounds the (chunk,
#: base, base) boolean intermediate to ~16 MiB).
_PGC_CHUNK_BLOCKS = 4096


def _pgc_pairwise(values: np.ndarray, counts: np.ndarray) -> None:
    """Within-block previous-greater counts for blocks of ``_PGC_BASE``.

    Writes into ``counts`` (same length as ``values``).  Values must be
    non-negative; blocks are padded with -1 which never counts as
    greater and, sitting past every real position, never queries.
    """
    n = values.size
    base = _PGC_BASE
    pad = (-n) % base
    # int32 comparisons halve the broadcast traffic; callers guarantee
    # values < 2^24 so the narrowing is lossless.
    v = values.astype(np.int32, copy=False)
    if pad:
        v = np.concatenate([v, np.full(pad, -1, dtype=np.int32)])
    blocks = v.reshape(-1, base)
    tri = np.tril(np.ones((base, base), dtype=bool), -1)  # [t, s] = s < t
    out = np.empty(blocks.shape, dtype=np.int16)
    for start in range(0, blocks.shape[0], _PGC_CHUNK_BLOCKS):
        chunk = blocks[start : start + _PGC_CHUNK_BLOCKS]
        gt = (chunk[:, None, :] > chunk[:, :, None]) & tri[None, :, :]
        out[start : start + _PGC_CHUNK_BLOCKS] = gt.sum(axis=2, dtype=np.int16)
    counts[:] = out.reshape(-1)[:n]


def _count_previous_greater_fast(values: np.ndarray) -> np.ndarray:
    """``c[t] = #{s < t : values[s] > values[t]}`` — fast formulation.

    Bit-identical to :func:`repro.mem.reuse._count_previous_greater`
    (property-tested), but built from a pairwise-broadcast base case
    and packed single-key ``np.sort`` merges instead of per-level
    two-key lexsorts.  Requires distinct, non-negative values; inputs
    that cannot be packed into the ``(run, value, pos)`` layout fall
    back to the lexsort oracle.
    """
    n = values.size
    counts = np.zeros(n, dtype=np.int64)
    if n < 2:
        return counts
    if n > _PGC_FAST_MAX or int(values.max()) >= _PACK_MASK:
        return _count_previous_greater(values)
    _pgc_pairwise(values, counts)
    if n <= _PGC_BASE:
        return counts

    size = _PGC_BASE
    while size < n:
        size *= 2
    # Values are stored +1 so padding (0) sorts first and, counted into
    # ``left_before``, drops out of the greater-count; padding positions
    # sit past every real position so they never receive contributions
    # that matter (their slots in ``ext`` are discarded).
    v = np.zeros(size, dtype=np.int64)
    v[:n] = values
    v[:n] += 1
    pos = np.arange(size, dtype=np.int64)
    work = (v << _PACK_BITS) | pos
    ext = np.zeros(size, dtype=np.int64)
    ext[:n] = counts
    width = _PGC_BASE
    while width < size:
        # Reshaping to one run per row and sorting axis-1 merges the
        # two halves (runs stay value-sorted level to level, positions
        # ride in the low bits); the in-run column index then replaces
        # the flat formulation's run-start bookkeeping outright.
        rows = work.reshape(-1, 2 * width)
        rows.sort(axis=1)
        in_right = (rows >> width.bit_length() - 1) & 1
        right_before = np.cumsum(in_right, axis=1) - in_right
        left_before = np.arange(2 * width, dtype=np.int64)[None, :] - right_before
        contrib = in_right * (width - left_before)
        # Positions are distinct, so the fancy += cannot collide.
        ext[work & _PACK_MASK] += contrib.reshape(-1)
        width *= 2
    return ext[:n]


class ReuseStreamState:
    """Carried state for exact streamed stack distances.

    Feed consecutive tiles of one access stream; each call returns the
    exact distances of that tile's accesses, bit-identical to running
    the monolithic kernel over the concatenated stream.  Memory is
    O(distinct lines + tile length), independent of stream length.
    """

    def __init__(self) -> None:
        self._known_lines = np.empty(0, dtype=np.int64)  # sorted
        self._known_pos = np.empty(0, dtype=np.int64)  # aligned last-seen
        # Sorted marker positions (== np.sort(known_pos), maintained
        # incrementally: deletions reuse the cross-access query ranks,
        # insertions are this tile's last-touch positions, which arrive
        # pre-sorted and beyond every existing marker).
        self._marker_sorted = np.empty(0, dtype=np.int64)
        self._offset = 0

    @property
    def accesses_seen(self) -> int:
        """Total accesses consumed so far."""
        return self._offset

    @property
    def distinct_lines(self) -> int:
        """Distinct lines seen so far (carried-state footprint)."""
        return int(self._known_lines.size)

    def feed(self, tile: np.ndarray) -> np.ndarray:
        """Consume one tile; return its exact stack distances."""
        tile = np.asarray(tile)
        if tile.ndim != 1:
            raise ValueError(f"tile must be 1-D, got shape {tile.shape}")
        n = tile.size
        if n == 0:
            return np.empty(0, dtype=np.int64)
        tile = tile.astype(np.int64, copy=False)

        uniq, inverse = np.unique(tile, return_inverse=True)
        inverse = inverse.astype(np.int64, copy=False)
        local = np.arange(n, dtype=np.int64)

        # Tile-local previous occurrence via one packed argsort-free
        # grouping: sorting (line-rank << k | pos) groups by line with
        # positions ascending inside each group.
        shift = max(n.bit_length(), 1)
        grouped = np.sort((inverse << shift) | local)
        g_pos = grouped & ((1 << shift) - 1)
        g_line = grouped >> shift
        intra_prev = np.full(n, -1, dtype=np.int64)
        same = g_line[1:] == g_line[:-1]
        intra_prev[g_pos[1:][same]] = g_pos[:-1][same]
        intra_first = intra_prev < 0

        # Map tile lines into carried state.
        ki = np.searchsorted(self._known_lines, uniq)
        ki_clipped = np.minimum(ki, max(self._known_lines.size - 1, 0))
        if self._known_lines.size:
            uniq_known = self._known_lines[ki_clipped] == uniq
        else:
            uniq_known = np.zeros(uniq.size, dtype=bool)

        distances = np.full(n, COLD, dtype=np.int64)

        # --- intra-warm: the monolithic identity over local positions.
        intra_warm_idx = np.flatnonzero(~intra_first)
        if intra_warm_idx.size:
            warm_prev = intra_prev[intra_warm_idx]
            corr = _count_previous_greater_fast(warm_prev)
            distances[intra_warm_idx] = intra_warm_idx - warm_prev - 1 - corr

        # --- cross-warm: first in-tile touch of a line known from
        # earlier tiles.
        access_known = uniq_known[inverse]
        cross_idx = np.flatnonzero(intra_first & access_known)
        prefix_first = np.cumsum(intra_first) - intra_first  # term3
        marker_sorted = self._marker_sorted
        rank = np.empty(0, dtype=np.int64)
        if cross_idx.size:
            gprev = self._known_pos[ki_clipped[inverse[cross_idx]]]
            # Each gprev is itself a marker, so one rank query yields
            # both term1 (markers strictly above it) and, via the
            # order-preserving rank, the merge-count input.  Queries
            # are sorted first: sequential binary searches on a sorted
            # probe stream stay cache-resident.
            qorder = np.argsort(gprev)
            rank = np.empty(cross_idx.size, dtype=np.int64)
            rank[qorder] = np.searchsorted(marker_sorted, gprev[qorder])
            term1 = marker_sorted.size - rank - 1
            term2 = _count_previous_greater_fast(rank)
            distances[cross_idx] = term1 - term2 + prefix_first[cross_idx]

        # --- merge this tile's last-seen positions into carried state.
        # The grouped order ends each line group at its last position.
        group_last = np.empty(uniq.size, dtype=np.int64)
        boundaries = np.flatnonzero(
            ~np.concatenate([same, np.zeros(1, dtype=bool)])
        )
        group_last[g_line[boundaries]] = g_pos[boundaries]
        new_pos = self._offset + group_last

        # New markers are exactly this tile's last-touch positions —
        # the locals never referenced as an in-tile ``prev`` — already
        # in ascending order and beyond every pre-tile marker.
        is_prev = np.zeros(n, dtype=bool)
        is_prev[intra_prev[~intra_first]] = True
        new_markers = self._offset + np.flatnonzero(~is_prev)
        if marker_sorted.size:
            keep = np.ones(marker_sorted.size, dtype=bool)
            keep[rank] = False  # re-touched lines' old markers die
            self._marker_sorted = np.concatenate(
                [marker_sorted[keep], new_markers]
            )
        else:
            self._marker_sorted = new_markers

        if self._known_lines.size:
            self._known_pos[ki_clipped[uniq_known]] = new_pos[uniq_known]
            fresh = ~uniq_known
            n_fresh = int(np.count_nonzero(fresh))
            if n_fresh:
                # One hand-rolled merge for both aligned arrays (the
                # np.insert idiom rebuilds its scatter mask per call).
                total = self._known_lines.size + n_fresh
                slots = ki[fresh] + np.arange(n_fresh, dtype=np.int64)
                old = np.ones(total, dtype=bool)
                old[slots] = False
                merged_lines = np.empty(total, dtype=np.int64)
                merged_pos = np.empty(total, dtype=np.int64)
                merged_lines[slots] = uniq[fresh]
                merged_pos[slots] = new_pos[fresh]
                merged_lines[old] = self._known_lines
                merged_pos[old] = self._known_pos
                self._known_lines = merged_lines
                self._known_pos = merged_pos
        else:
            self._known_lines = uniq
            self._known_pos = new_pos

        self._offset += n
        return distances


def iter_array_tiles(
    lines: np.ndarray, tile_size: int = DEFAULT_TILE_SIZE
) -> Iterator[np.ndarray]:
    """View an in-memory stream as tiles (no copies)."""
    if tile_size < 1:
        raise ValueError(f"tile_size must be positive, got {tile_size}")
    lines = np.asarray(lines)
    for start in range(0, lines.size, tile_size):
        yield lines[start : start + tile_size]


def reuse_distance_tiles(
    tiles: Iterable[np.ndarray],
) -> Iterator[np.ndarray]:
    """Map a stream of access tiles to a stream of distance tiles."""
    state = ReuseStreamState()
    for tile in tiles:
        yield state.feed(tile)


def reuse_distances_streamed(
    lines: np.ndarray, tile_size: int = DEFAULT_TILE_SIZE
) -> np.ndarray:
    """Exact stack distances of an in-memory stream, computed tile-wise.

    Bit-identical to :func:`repro.mem.reuse.reuse_distances`; exists so
    benchmarks and tests can compare the engines on one buffer.  True
    out-of-core use goes through :func:`reuse_distance_tiles` over a
    tile iterator such as :func:`repro.mem.streams.iter_stream_tiles`.
    """
    pieces = list(reuse_distance_tiles(iter_array_tiles(lines, tile_size)))
    if not pieces:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(pieces)
