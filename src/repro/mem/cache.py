"""Trace-driven set-associative LRU cache simulation (exact path).

A faithful, if deliberately simple, cache model: physically indexed sets,
true-LRU replacement, allocate-on-miss for both loads and stores.  Used
to validate the analytic miss model and to power the
``exact_vs_analytical`` example; the paper-scale experiments use the
analytic path instead.

The batched entry points (:meth:`CacheSimulator.simulate`,
:meth:`CacheSimulator.miss_mask`) run a numpy lockstep simulation: the
stream is grouped by set, every set's recency stack is held as one row
of a ``(sets_touched, associativity)`` matrix, and a single Python-level
step advances *all* sets by one access.  The per-access Python loop
(list scans, ``remove``/``append``) only survives as the scalar
:meth:`CacheSimulator.access` API and as the fallback for degenerate
streams that concentrate on a few sets, where lockstep rounds would
be as long as the stream itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SimulatedMisses",
    "CacheSimulator",
    "CacheTileState",
]

# --- packed-LRU constants (see CacheSimulator._packed_tile) -----------------
#: Replicates a rank byte across all eight lanes of a uint64.
_REP = np.uint64(0x0101010101010101)
#: High bit of every byte lane (zero-byte detection).
_HI = np.uint64(0x8080808080808080)
#: Maps the isolated high bit of lane ``k`` (shifted down 7) to ``k``.
_LANE_IDX = np.uint64(0x0001020304050607)
#: Per-way masks: bytes strictly above way ``b`` / strictly below way ``b``.
_KEEP_HIGH = np.array(
    [np.uint64(0) if b == 7 else ~np.uint64((1 << (8 * b + 8)) - 1) for b in range(8)],
    dtype=np.uint64,
)
_KEEP_LOW = np.array([np.uint64((1 << (8 * b)) - 1) for b in range(8)], dtype=np.uint64)
#: Rank values 254/255 are reserved (padding / empty way).
_MAX_RANK = 253
_PAD_RANK = np.uint8(0xFE)


def _merge_stacks(d: np.ndarray, e: np.ndarray, assoc: int) -> np.ndarray:
    """Compose LRU stacks: state ``e``, then a segment whose last-distinct
    accesses (MRU-first) are ``d``.

    Both are ``(m, 8)`` uint8 rank arrays with 0xFF marking empty ways.
    The result is the segment's distinct ranks followed by the entry
    ranks it did not touch, truncated to ``assoc`` — exactly the LRU
    stack after replaying the segment on top of ``e``.
    """
    member = (e[:, :, None] == d[:, None, :]).any(axis=2)
    keep = np.concatenate([d != 0xFF, (~member) & (e != 0xFF)], axis=1)
    cand = np.concatenate([d, e], axis=1)
    posn = np.cumsum(keep, axis=1) - keep
    out = np.full_like(e, 0xFF)
    sel = keep & (posn < assoc)
    r, c = np.nonzero(sel)
    out[r, posn[r, c]] = cand[r, c]
    return out


@dataclass
class CacheTileState:
    """Carried LRU state for tile-at-a-time simulation.

    One row per set, MRU at column 0 — the same layout the lockstep
    kernel uses internally, held across tile boundaries so a stream
    can be consumed in bounded-memory chunks with results bit-identical
    to a monolithic :meth:`CacheSimulator.miss_mask` run.
    """

    stacks: np.ndarray
    occupied: np.ndarray
    accesses: int = 0
    misses: int = 0

    @classmethod
    def cold(cls, n_sets: int, ways: int) -> "CacheTileState":
        """All-invalid state (what a fresh simulation starts from)."""
        return cls(
            stacks=np.zeros((n_sets, ways), dtype=np.int64),
            occupied=np.zeros((n_sets, ways), dtype=bool),
        )

    @property
    def result(self) -> SimulatedMisses:
        """Aggregate counts consumed so far."""
        return SimulatedMisses(accesses=self.accesses, misses=self.misses)


@dataclass(frozen=True)
class SimulatedMisses:
    """Result of simulating a stream through one cache (or hierarchy level)."""

    accesses: int
    misses: int

    @property
    def hits(self) -> int:
        """Number of accesses that hit."""
        return self.accesses - self.misses

    @property
    def miss_rate(self) -> float:
        """Misses per access (0 for an empty stream)."""
        return self.misses / self.accesses if self.accesses else 0.0


class CacheSimulator:
    """One set-associative LRU cache operating on line identifiers.

    Parameters
    ----------
    size_bytes:
        Total capacity.
    associativity:
        Ways per set; must divide the line count evenly.
    line_bytes:
        Line size (both paper machines use 64 bytes).
    """

    def __init__(self, size_bytes: int, associativity: int, line_bytes: int = 64) -> None:
        if size_bytes <= 0 or associativity < 1 or line_bytes <= 0:
            raise ValueError("cache geometry must be positive")
        n_lines = size_bytes // line_bytes
        if n_lines == 0 or n_lines % associativity != 0:
            raise ValueError(
                f"size {size_bytes} B / line {line_bytes} B not divisible into "
                f"{associativity}-way sets"
            )
        self.size_bytes = size_bytes
        self.associativity = associativity
        self.line_bytes = line_bytes
        self.n_sets = n_lines // associativity
        # Per set: list of tags, most-recently-used last.
        self._sets: list[list[int]] = [[] for _ in range(self.n_sets)]

    def reset(self) -> None:
        """Invalidate all contents."""
        self._sets = [[] for _ in range(self.n_sets)]

    def access(self, line: int) -> bool:
        """Access one line; return ``True`` on hit.  Misses allocate."""
        set_idx = line % self.n_sets
        tag = line // self.n_sets
        ways = self._sets[set_idx]
        try:
            ways.remove(tag)
        except ValueError:
            if len(ways) >= self.associativity:
                ways.pop(0)  # evict true-LRU
            ways.append(tag)
            return False
        ways.append(tag)  # move to MRU
        return True

    def simulate(self, lines: np.ndarray) -> SimulatedMisses:
        """Run a whole stream; returns aggregate counts (cold start)."""
        mask = self.miss_mask(lines)
        return SimulatedMisses(accesses=int(mask.size), misses=int(mask.sum()))

    def miss_mask(self, lines: np.ndarray) -> np.ndarray:
        """Per-access miss flags for a stream (cold start)."""
        self.reset()
        lines = np.asarray(lines, dtype=np.int64)
        if lines.size == 0:
            return np.zeros(0, dtype=bool)
        set_idx = lines % self.n_sets
        counts = np.bincount(set_idx, minlength=self.n_sets)
        longest_run = int(counts.max())
        # A lockstep round costs ~a dozen small numpy ops; it only wins
        # when each round retires many sets.  Streams concentrated on a
        # handful of sets (fully-associative caches, adversarial tests)
        # fall back to the scalar walk.
        if longest_run > max(64, lines.size // 4):
            mask = np.zeros(lines.size, dtype=bool)
            for i, line in enumerate(lines):
                mask[i] = not self.access(int(line))
            self.reset()
            return mask
        return self._miss_mask_lockstep(lines, set_idx, counts)

    # -- tile-at-a-time API -------------------------------------------------

    def tile_state(self) -> CacheTileState:
        """Fresh cold state for :meth:`miss_mask_tile` streaming."""
        return CacheTileState.cold(self.n_sets, self.associativity)

    def miss_mask_tile(
        self, lines: np.ndarray, state: CacheTileState
    ) -> np.ndarray:
        """Per-access miss flags for one tile, carrying LRU state.

        Feeding consecutive tiles of a stream produces masks
        bit-identical to one :meth:`miss_mask` call over the whole
        stream, with peak memory proportional to the tile (plus the
        fixed ``(n_sets, ways)`` state).

        Dispatches to the packed byte-lane engine when the geometry
        allows (≤ 8 ways, per-set distinct lines this tile ≤ 254) and
        falls back to the carried-state lockstep/scalar walk otherwise.
        """
        lines = np.asarray(lines, dtype=np.int64)
        if lines.size == 0:
            return np.zeros(0, dtype=bool)
        mask = None
        if self.associativity <= 8:
            mask = self._packed_tile(lines, state)
        if mask is None:
            set_idx = lines % self.n_sets
            counts = np.bincount(set_idx, minlength=self.n_sets)
            longest_run = int(counts.max())
            if longest_run > max(64, lines.size // 4):
                mask = self._scalar_tile(lines, state)
            else:
                mask = self._lockstep_tile(lines, set_idx, counts, state)
        state.accesses += int(lines.size)
        state.misses += int(mask.sum())
        return mask

    def _packed_tile(
        self, lines: np.ndarray, state: CacheTileState
    ) -> np.ndarray | None:
        """Segment-parallel packed-LRU tile kernel.

        Every set's recency stack is one ``uint64``: eight byte lanes,
        MRU in byte 0, ways holding per-set dense *ranks* instead of
        tags (0xFF = empty).  A whole access retires per row per step
        with ~20 elementwise integer ops — hit detection is the
        classic zero-byte trick on ``stack XOR broadcast(rank)``, and
        the stack update is two mask-and-shift terms via per-way LUTs,
        with no per-way matrix anywhere.

        To keep step counts short on few-set geometries, each set's
        run is cut into fixed-length segments simulated as independent
        rows.  Their entry states come from a sequential fold of
        per-segment *digests* (the last ≤ ``ways`` distinct ranks of a
        segment, which are entry-independent), using the LRU
        composition law: stack-after(A·B) = B's stack, then A's tags
        not in B, truncated.  The fold runs once per segment level on
        set-count-sized arrays, so its cost is negligible next to the
        step loop.

        Returns ``None`` (before touching ``state``) when the tile
        does not fit the packed layout; the caller then uses the
        lockstep path.
        """
        n = int(lines.size)
        n_sets = self.n_sets
        assoc = self.associativity
        if n >= 1 << 22 or n_sets >= 1 << 22:
            return None
        set_idx = lines % n_sets
        tags = lines // n_sets
        if int(tags.max()) >= 1 << 38 or int(tags.min()) < 0:
            return None

        # Group by set, time order preserved (order rides the low bits).
        sb = max(n.bit_length(), 1)
        gsort = np.sort((set_idx << sb) | np.arange(n, dtype=np.int64))
        order = gsort & ((1 << sb) - 1)
        s_sorted = gsort >> sb
        t_sorted = tags[order]

        # Distinct (set, tag) table over tile ∪ resident ways, giving
        # each line a dense per-set rank that must fit a byte.
        res_set, res_way = np.nonzero(state.occupied)
        res_tag = state.stacks[res_set, res_way]
        key_acc = (s_sorted << 38) | t_sorted
        key_res = (res_set.astype(np.int64) << 38) | res_tag
        table = np.sort(np.concatenate([key_acc, key_res]))
        fresh = np.empty(table.size, dtype=bool)
        fresh[0] = True
        np.not_equal(table[1:], table[:-1], out=fresh[1:])
        table = table[fresh]
        t_set = table >> 38
        first = np.empty(table.size, dtype=bool)
        first[0] = True
        np.not_equal(t_set[1:], t_set[:-1], out=first[1:])
        tbl_idx = np.arange(table.size, dtype=np.int64)
        grp_start = np.maximum.accumulate(np.where(first, tbl_idx, 0))
        rank = tbl_idx - grp_start
        if int(rank.max(initial=0)) > _MAX_RANK:
            return None
        acc_grank = np.searchsorted(table, key_acc)
        acc_rank = rank[acc_grank].astype(np.uint8)

        # Segmentation: rows of ≤ L consecutive same-set accesses.
        counts = np.bincount(set_idx, minlength=n_sets)
        touched = np.flatnonzero(counts)
        runs = counts[touched]
        mean_run = max(n // touched.size, 1)
        seg_len = 1 << min(max(mean_run.bit_length() - 2, 4), 9)
        segs = -(-runs // seg_len)
        n_rows = int(segs.sum())
        set_start = np.zeros(touched.size, dtype=np.int64)
        np.cumsum(runs[:-1], out=set_start[1:])
        row_base = np.zeros(touched.size, dtype=np.int64)
        np.cumsum(segs[:-1], out=row_base[1:])
        gidx = np.arange(n, dtype=np.int64)
        local = gidx - np.repeat(set_start, runs)
        acc_row = np.repeat(row_base, runs) + local // seg_len
        acc_col = local % seg_len
        seg_in_set = np.arange(n_rows) - np.repeat(row_base, segs)
        row_len = np.minimum(np.repeat(runs, segs) - seg_in_set * seg_len, seg_len)
        padded = np.full((n_rows, seg_len), _PAD_RANK, dtype=np.uint8)
        padded[acc_row, acc_col] = acc_rank

        # Per-row digests: last ≤ ways distinct ranks, MRU-first.  An
        # access is its line's row-local last touch iff its next
        # same-line occurrence falls outside the row.
        g2 = np.sort((acc_grank << sb) | gidx)
        gp = g2 & ((1 << sb) - 1)
        gl = g2 >> sb
        nxt = np.full(n, n, dtype=np.int64)
        adj = gl[1:] == gl[:-1]
        nxt[gp[:-1][adj]] = gp[1:][adj]
        has_next = nxt < n
        nxt_row = np.full(n, -1, dtype=np.int64)
        nxt_row[has_next] = acc_row[nxt[has_next]]
        rep_idx = np.flatnonzero(nxt_row != acc_row)
        rep_row = acc_row[rep_idx]
        fwd = np.arange(rep_idx.size, dtype=np.int64)
        row_first = np.empty(rep_idx.size, dtype=bool)
        if rep_idx.size:
            row_first[0] = True
            np.not_equal(rep_row[1:], rep_row[:-1], out=row_first[1:])
        rep_start = np.maximum.accumulate(np.where(row_first, fwd, 0))
        reps_in_row = np.bincount(rep_row, minlength=n_rows)
        revrank = reps_in_row[rep_row] - 1 - (fwd - rep_start)
        in_digest = revrank < assoc
        digests = np.full((n_rows, 8), 0xFF, dtype=np.uint8)
        digests[rep_row[in_digest], revrank[in_digest]] = acc_rank[
            rep_idx[in_digest]
        ]

        # Entry states: seed from carried residents, fold digests.
        entry_set = np.full((touched.size, 8), 0xFF, dtype=np.uint8)
        if res_set.size:
            res_pos = np.searchsorted(touched, res_set)
            res_pos = np.minimum(res_pos, touched.size - 1)
            res_here = touched[res_pos] == res_set
            res_rank = rank[np.searchsorted(table, key_res)]
            entry_set[res_pos[res_here], res_way[res_here]] = res_rank[res_here]
        entry_rows = np.empty((n_rows, 8), dtype=np.uint8)
        for k in range(int(segs.max())):
            haverow = segs > k
            rows_k = row_base[haverow] + k
            entry_rows[rows_k] = entry_set[haverow]
            entry_set = entry_set.copy()
            entry_set[haverow] = _merge_stacks(
                digests[rows_k], entry_set[haverow], assoc
            )

        # Packed step loop.
        stacks = entry_rows.reshape(-1).view(np.uint64)
        miss_mat = np.empty((n_rows, seg_len), dtype=bool)
        u7 = np.uint64(7)
        u8 = np.uint64(8)
        u56 = np.uint64(56)
        evict = np.uint64(assoc - 1)
        one = np.uint64(1)
        for step in range(seg_len):
            cur8 = padded[:, step].astype(np.uint64)
            active = row_len > step
            x = stacks ^ (cur8 * _REP)
            zb = (x - _REP) & ~x & _HI
            hit = zb != 0
            low = zb & (~zb + one)
            way = ((low >> u7) * _LANE_IDX) >> u56
            way = np.where(hit, way, evict)
            updated = (
                (stacks & _KEEP_HIGH[way])
                | ((stacks & _KEEP_LOW[way]) << u8)
                | cur8
            )
            stacks = np.where(active, updated, stacks)
            miss_mat[:, step] = ~hit & active

        # Scatter misses back to arrival order.
        valid = np.arange(seg_len)[None, :] < row_len[:, None]
        mask = np.zeros(n, dtype=bool)
        mask[order] = miss_mat.ravel()[valid.ravel()]

        # Decode the folded final per-set stacks (ranks → tags).
        final = entry_set.view(np.uint8).reshape(touched.size, 8)[:, :assoc]
        occ = final != 0xFF
        tag_of = table & ((1 << 38) - 1)
        starts = np.zeros(n_sets, dtype=np.int64)
        starts[t_set[first]] = np.flatnonzero(first)
        idx = starts[touched][:, None] + np.where(occ, final, 0)
        state.stacks[touched] = np.where(occ, tag_of[idx], 0)
        state.occupied[touched] = occ
        return mask

    def simulate_tiled(self, tiles) -> SimulatedMisses:
        """Run a tile iterable through the cache; aggregate counts."""
        state = self.tile_state()
        for tile in tiles:
            self.miss_mask_tile(tile, state)
        return state.result

    def _scalar_tile(
        self, lines: np.ndarray, state: CacheTileState
    ) -> np.ndarray:
        """Scalar walk for degenerate tiles, hydrating touched sets
        from the carried state and dehydrating them afterwards."""
        n_sets = self.n_sets
        ways_n = self.associativity
        mask = np.zeros(lines.size, dtype=bool)
        lists: dict[int, list[int]] = {}
        for i in range(lines.size):
            line = int(lines[i])
            s = line % n_sets
            tag = line // n_sets
            ways = lists.get(s)
            if ways is None:
                occ = state.occupied[s]
                # Row layout is MRU-first; the scalar list is MRU-last.
                ways = [int(t) for t in state.stacks[s][occ][::-1]]
                lists[s] = ways
            try:
                ways.remove(tag)
            except ValueError:
                if len(ways) >= ways_n:
                    ways.pop(0)
                ways.append(tag)
                mask[i] = True
            else:
                ways.append(tag)
        for s, ways in lists.items():
            k = len(ways)
            state.stacks[s, :k] = ways[::-1]
            state.occupied[s, :k] = True
            state.occupied[s, k:] = False
        return mask

    def _lockstep_tile(
        self,
        lines: np.ndarray,
        set_idx: np.ndarray,
        counts: np.ndarray,
        state: CacheTileState,
    ) -> np.ndarray:
        """Vectorised miss flags: advance every touched set in lockstep.

        Each touched set's accesses form one row of a padded tag
        matrix; the LRU stacks of all rows live in a ``(rows, ways)``
        matrix with MRU at column 0, and each lockstep step consumes
        one access per row with pure array ops.  Exactly equivalent to
        the scalar walk (true LRU, allocate-on-miss), starting from and
        depositing back into the carried per-set state.
        """
        ways_n = self.associativity
        tags = lines // self.n_sets
        order = np.argsort(set_idx, kind="stable")
        touched = np.flatnonzero(counts)
        run_lengths = counts[touched]
        starts = np.zeros(touched.size, dtype=np.int64)
        np.cumsum(run_lengths[:-1], out=starts[1:])
        rows = np.repeat(np.arange(touched.size), run_lengths)
        cols = np.arange(lines.size) - starts[rows]

        longest = int(run_lengths.max())
        padded = np.zeros((touched.size, longest), dtype=np.int64)
        padded[rows, cols] = tags[order]

        stacks = state.stacks[touched]  # fancy index → private copy
        occupied = state.occupied[touched]
        miss_sorted = np.zeros(lines.size, dtype=bool)
        way_range = np.arange(ways_n)
        for step in range(longest):
            active = run_lengths > step
            current = padded[:, step]
            match = occupied & (stacks == current[:, None])
            hit = match.any(axis=1)
            # Hit: rotate columns 0..w into 1..w and insert at MRU.
            # Miss: shift everything right (the LRU way at the last
            # column falls off — a no-op eviction while filling).
            # Inactive rows keep their state untouched (w = -1).
            w = np.where(hit, match.argmax(axis=1), ways_n - 1)
            w = np.where(active, w, -1)
            keep = way_range[None, :] > w[:, None]
            shifted = np.empty_like(stacks)
            shifted[:, 0] = current
            shifted[:, 1:] = stacks[:, :-1]
            shifted_occ = np.empty_like(occupied)
            shifted_occ[:, 0] = True
            shifted_occ[:, 1:] = occupied[:, :-1]
            stacks = np.where(keep, stacks, shifted)
            occupied = np.where(keep, occupied, shifted_occ)
            idx = starts[active] + step
            miss_sorted[idx] = ~hit[active]

        state.stacks[touched] = stacks
        state.occupied[touched] = occupied
        mask = np.zeros(lines.size, dtype=bool)
        mask[order] = miss_sorted
        return mask

    def _miss_mask_lockstep(
        self, lines: np.ndarray, set_idx: np.ndarray, counts: np.ndarray
    ) -> np.ndarray:
        """Cold-start lockstep (one-tile case of :meth:`_lockstep_tile`)."""
        return self._lockstep_tile(
            lines, set_idx, counts, CacheTileState.cold(self.n_sets, self.associativity)
        )
