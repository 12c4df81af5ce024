"""Exact-path BBV/LDV/cache signature collection over trace tiles.

The analytic collectors (:mod:`repro.instrumentation.bbv`,
:mod:`repro.instrumentation.ldv`) evaluate closed-form models per
barrier point and never touch a concrete address.  This module is their
**out-of-core exact counterpart**: it consumes an address stream one
tile at a time — as produced by
:func:`repro.mem.streams.iter_stream_tiles` — and accumulates

* a per-block BBV (instruction counts attributed to the block whose
  accesses each tile carries),
* the exact LDV (logarithmic reuse-distance histogram) via the
  streaming reuse engine carrying last-seen state across tiles, and
* exact per-level LRU cache misses via the carried-state tile cache
  simulator, cascading each tile's miss substream down the hierarchy.

Every accumulated number is bit-identical to the monolithic kernels run
on the concatenated stream (the property tests assert this across tile
sizes); peak memory is proportional to one tile plus the carried
states, never to the stream.
"""

from __future__ import annotations

import numpy as np

from repro.mem.cache import CacheSimulator, CacheTileState
from repro.mem.ldv import N_DISTANCE_BINS
from repro.mem.reuse import reuse_histogram
from repro.mem.streaming import ReuseStreamState

__all__ = ["StreamedSignature", "StreamedSignatureCollector"]


class StreamedSignature(dict):
    """JSON-shaped result of a streamed collection (a plain dict)."""


class StreamedSignatureCollector:
    """Accumulate BBV/LDV/cache signatures from trace tiles.

    Parameters
    ----------
    n_blocks:
        Static block universe size; BBV rows have this many entries.
    levels:
        Cache hierarchy as ``(name, size_bytes, associativity)`` tuples;
        each level simulates the previous level's miss substream.
    n_bins:
        LDV histogram bins (defaults to the analytic path's binning, so
        exact and analytic LDVs are directly comparable).

    Feed tiles with :meth:`feed`; :meth:`result` returns the totals.
    """

    def __init__(
        self,
        n_blocks: int,
        levels: tuple[tuple[str, int, int], ...] = (
            ("L1D", 32 * 1024, 8),
            ("L2", 256 * 1024, 8),
        ),
        n_bins: int = N_DISTANCE_BINS,
    ) -> None:
        self.n_blocks = int(n_blocks)
        self.n_bins = int(n_bins)
        self._block_accesses = np.zeros(self.n_blocks, dtype=np.int64)
        self._block_ipa = np.ones(self.n_blocks, dtype=float)
        self._ldv = np.zeros(self.n_bins, dtype=float)
        self._reuse = ReuseStreamState()
        self._levels = [
            (name, CacheSimulator(size, assoc)) for name, size, assoc in levels
        ]
        self._states = [
            CacheTileState.cold(sim.n_sets, sim.associativity)
            for _, sim in self._levels
        ]
        self.n_accesses = 0

    def feed(
        self, block_index: int, tile: np.ndarray, instructions_per_access: float = 1.0
    ) -> None:
        """Consume one tile of accesses attributed to one static block."""
        tile = np.ascontiguousarray(tile, dtype=np.int64)
        self._ldv += reuse_histogram(self._reuse.feed(tile), self.n_bins)
        # Accumulate *accesses* and round to instructions once, at
        # result() time — per-tile rounding would make the totals depend
        # on the tile split, and tile size is an execution-only knob.
        self._block_accesses[block_index] += int(tile.size)
        self._block_ipa[block_index] = float(instructions_per_access)
        substream = tile
        for (_, sim), state in zip(self._levels, self._states, strict=True):
            if substream.size == 0:
                # Deeper levels see no traffic this tile; counters and
                # carried stacks are simply untouched, exactly as the
                # monolithic cascade would leave them.
                break
            substream = substream[sim.miss_mask_tile(substream, state)]
        self.n_accesses += int(tile.size)

    def result(self) -> StreamedSignature:
        """The accumulated signature as a JSON-shaped payload."""
        bbv = np.rint(self._block_accesses * self._block_ipa).astype(np.int64)
        return StreamedSignature(
            n_accesses=self.n_accesses,
            bbv=[int(v) for v in bbv],
            ldv=[float(v) for v in self._ldv],
            distinct_lines=int(self._reuse.distinct_lines),
            levels={
                name: {
                    "accesses": int(state.accesses),
                    "misses": int(state.misses),
                }
                for (name, _), state in zip(self._levels, self._states, strict=True)
            },
        )
