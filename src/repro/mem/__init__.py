"""Memory-behaviour substrate.

BarrierPoint signatures pair BBVs with **LRU-stack Distance Vectors**
(LDVs), and the paper's error metrics include L1D and L2D cache misses,
so the memory system is a first-class substrate here.  Two paths exist:

* **Exact path** — :mod:`repro.mem.streams` expands a
  :class:`~repro.ir.memory.MemoryPattern` into a concrete address
  stream; :mod:`repro.mem.reuse` computes exact LRU stack distances
  (Fenwick-tree algorithm, O(N log N)); :mod:`repro.mem.cache` is a
  trace-driven set-associative LRU cache simulator.  This path is used
  by the tests and examples to validate the analytic path.
* **Analytic path** — :mod:`repro.mem.ldv` derives LDV histograms and
  :mod:`repro.mem.hierarchy` derives per-level miss fractions directly
  from the pattern parameters.  This is what makes simulating LULESH's
  9,840 barrier points tractable at paper scale.

Both paths share one source of truth for a pattern's reuse structure:
:func:`repro.mem.ldv.characteristic_distances`.
"""

from repro.mem.cache import CacheSimulator, CacheTileState, SimulatedMisses
from repro.mem.hierarchy import (
    effective_capacity_lines,
    miss_fraction,
    miss_probability,
    misses_from_ldv,
)
from repro.mem.ldv import (
    LDV_COLD_BIN,
    N_DISTANCE_BINS,
    bin_of_distance,
    characteristic_distances,
    distance_bin_centers,
    pattern_ldv_rows,
)
from repro.mem.reuse import reuse_distances, reuse_histogram
from repro.mem.streaming import (
    ReuseStreamState,
    iter_array_tiles,
    reuse_distances_streamed,
)
from repro.mem.streams import generate_stream

__all__ = [
    "reuse_distances",
    "reuse_histogram",
    "reuse_distances_streamed",
    "ReuseStreamState",
    "iter_array_tiles",
    "generate_stream",
    "CacheSimulator",
    "CacheTileState",
    "SimulatedMisses",
    "N_DISTANCE_BINS",
    "LDV_COLD_BIN",
    "bin_of_distance",
    "distance_bin_centers",
    "characteristic_distances",
    "pattern_ldv_rows",
    "miss_probability",
    "miss_fraction",
    "misses_from_ldv",
    "effective_capacity_lines",
]
