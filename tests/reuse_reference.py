"""Reference reuse-distance kernel: the Fenwick-tree formulation.

The standard Fenwick-tree (binary indexed tree) formulation of Bennett
& Kruskal / Olken: keep a 0/1 marker per time step for "this position
is the most recent access to its line"; the distance of an access at
time ``i`` whose line was last touched at time ``j`` is the number of
markers strictly between ``j`` and ``i``.  O(N log N), but every one of
those operations is a Python-interpreter step, so production uses
:func:`repro.mem.reuse.reuse_distances_vectorised` and the tests
require it to equal this oracle element for element
(``unit/test_mem_reuse.py``, ``properties/test_reuse_properties.py``;
this directory is on ``sys.path`` once pytest loads ``conftest.py``).
"""

from __future__ import annotations

import numpy as np

from repro.mem.reuse import COLD, _check_stream

__all__ = ["reuse_distances_fenwick"]


class _Fenwick:
    """Minimal Fenwick tree over ``n`` positions (1-indexed internally)."""

    def __init__(self, n: int) -> None:
        self._tree = np.zeros(n + 1, dtype=np.int64)

    def add(self, index: int, delta: int) -> None:
        """Add ``delta`` at 0-based ``index``."""
        i = index + 1
        tree = self._tree
        while i < tree.size:
            tree[i] += delta
            i += i & (-i)

    def prefix_sum(self, index: int) -> int:
        """Sum of entries at 0-based positions ``0..index`` inclusive."""
        i = index + 1
        total = 0
        tree = self._tree
        while i > 0:
            total += int(tree[i])
            i -= i & (-i)
        return total


def reuse_distances_fenwick(lines: np.ndarray) -> np.ndarray:
    """Exact stack distances, one interpreted Fenwick step at a time."""
    lines = _check_stream(lines)
    n = lines.size
    distances = np.empty(n, dtype=np.int64)
    tree = _Fenwick(n)
    last_seen: dict[int, int] = {}

    for i in range(n):
        line = int(lines[i])
        prev = last_seen.get(line)
        if prev is None:
            distances[i] = COLD
        else:
            # Markers strictly between prev and i = distinct lines touched.
            distances[i] = tree.prefix_sum(i - 1) - tree.prefix_sum(prev)
            tree.add(prev, -1)
        tree.add(i, +1)
        last_seen[line] = i
    return distances
