#!/usr/bin/env python
"""Validate the analytic memory models against exact simulation.

The paper-scale experiments derive LDVs and cache misses analytically
from memory patterns (the analytic cache model of the ``mem/`` layer in
``docs/architecture.md``).  This example runs the ground-truth pipeline
next to it for every pattern kind:

    address stream  →  exact LRU stack distances  →  LDV histogram
                    →  trace-driven set-associative cache simulation

and prints both paths' L1 miss rates side by side.

Usage::

    python examples/exact_vs_analytical.py
"""

import numpy as np

from repro.ir.memory import MemoryPattern, PatternKind
from repro.mem import (
    N_DISTANCE_BINS,
    CacheSimulator,
    effective_capacity_lines,
    generate_stream,
    miss_fraction,
    misses_from_ldv,
    reuse_distances,
    reuse_histogram,
)
from repro.util.tables import render_table

CACHE_BYTES = 32 * 1024  # both machines' L1D
ASSOC = 8
ACCESSES = 80_000


def main() -> None:
    capacity = effective_capacity_lines(CACHE_BYTES, ASSOC)
    rows = []
    for kind in PatternKind:
        pattern = MemoryPattern(
            kind, footprint_bytes=2**19, hot_bytes=8 * 1024, hot_fraction=0.5
        )
        stream = generate_stream(pattern, ACCESSES, np.random.default_rng(7))

        simulated = CacheSimulator(CACHE_BYTES, ASSOC).simulate(stream)
        hist = reuse_histogram(reuse_distances(stream), N_DISTANCE_BINS)
        ldv_rate = float(misses_from_ldv(hist, capacity)) / ACCESSES
        analytic = float(
            miss_fraction(
                kind,
                np.array([pattern.per_thread_footprint_lines(1)]),
                pattern.hot_lines,
                np.array([pattern.hot_fraction]),
                capacity,
            )[0]
        )
        rows.append(
            (
                str(kind),
                f"{simulated.miss_rate:.3f}",
                f"{ldv_rate:.3f}",
                f"{analytic:.3f}",
            )
        )

    print(
        render_table(
            ("Pattern", "Exact cache sim", "Exact LDV + ramp", "Analytic model"),
            rows,
            title=f"L1 miss rates, {CACHE_BYTES // 1024} KiB {ASSOC}-way, "
            f"{ACCESSES} accesses, 512 KiB footprint",
        )
    )
    print(
        "\nThe analytic path (used at paper scale) tracks the exact path "
        "within the tolerances documented in tests/integration/."
    )


if __name__ == "__main__":
    main()
