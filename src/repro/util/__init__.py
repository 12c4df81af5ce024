"""Shared utilities: deterministic RNG trees, statistics, table rendering.

These helpers are deliberately dependency-light (numpy only) so every other
subpackage can use them without import cycles.
"""

from repro.util.rng import RngTree, stable_hash
from repro.util.stats import (
    coefficient_of_variation,
    geometric_mean,
    relative_error,
    summarize,
)
from repro.util.tables import format_float, render_table
from repro.util.units import GIB, KIB, MIB, format_bytes

__all__ = [
    "RngTree",
    "stable_hash",
    "coefficient_of_variation",
    "geometric_mean",
    "relative_error",
    "summarize",
    "render_table",
    "format_float",
    "KIB",
    "MIB",
    "GIB",
    "format_bytes",
]
