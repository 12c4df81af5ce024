"""Byte-size constants and human-readable formatting."""

from __future__ import annotations

__all__ = ["KIB", "MIB", "GIB", "CACHE_LINE_BYTES", "format_bytes"]

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB

#: Both evaluation machines (Intel i7-3770 and APM X-Gene) use 64-byte lines.
CACHE_LINE_BYTES = 64


def format_bytes(n: int) -> str:
    """Format a byte count as the largest whole binary unit (e.g. '32 KiB')."""
    if n < 0:
        raise ValueError("byte count must be non-negative")
    for unit, factor in (("GiB", GIB), ("MiB", MIB), ("KiB", KIB)):
        if n >= factor and n % factor == 0:
            return f"{n // factor} {unit}"
    for unit, factor in (("GiB", GIB), ("MiB", MIB), ("KiB", KIB)):
        if n >= factor:
            return f"{n / factor:.1f} {unit}"
    return f"{n} B"
