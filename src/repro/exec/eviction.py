"""Size-budgeted LRU eviction over the sharded artifact store.

The serve daemon keeps the cache warm forever, so the store only grows —
something has to reclaim bytes.  :class:`StoreEvictor` walks the cell
and stage entries of the current version
(:meth:`~repro.exec.store.ArtifactStore.entries`), orders them by last
use and unlinks the coldest until the store fits its byte budget.

Eviction is **loss-free**: entries are content-addressed cache
artifacts, so evicting one costs a recompute (or a refetch) that is
byte-identical to what was dropped, never a wrong answer.  A loaded
payload is already in memory (:func:`~repro.exec.columnar.read_payload_file`
reads each entry whole), so evicting an entry in use costs at most that
recompute on its next lookup.  The serve integration tests assert the
round trip.

Recency comes from ``max(st_atime, st_mtime)``: the store bumps mtime on
every cache hit (see :meth:`repro.exec.store.ArtifactStore.read`), so
the clock works on ``noatime`` mounts too.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

from repro.exec.store import ArtifactStore

__all__ = ["CacheEntry", "EvictionReport", "StoreEvictor"]


@dataclass(frozen=True)
class CacheEntry:
    """One evictable store entry."""

    path: Path
    nbytes: int
    last_used: float


@dataclass
class EvictionReport:
    """What one eviction pass saw and did."""

    budget_bytes: int
    scanned_files: int = 0
    scanned_bytes: int = 0
    evicted_files: int = 0
    evicted_bytes: int = 0

    @property
    def remaining_bytes(self) -> int:
        """Store size after the pass (as scanned, minus evictions)."""
        return self.scanned_bytes - self.evicted_bytes


class StoreEvictor:
    """LRU evictor keeping one cache directory under a byte budget.

    Parameters
    ----------
    cache_dir:
        The store root (the directory ``ExperimentConfig.cache_dir``
        names).
    budget_bytes:
        Target size.  ``0`` or negative disables eviction entirely
        (:meth:`evict` becomes a scan-only no-op).
    """

    def __init__(self, cache_dir: str | os.PathLike, budget_bytes: int) -> None:
        self.artifacts = ArtifactStore(cache_dir)
        self.budget_bytes = int(budget_bytes)

    @property
    def enabled(self) -> bool:
        """Whether this evictor can ever unlink anything."""
        return self.artifacts.enabled and self.budget_bytes > 0

    def scan(self) -> list[CacheEntry]:
        """Every store entry, coldest (least recently used) first."""
        entries: list[CacheEntry] = []
        for path in self.artifacts.entries():
            try:
                stat = path.stat()
            except OSError:
                continue  # raced away mid-scan
            entries.append(
                CacheEntry(
                    path=path,
                    nbytes=stat.st_size,
                    last_used=max(stat.st_atime, stat.st_mtime),
                )
            )
        entries.sort(key=lambda entry: (entry.last_used, str(entry.path)))
        return entries

    def evict(self) -> EvictionReport:
        """Run one eviction pass; returns what happened.

        Walks the LRU order and unlinks entries until the remaining
        total fits the budget.
        """
        entries = self.scan()
        report = EvictionReport(budget_bytes=self.budget_bytes)
        report.scanned_files = len(entries)
        report.scanned_bytes = sum(entry.nbytes for entry in entries)
        if not self.enabled:
            return report
        excess = report.scanned_bytes - self.budget_bytes
        for entry in entries:
            if excess <= 0:
                break
            try:
                os.unlink(entry.path)
            except OSError:
                continue  # raced away; its bytes are gone either way
            report.evicted_files += 1
            report.evicted_bytes += entry.nbytes
            excess -= entry.nbytes
        return report
