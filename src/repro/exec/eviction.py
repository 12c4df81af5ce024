"""Size-budgeted LRU eviction over the sharded artifact store.

The serve daemon keeps the cache warm forever, so the store only grows —
something has to reclaim bytes.  :class:`StoreEvictor` walks the cell
and stage entries of the current version
(:meth:`~repro.exec.store.ArtifactStore.entries`), orders them by last
use and unlinks the coldest until the store fits its byte budget.

Two safety properties:

* **Open readers are never touched.**  Every mmap'd container — the
  zero-copy views handed out of ``.rpb`` payload reads — is tracked in
  the columnar open-reader registry
  (:func:`repro.exec.columnar.open_reader_count`); an entry with live
  readers is skipped outright, not even defer-unlinked, because a
  mapped entry is by definition the *hottest* thing in the store.
* **Eviction is loss-free.**  Entries are content-addressed cache
  artifacts: evicting one costs a recompute (or a refetch) that is
  byte-identical to what was dropped, never a wrong answer.  The serve
  integration tests assert exactly that round trip.

Recency comes from ``max(st_atime, st_mtime)``: the store bumps mtime on
every cache hit (see :meth:`repro.exec.store.ArtifactStore.read`), so
the clock works on ``noatime`` mounts too.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.exec.columnar import open_reader_count
from repro.exec.store import ArtifactStore

__all__ = ["CacheEntry", "EvictionReport", "StoreEvictor"]


@dataclass(frozen=True)
class CacheEntry:
    """One evictable store entry."""

    path: Path
    nbytes: int
    last_used: float

    @property
    def open_readers(self) -> int:
        """Live mmap readers currently holding this entry."""
        return open_reader_count(self.path)


@dataclass
class EvictionReport:
    """What one eviction pass saw and did."""

    budget_bytes: int
    scanned_files: int = 0
    scanned_bytes: int = 0
    evicted_files: int = 0
    evicted_bytes: int = 0
    skipped_open: int = 0
    evicted_paths: list[str] = field(default_factory=list)

    @property
    def remaining_bytes(self) -> int:
        """Store size after the pass (as scanned, minus evictions)."""
        return self.scanned_bytes - self.evicted_bytes

    def describe(self) -> str:
        """One-line summary for logs and the serve status endpoint."""
        return (
            f"evicted {self.evicted_files} entries "
            f"({self.evicted_bytes / 2**20:.1f} MiB) of {self.scanned_files} "
            f"({self.scanned_bytes / 2**20:.1f} MiB) against a "
            f"{self.budget_bytes / 2**20:.1f} MiB budget; "
            f"{self.skipped_open} skipped with open readers"
        )


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

    def total_bytes(self) -> int:
        """Current store size in bytes: every entry :meth:`scan` sees."""
        return sum(entry.nbytes for entry in self.scan())

    def evict(self) -> EvictionReport:
        """Run one eviction pass; returns what happened.

        Walks the LRU order and unlinks entries until the remaining
        total fits the budget.  Entries with live mmap readers are
        skipped (and counted), never unlinked — their bytes stay in the
        total, so a store pinned entirely by open readers can
        legitimately finish a pass over budget.
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
            if entry.open_readers:
                report.skipped_open += 1
                continue
            try:
                os.unlink(entry.path)
            except OSError:
                continue  # raced away; its bytes are gone either way
            report.evicted_files += 1
            report.evicted_bytes += entry.nbytes
            report.evicted_paths.append(str(entry.path))
            excess -= entry.nbytes
        return report
