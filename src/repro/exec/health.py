"""Self-heal and fault-injection observability.

The stores heal torn artifacts by design — a truncated ``.rpb``
container reads as a clean miss and is deleted so the next write
recovers it.  Healing *silently*, however, hides real trouble: a
disk that tears one write a day looks exactly like a cold cache.  This
module is the process-wide tally of those recoveries (and, during chaos
runs, of injected faults): :data:`HEALS` and :data:`FAULTS`.  Every
:class:`~repro.exec.stagestore.StageCacheStats` reports these two
counters as its ``heals`` and ``faults``, so they ride the counter
plumbing that already ships worker increments back to the parent
process — heals observed inside a pool worker still reach the
``--profile`` report and ``/v1/status``.

The heal site (:mod:`repro.exec.columnar`, under every
:class:`~repro.exec.store.ArtifactStore` read) has no stage or
configuration context, so it reports through the free functions here.
"""

from __future__ import annotations

from collections import Counter

__all__ = ["HEALS", "FAULTS", "record_heal", "record_fault"]

#: Corrupt-entry recoveries observed in this process, by site.
HEALS: Counter = Counter()
#: Injected-fault firings in this process, by site.
FAULTS: Counter = Counter()


def record_heal(site: str) -> None:
    """Count one corrupt-entry recovery at a named site.

    The one site is ``"container"`` (a torn ``.rpb`` cache entry or
    spill file).
    """
    HEALS[site] += 1


def record_fault(site: str) -> None:
    """Count one *injected* fault firing at a named site (chaos runs)."""
    FAULTS[site] += 1
