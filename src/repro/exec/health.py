"""Self-heal and fault-injection observability.

The stores heal torn artifacts by design — a truncated ``.rpb``
container reads as a clean miss and is deleted so the next write
recovers it.  Healing *silently*, however, hides real trouble: a
disk that tears one write a day looks exactly like a cold cache.  This
module is the process-wide tally of those recoveries (and, during chaos
runs, of injected faults), folded into the same
:class:`~repro.exec.stagestore.StageCacheStats` counter plumbing that
already ships worker increments back to the parent process — so heals
observed inside a ``processes``-backend worker still reach the
``--profile`` report and ``/v1/status``.

The heal site (:mod:`repro.exec.columnar`, under every
:class:`~repro.exec.store.ArtifactStore` read) has no stage or
configuration context, so it reports through the free functions here;
every :class:`StageCacheStats` constructed in the process registers
itself as a sink.  Increments that arrive before any sink exists
(e.g. a bare ``read_payload_file`` call in a unit test) are buffered
and flushed into the first sink registered.
"""

from __future__ import annotations

from collections import Counter

__all__ = ["record_heal", "record_fault", "register_stats_sink"]

#: Stats objects receiving heal/fault increments (one per StageStore).
_SINKS: list = []
#: Increments observed before the first sink registered.
_PENDING_HEALS: Counter = Counter()
_PENDING_FAULTS: Counter = Counter()


def register_stats_sink(stats) -> None:
    """Attach one ``StageCacheStats`` as a heal/fault counter sink."""
    if stats in _SINKS:
        return
    _SINKS.append(stats)
    if len(_SINKS) == 1:
        stats.heals.update(_PENDING_HEALS)
        stats.faults.update(_PENDING_FAULTS)
        _PENDING_HEALS.clear()
        _PENDING_FAULTS.clear()


def record_heal(site: str) -> None:
    """Count one corrupt-entry recovery at a named site.

    The one site is ``"container"`` (a torn ``.rpb`` cache entry or
    spill file).
    """
    if _SINKS:
        for stats in _SINKS:
            stats.heals[site] += 1
    else:
        _PENDING_HEALS[site] += 1


def record_fault(site: str) -> None:
    """Count one *injected* fault firing at a named site (chaos runs)."""
    if _SINKS:
        for stats in _SINKS:
            stats.faults[site] += 1
    else:
        _PENDING_FAULTS[site] += 1
