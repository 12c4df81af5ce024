"""Stage-granular content-addressed cache.

The cell-level :class:`~repro.exec.store.StudyStore` hashes the *whole*
configuration, so changing any knob re-executes the full cell from
profiling onward.  :class:`StageStore` addresses payloads by a *digest
chain* instead: each stage folds its own cache-key contribution into the
digest of everything upstream, so a ``maxK`` change relocates the
cluster/select/measure entries while the profile entry keeps its
address — a re-run reuses it, re-derives the signatures and clusters
onward.

Payloads are stored as binary columnar containers
(:mod:`repro.exec.columnar`): the JSON-shaped metadata stays JSON inside
the header while every array rides as contiguous little-endian segments,
decoded zero-copy through one mmap.

Hit/miss counters are kept per stage name (:class:`StageCacheStats`),
now alongside profiling counters: bytes encoded/decoded and wall time
spent running, loading and storing each stage.  ``--verbose`` prints the
hit summary and ``--profile`` the full table after a run.
:func:`stage_store_for` memoises one store per cache directory within a
process so those counters are observable wherever cells execute
in-process (serial/thread backends).  Under the ``processes`` backend
the counters increment in *worker* processes; the scheduler ships each
cell's counter delta (:meth:`StageCacheStats.snapshot` →
:meth:`StageCacheStats.delta_since`) back with the cell payload and
merges it into the parent's store (:meth:`StageCacheStats.merge`), so
both reports are accurate regardless of backend.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from repro.exec.columnar import read_payload_file, write_payload_atomic
from repro.exec.store import _touch, cache_version

__all__ = [
    "StageCacheStats",
    "StageStore",
    "base_digest",
    "chain_digest",
    "stage_store_for",
]


def chain_digest(parent: str, stage_name: str, cache_key: dict) -> str:
    """Fold one stage's identity into the digest chain.

    ``cache_key`` must be JSON-shaped; it is serialised with sorted keys
    so dict ordering can never split an address.
    """
    blob = json.dumps(
        {"parent": parent, "stage": stage_name, "key": cache_key}, sort_keys=True
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def base_digest(**identity) -> str:
    """Root of a digest chain (workload/threads/vectorised/seed...)."""
    blob = json.dumps({"cache_version": cache_version(), **identity}, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


#: The additive counter families one stats object tracks; snapshot/
#: delta/merge treat them uniformly so new counters can never silently
#: miss the process-boundary round trip.
_SUM_COUNTER_NAMES = (
    "hits",
    "misses",
    "bytes_decoded",
    "bytes_encoded",
    "run_seconds",
    "load_seconds",
    "store_seconds",
    "heals",
    "faults",
    "store_errors",
)

#: Families keyed by *site*, not stage name (``heals``/``faults`` count
#: self-heal recoveries and injected-fault firings — see
#: :mod:`repro.exec.health`).  They ride the same snapshot/delta/merge
#: round trip but are excluded from the per-stage profile rows and
#: reported as a summary footer instead.
_SITE_COUNTER_NAMES = ("heals", "faults", "store_errors")

#: High-water-mark families: snapshotted with the rest but merged with
#: ``max`` instead of ``+`` — a peak observed by two workers is one
#: peak, not their sum.
_MAX_COUNTER_NAMES = ("rss_peak_kib",)

_COUNTER_NAMES = _SUM_COUNTER_NAMES + _MAX_COUNTER_NAMES

#: ``ru_maxrss`` unit: kibibytes on Linux, bytes on macOS.
_RU_MAXRSS_TO_KIB = 1024 if sys.platform == "darwin" else 1


@dataclass
class StageCacheStats:
    """Per-stage cache and profiling counters of one :class:`StageStore`.

    ``hits``/``misses`` count cache lookups; ``bytes_decoded``/
    ``bytes_encoded`` the container bytes read and written per stage;
    ``run_seconds``/``load_seconds``/``store_seconds`` the wall time
    spent executing, decoding and persisting each stage.
    ``rss_peak_kib`` is the process ``ru_maxrss`` high-water mark
    observed right after each stage's live execution — the streaming
    kernels exist to bound it, and the ``--profile`` table is where
    that bound becomes visible.  All families travel across the
    ``processes`` backend as one delta; the additive ones merge with
    ``+``, the high-water one with ``max``.
    """

    hits: Counter = field(default_factory=Counter)
    misses: Counter = field(default_factory=Counter)
    bytes_decoded: Counter = field(default_factory=Counter)
    bytes_encoded: Counter = field(default_factory=Counter)
    run_seconds: Counter = field(default_factory=Counter)
    load_seconds: Counter = field(default_factory=Counter)
    store_seconds: Counter = field(default_factory=Counter)
    heals: Counter = field(default_factory=Counter)
    faults: Counter = field(default_factory=Counter)
    store_errors: Counter = field(default_factory=Counter)
    rss_peak_kib: Counter = field(default_factory=Counter)

    def hit_count(self, stage: str) -> int:
        """Cache hits recorded for one stage name."""
        return self.hits[stage]

    def miss_count(self, stage: str) -> int:
        """Cache misses recorded for one stage name."""
        return self.misses[stage]

    def record_run(self, stage: str, seconds: float) -> None:
        """Account one live execution of a stage (time + RSS peak)."""
        self.run_seconds[stage] += seconds
        self.record_rss(stage)

    def record_rss(self, stage: str) -> None:
        """Fold the current ``ru_maxrss`` into a stage's RSS high-water."""
        kib = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // _RU_MAXRSS_TO_KIB
        )
        if kib > self.rss_peak_kib[stage]:
            self.rss_peak_kib[stage] = kib

    def reset(self) -> None:
        """Zero every counter (tests isolate phases with this)."""
        for name in _COUNTER_NAMES:
            getattr(self, name).clear()

    def snapshot(self) -> dict:
        """JSON-shaped copy of the current counters."""
        # Under the threads backend several workers share these
        # counters; dict(...) is an atomic C-level copy, so a concurrent
        # insert can't resize a dict under a Python-level loop.
        return {name: dict(getattr(self, name)) for name in _COUNTER_NAMES}

    def delta_since(self, snapshot: dict) -> dict:
        """Counter increments since a :meth:`snapshot` (JSON-shaped).

        A worker process wraps one cell execution in snapshot/delta so
        only that cell's traffic travels back over the pickle boundary,
        no matter how many cells the worker has already served.
        """
        current = self.snapshot()
        delta = {}
        for name in _SUM_COUNTER_NAMES:
            base = snapshot.get(name, {})
            delta[name] = {
                stage: count - base.get(stage, 0)
                for stage, count in current[name].items()
                if count != base.get(stage, 0)
            }
        for name in _MAX_COUNTER_NAMES:
            # High-water marks don't subtract: the delta is simply the
            # worker's current peak, and merge() takes the max.
            base = snapshot.get(name, {})
            delta[name] = {
                stage: value
                for stage, value in current[name].items()
                if value != base.get(stage, 0)
            }
        return delta

    def merge(self, delta: dict) -> None:
        """Fold one worker's counter delta into these counters."""
        for name in _SUM_COUNTER_NAMES:
            getattr(self, name).update(delta.get(name, {}))
        for name in _MAX_COUNTER_NAMES:
            counter = getattr(self, name)
            for stage, value in delta.get(name, {}).items():
                if value > counter[stage]:
                    counter[stage] = value

    def describe(self) -> str:
        """One-line summary for verbose CLI output."""
        stages = sorted(set(self.hits) | set(self.misses))
        if not stages:
            summary = "no stage cache traffic"
        else:
            parts = [
                f"{s}:{self.hits[s]}/{self.hits[s] + self.misses[s]}" for s in stages
            ]
            summary = "stage cache hits " + " ".join(parts)
        extra = self.health_summary()
        return f"{summary}; {extra}" if extra else summary

    def health_summary(self) -> str:
        """Heal/fault/store-error footer line ('' when nothing happened).

        Self-heal recoveries used to be silent; surfacing them is what
        separates "cold cache" from "a disk that tears one write a day".
        """
        parts = []
        for label, counter in (
            ("self-heals", self.heals),
            ("injected-faults", self.faults),
            ("store-errors", self.store_errors),
        ):
            if counter:
                detail = " ".join(f"{k}:{v}" for k, v in sorted(counter.items()))
                parts.append(f"{label} {detail}")
        return "; ".join(parts)

    def profile_table(self) -> str:
        """Per-stage wall-time / bytes table (the ``--profile`` report)."""
        from repro.util.tables import render_table

        stages = sorted(
            set().union(
                *(
                    getattr(self, name)
                    for name in _COUNTER_NAMES
                    if name not in _SITE_COUNTER_NAMES
                )
            )
        )
        if not stages:
            return "no stage activity recorded"
        rows = []
        for stage in stages:
            rows.append(
                (
                    stage,
                    f"{self.run_seconds[stage]:.3f}",
                    f"{self.hits[stage]}/{self.hits[stage] + self.misses[stage]}",
                    f"{self.load_seconds[stage]:.3f}",
                    _human_bytes(self.bytes_decoded[stage]),
                    f"{self.store_seconds[stage]:.3f}",
                    _human_bytes(self.bytes_encoded[stage]),
                    _human_rss(self.rss_peak_kib[stage]),
                )
            )
        totals = (
            "total",
            f"{sum(self.run_seconds.values()):.3f}",
            f"{sum(self.hits.values())}/"
            f"{sum(self.hits.values()) + sum(self.misses.values())}",
            f"{sum(self.load_seconds.values()):.3f}",
            _human_bytes(sum(self.bytes_decoded.values())),
            f"{sum(self.store_seconds.values()):.3f}",
            _human_bytes(sum(self.bytes_encoded.values())),
            # A high-water mark totals as a max, not a sum.
            _human_rss(max(self.rss_peak_kib.values(), default=0)),
        )
        table = render_table(
            (
                "Stage",
                "Run (s)",
                "Hits",
                "Load (s)",
                "Decoded",
                "Store (s)",
                "Encoded",
                "Peak RSS",
            ),
            rows + [totals],
            title="Stage profile",
        )
        extra = self.health_summary()
        return f"{table}\n{extra}" if extra else table


def _human_rss(kib: int) -> str:
    """Render an RSS high-water mark ('-' when never recorded)."""
    if kib <= 0:
        return "-"
    if kib < 1024:
        return f"{int(kib)} KiB"
    mib = kib / 1024
    if mib < 1024:
        return f"{mib:.0f} MiB"
    return f"{mib / 1024:.1f} GiB"


def _human_bytes(n: int) -> str:
    n = int(n)
    for unit in ("B", "KiB", "MiB"):
        if n < 1024:
            return f"{n} {unit}" if unit == "B" else f"{n:.0f} {unit}"
        n_next = n / 1024
        if unit == "MiB":  # pragma: no cover - payloads never reach GiB
            return f"{n_next:.1f} GiB"
        n = n_next
    return f"{n:.0f} GiB"  # pragma: no cover


class StageStore:
    """Digest-addressed columnar payload cache with per-stage counters.

    Parameters
    ----------
    cache_dir:
        Root cache directory; stage entries live in a ``stages/``
        subdirectory next to the cell entries.  '' disables the store
        (every load misses, stores are no-ops, counters stay zero).
    """

    def __init__(self, cache_dir: str | os.PathLike) -> None:
        self._dir = Path(cache_dir) / "stages" if cache_dir else None
        self.stats = StageCacheStats()
        # Heal/fault increments from the store and columnar layers (which
        # have no stage context) land in these counters via the sink
        # registry, so they ride the existing worker-delta round trip.
        from repro.exec.health import register_stats_sink

        register_stats_sink(self.stats)

    @property
    def enabled(self) -> bool:
        """Whether a cache directory is configured."""
        return self._dir is not None

    #: Digest-prefix directory fanout (mirrors ``StudyStore.SHARD_PREFIX``).
    SHARD_PREFIX = 2

    def path(self, digest: str, stage_name: str) -> Path | None:
        """Cache file for one stage digest (None when disabled).

        Entries shard over ``stages/<digest prefix>/`` directories —
        digest-prefix fanout keeps each directory small under served
        traffic and gives the eviction scan natural units.  Every entry
        is an ``.rpb`` container, and the filename embeds
        :func:`~repro.exec.store.cache_version`, so a codec bump can
        never address (or half-decode) an older format's entries.
        """
        if self._dir is None:
            return None
        shard = digest[: self.SHARD_PREFIX]
        return self._dir / shard / f"v{cache_version()}_{stage_name}_{digest[:24]}.rpb"

    def load(self, digest: str, stage_name: str):
        """Stored payload for a stage digest, or None on miss/corruption.

        Containers decode zero-copy: arrays in the returned payload are
        read-only mmap views, so the payload tree carries plain
        ``np.ndarray`` leaves.
        """
        path = self.path(digest, stage_name)
        payload = None
        if path is not None:
            started = time.perf_counter()
            loaded = read_payload_file(path)
            if loaded is not None:
                payload, nbytes = loaded
                self.stats.bytes_decoded[stage_name] += nbytes
            self.stats.load_seconds[stage_name] += time.perf_counter() - started
        if payload is None:
            self.stats.misses[stage_name] += 1
        else:
            self.stats.hits[stage_name] += 1
            _touch(path)  # refresh the eviction loop's LRU clock
        return payload

    def store(self, digest: str, stage_name: str, payload) -> None:
        """Atomically persist one stage payload as a columnar container."""
        path = self.path(digest, stage_name)
        if path is None:
            return
        started = time.perf_counter()
        try:
            # durable=False: a torn container self-heals as a cache miss
            # on the next read, so stage entries trade the fsync (which
            # would dominate cold writes at hundreds of MiB) for speed.
            nbytes = write_payload_atomic(path, payload, durable=False)
        except OSError:
            # A full or failing disk degrades the cache, never the run:
            # the payload is already in memory, the slot stays a miss.
            self.stats.store_errors[stage_name] += 1
            self.stats.store_seconds[stage_name] += time.perf_counter() - started
            return
        self.stats.bytes_encoded[stage_name] += nbytes
        self.stats.store_seconds[stage_name] += time.perf_counter() - started


_STORES: dict[str, StageStore] = {}


def stage_store_for(config) -> StageStore:
    """Process-local shared store for one configuration's cache_dir.

    Sharing one instance per directory makes the hit counters meaningful
    across every cell executed in this process, which is what the CLI
    ``--verbose``/``--profile`` summaries and the invalidation tests
    read.
    """
    key = str(config.cache_dir or "")
    if key not in _STORES:
        _STORES[key] = StageStore(key)
    return _STORES[key]
