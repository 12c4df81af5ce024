"""Content-addressed, atomically-written study cache.

A cache keyed by a hand-picked subset of the protocol (seed, discovery
runs, repetitions) would silently serve stale summaries after a change
to ``maxK``, ``bbv_weight`` or the measurement overhead.
:class:`StudyStore` instead hashes the *full* serialized pipeline
configuration together with the request identity, so any knob that can
change a number changes the address.

Writes go to a temporary file in the same directory followed by
:func:`os.replace`, so a crashed or concurrently-writing process can
never leave a torn JSON file behind; a corrupt entry (truncated file,
bad JSON) is treated as a miss and deleted so the next write heals it.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import asdict
from pathlib import Path

from repro.exec.columnar import read_payload_file, unlink_when_closed, write_payload_atomic
from repro.exec.request import StudyRequest

__all__ = [
    "CACHE_VERSION",
    "cache_version",
    "config_fingerprint",
    "request_digest",
    "StudyStore",
    "read_json",
    "write_json_atomic",
]

#: Bump when payload contents or the underlying models change shape, or
#: when an ambient input to their float bits changes (10: one BLAS
#: thread per process; 11: trace payloads dropped their tile count and
#: oracle flag).
CACHE_VERSION = 11


def cache_version() -> str:
    """The full cache version: payload schema **and** codec.

    Both halves are part of every cache filename and digest, so a codec
    bump relocates every entry instead of asking the new reader to decode
    an old format — stale entries are simply never addressed again.
    """
    from repro.api.codec import CODEC_VERSION  # lazy: avoids api↔exec cycle

    return f"{CACHE_VERSION}.{CODEC_VERSION}"


def read_json(path: Path):
    """Read one JSON cache entry; None on miss or corruption.

    A corrupt entry (truncated file, bad JSON) is removed so the slot
    can be rewritten cleanly by the next write.
    """
    if not path.exists():
        return None
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError, UnicodeDecodeError):
        from repro.exec.health import record_heal

        try:
            path.unlink()
        except OSError:
            pass
        record_heal("json")
        return None


def write_json_atomic(path: Path, payload) -> None:
    """Atomically persist one JSON payload (temp file + fsync + rename).

    Consults the fault plane first: an injected ``enospc`` raises
    before any byte lands; an injected ``torn`` write publishes a
    deliberately truncated entry, which the next :func:`read_json`
    must recover as a clean miss (the self-heal path under test).
    """
    from repro.exec.faults import active_plan

    fault = active_plan().on_write(path.name)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(payload, indent=1, sort_keys=True)
    if fault == "torn":
        torn = text[: max(1, len(text) // 2)]
        try:
            json.loads(torn)
        except json.JSONDecodeError:
            text = torn
        else:
            # A prefix of a scalar payload can still be valid JSON; a
            # torn entry must read as *corrupt*, never as wrong bytes,
            # so fall back to trailing frame garbage instead.
            text = text + "\x00"
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
            handle.flush()
            # fsync before rename: os.replace is atomic in the namespace
            # but only durable once the temp file's data has hit disk —
            # without it a power cut can leave the *renamed* entry empty.
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _touch(path: Path) -> None:
    """Bump a cache entry's mtime — the eviction loop's LRU clock.

    Filesystems are routinely mounted ``noatime``, so reads would be
    invisible to a pure-stat recency scan; an explicit utime on every
    hit makes the serve daemon's size-budgeted eviction a true LRU.
    """
    try:
        os.utime(path)
    except OSError:  # pragma: no cover - entry raced away
        pass


def config_fingerprint(config) -> str:
    """Hash every protocol knob that can influence a cell's result.

    ``config`` is an :class:`~repro.experiments.config.ExperimentConfig`;
    the fingerprint covers its full :class:`~repro.api.types.PipelineConfig`
    (discovery runs, every SimPoint option, the measurement protocol
    including the per-read overhead model, ``bbv_weight`` and the seed).
    Execution-only settings — ``thread_counts``, ``cache_dir``, ``jobs``,
    ``backend`` — are deliberately excluded: they change *how* cells run,
    never what they compute.
    """
    blob = json.dumps(
        {"cache_version": cache_version(), "pipeline": asdict(config.pipeline_config())},
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def request_digest(request: StudyRequest, fingerprint: str) -> str:
    """Content address of one (request, configuration) pair."""
    blob = json.dumps(
        {
            "fingerprint": fingerprint,
            "kind": request.kind,
            "app": request.app,
            "threads": request.threads,
            "params": [[k, v] for k, v in request.params],
        },
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class StudyStore:
    """Disk cache of JSON cell payloads under one configuration.

    Parameters
    ----------
    cache_dir:
        Directory holding the entries ('' disables the store — every
        ``load`` misses and ``store`` is a no-op).
    config:
        Experiment configuration; folded into every entry's address via
        :func:`config_fingerprint`.
    """

    def __init__(self, cache_dir: str | os.PathLike, config) -> None:
        self._dir = Path(cache_dir) if cache_dir else None
        self.fingerprint = config_fingerprint(config)

    @property
    def enabled(self) -> bool:
        """Whether a cache directory is configured."""
        return self._dir is not None

    #: Hex digits of the digest prefix used for directory fanout.  256
    #: shards keep per-directory entry counts flat even for stores with
    #: hundreds of thousands of cells, which is what the serve daemon's
    #: eviction scan and warm ``GET`` lookups walk.
    SHARD_PREFIX = 2

    def digest(self, request: StudyRequest) -> str:
        """Content digest of one request under this configuration.

        This is the dedup digest the scheduler coalesces on and the
        public cell address of the serve API (``/v1/cells/{digest}``).
        """
        return request_digest(request, self.fingerprint)

    def path(self, request: StudyRequest) -> Path | None:
        """Cache file for one request (None when the store is disabled).

        Entries fan out over ``cells/<digest prefix>/`` shard
        directories so the store scales to served traffic: lookups stay
        O(1) directory walks and the eviction scan can budget per shard.
        """
        if self._dir is None:
            return None
        digest = self.digest(request)
        name = (
            f"v{cache_version()}_{request.kind}_{request.app}"
            f"_t{request.threads}_{digest[:20]}.json"
        )
        return self._dir / "cells" / digest[: self.SHARD_PREFIX] / name

    def find_by_digest(self, digest: str) -> Path | None:
        """Locate one persisted cell entry by its full request digest.

        The serve daemon answers ``GET /v1/cells/{digest}`` for cells it
        has no in-memory record of (e.g. after a restart) by scanning
        the digest's shard directory — 256-way fanout keeps that scan a
        handful of entries.  Returns the JSON or container path, or
        None when nothing matching this configuration's cache version is
        on disk.
        """
        if self._dir is None or len(digest) < 20:
            return None
        shard = self._dir / "cells" / digest[: self.SHARD_PREFIX]
        marker = f"_{digest[:20]}"
        prefix = f"v{cache_version()}_"
        try:
            candidates = sorted(shard.iterdir())
        except OSError:
            return None
        for path in candidates:
            if path.name.startswith(prefix) and marker in path.stem:
                return path
        return None

    def load_by_digest(self, digest: str):
        """Decode one persisted cell payload by digest (None on miss)."""
        path = self.find_by_digest(digest)
        return None if path is None else self._read(path.with_suffix(".json"))

    def load(self, request: StudyRequest):
        """Stored payload for a request, or None on miss/corruption.

        Scalar payloads live in the JSON plane; an array-bearing payload
        (written by :meth:`store` or a worker's reference transport)
        lives in a columnar container next to it and decodes zero-copy.
        A corrupt entry is removed so the slot can be rewritten cleanly.
        """
        path = self.path(request)
        return None if path is None else self._read(path)

    @staticmethod
    def _read(path: Path):
        """Read the JSON entry at ``path``, else its ``.rpb`` container,
        and refresh the hit's LRU clock (None on miss or corruption)."""
        payload = read_json(path)
        if payload is None:
            path = path.with_suffix(".rpb")
            loaded = read_payload_file(path)
            if loaded is None:
                return None
            payload = loaded[0]
        _touch(path)
        return payload

    def store(self, request: StudyRequest, payload) -> None:
        """Atomically persist one cell payload (temp file + rename).

        JSON for scalar/metadata payloads; any :class:`numpy.ndarray`
        in the tree routes the whole payload to a binary columnar
        container instead.
        """
        path = self.path(request)
        if path is None:
            return
        from repro.api.codec import payload_has_arrays

        if payload_has_arrays(payload):
            write_payload_atomic(path.with_suffix(".rpb"), payload)
        else:
            write_json_atomic(path, payload)

    # ------------------------------------------------- process transport
    def spill_path(self, request: StudyRequest) -> Path | None:
        """Hand-off file for one uncacheable cell's payload (see below)."""
        if self._dir is None:
            return None
        digest = request_digest(request, self.fingerprint)
        return self._dir / "spill" / f"{request.kind}_{digest[:24]}_{os.getpid()}.rpb"

    def spill(self, request: StudyRequest, payload) -> str | None:
        """Write one payload to the spill area; returns the path.

        The ``processes`` backend ships large payloads as file handles
        instead of pickled bytes: the worker spills (columnar container,
        so arrays stay binary), the scheduler reattaches via
        :meth:`reclaim` — an mmap read plus one unlink, not a pickle of
        megabytes over a pipe.  Cacheable cells don't need this (they
        travel through :meth:`store`/:meth:`load`); the spill area
        serves the :data:`~repro.exec.cells.CELL_LEVEL_UNCACHED` kinds.
        """
        path = self.spill_path(request)
        if path is None:
            return None
        # durable=False: a spill file lives for one scheduler round trip
        # within one machine boot; crash-durability buys nothing.
        write_payload_atomic(path, payload, durable=False)
        return str(path)

    def reclaim(self, path: str):
        """Reattach one spilled payload (mmap read) and delete the file.

        Deletion goes through the columnar open-handle guard: the
        zero-copy ``np.frombuffer`` views the ``.rpb`` read just handed
        back register their mapping (via a finalizer on it), so the
        unlink is deferred until the last view dies instead of yanking
        bytes out from under a reader.
        """
        loaded = read_payload_file(Path(path))
        if loaded is None:
            raise RuntimeError(f"spilled payload vanished or was torn: {path}")
        payload, _ = loaded
        unlink_when_closed(path)
        return payload
