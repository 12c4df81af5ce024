"""The content-addressed artifact store.

One layout holds every cache entry, and only :class:`ArtifactStore`
knows it::

    <cache_dir>/v<schema>.<codec>/cells/<xx>/<name>_<digest>.rpb
                                 /stages/<xx>/<name>_<digest>.rpb
                                 /spill/<xx>/<name>_<digest>.rpb

``<xx>`` is the first two hex characters of the digest.  Every entry is
a binary columnar container (:mod:`repro.exec.columnar`), written to a
temporary file in the same directory and published with
:func:`os.replace`, so a crashed or concurrent writer never leaves a
torn entry behind; a corrupt entry reads as a miss and is deleted so
the next write heals it.  The version is one directory level, so a
version bump leaves the old entries in one sibling directory that
:meth:`ArtifactStore.prune` removes with one ``rmtree``.

:class:`StudyStore` derives the cell keys.  It hashes the *full*
serialized pipeline configuration together with the request identity,
so any knob that can change a number changes the address: a key built
from a hand-picked subset of the protocol (seed, discovery runs,
repetitions) would silently serve stale summaries after a change to
``maxK``, ``bbv_weight`` or the measurement overhead.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
from dataclasses import asdict
from pathlib import Path
from typing import Iterator

from repro.exec.columnar import read_payload_file, write_payload_atomic
from repro.exec.request import StudyRequest

__all__ = [
    "CACHE_VERSION",
    "CELLS",
    "STAGES",
    "SPILL",
    "ArtifactStore",
    "cache_version",
    "config_fingerprint",
    "request_digest",
    "StudyStore",
]

#: Bump when payload contents or the underlying models change shape, or
#: when an ambient input to their float bits changes (10: one BLAS
#: thread per process; 11: trace payloads dropped their tile count and
#: oracle flag; 12: full scale clusters with the exact solver, and the
#: SimPoint options lost ``algorithm`` and ``batch_size``; 13: ``measure``
#: keeps only the representatives' mean rows, and ``profile``,
#: ``rankify`` and ``cluster`` are no longer stored; 14: rank jobs run
#: through ``profile`` and ``signature``, whose key now names the rank
#: count and phases, so every stage digest moved; 15: ``select`` keeps
#: the representatives' weights and the ROI total, not every barrier
#: point's label and weight; 16: ``measure`` keeps each selection's
#: reconstructed estimates, not its representatives' readings; 17:
#: ``measure`` also validates, and keeps each selection's error spread,
#: not its per-repetition estimates and ROI reads).
CACHE_VERSION = 17

#: The store's namespaces: cell payloads, stage payloads, and the
#: one-shot hand-off files of the ``processes`` backend.
CELLS, STAGES, SPILL = "cells", "stages", "spill"


def cache_version() -> str:
    """The full cache version: payload schema **and** codec.

    Both halves name the store's version directory and seed every
    digest, so a codec bump relocates every entry instead of asking the
    new reader to decode an old format.
    """
    from repro.api.codec import CODEC_VERSION  # lazy: avoids api↔exec cycle

    return f"{CACHE_VERSION}.{CODEC_VERSION}"


class ArtifactStore:
    """The on-disk layout of one cache directory.

    Entries are addressed by ``(namespace, name, digest)``: ``name`` is
    a readable label (a stage name, a cell's kind/app/threads) and
    ``digest`` a hex content address.  Cell entries are fsynced before
    they are published; stage and spill entries are not, because a torn
    one self-heals as a miss and an fsync per stage payload would slow
    the cold path the cache exists to speed up.  A read loads the whole
    entry (:func:`~repro.exec.columnar.read_payload_file`), so deleting
    an entry never disturbs a payload already read.

    Parameters
    ----------
    cache_dir:
        The cache root ('' disables the store: reads miss, writes are
        no-ops, nothing is pruned).
    """

    #: Hex digits of the digest prefix used for directory fanout.  256
    #: shards keep per-directory entry counts flat even for stores with
    #: hundreds of thousands of entries, which is what the serve
    #: daemon's eviction scan and digest lookups walk.
    SHARD_PREFIX = 2
    SUFFIX = ".rpb"

    #: What older versions wrote straight under the cache root: the
    #: layout from before the version became a directory level, the
    #: study checkpoint and the serve daemon's journal.
    UNVERSIONED = (CELLS, STAGES, "traces", "checkpoints", SPILL, "serve")
    _VERSION_DIR = re.compile(r"v\d+\.\d+")

    def __init__(self, cache_dir: str | os.PathLike) -> None:
        self.cache_dir = Path(cache_dir) if cache_dir else None

    @property
    def enabled(self) -> bool:
        """Whether a cache directory is configured."""
        return self.cache_dir is not None

    @property
    def root(self) -> Path | None:
        """The current version's directory (None when disabled).

        Read on every use, so a process that sees the version change
        addresses the new directory.
        """
        if self.cache_dir is None:
            return None
        return self.cache_dir / f"v{cache_version()}"

    def path(self, namespace: str, name: str, digest: str) -> Path | None:
        """File of one entry (None when the store is disabled)."""
        root = self.root
        if root is None:
            return None
        shard = digest[: self.SHARD_PREFIX]
        return root / namespace / shard / f"{name}_{digest}{self.SUFFIX}"

    def write(self, namespace: str, name: str, digest: str, payload) -> int:
        """Atomically persist one payload; returns the bytes written.

        Raises ``OSError`` when the disk refuses the write (a real or an
        injected ``ENOSPC``); callers decide whether that degrades the
        cache or fails the call.
        """
        path = self.path(namespace, name, digest)
        if path is None:
            return 0
        return write_payload_atomic(path, payload, durable=namespace == CELLS)

    def read(self, namespace: str, name: str, digest: str) -> tuple[object, int] | None:
        """``(payload, nbytes)`` of one entry, or None on miss/corruption."""
        path = self.path(namespace, name, digest)
        return None if path is None else self._read(path)

    def find(self, namespace: str, digest: str) -> tuple[object, int] | None:
        """Read the entry of ``namespace`` with this full digest, whatever
        its name (None on miss).  Scans one shard directory."""
        root = self.root
        if root is None:
            return None
        shard = root / namespace / digest[: self.SHARD_PREFIX]
        suffix = f"_{digest}{self.SUFFIX}"
        try:
            names = sorted(os.listdir(shard))
        except OSError:
            return None
        for name in names:
            if name.endswith(suffix):
                return self._read(shard / name)
        return None

    @staticmethod
    def _read(path: Path) -> tuple[object, int] | None:
        loaded = read_payload_file(path)
        if loaded is not None:
            # A hit bumps the mtime, the evictor's LRU clock: reads are
            # invisible to a stat scan on ``noatime`` mounts.
            try:
                os.utime(path)
            except OSError:  # pragma: no cover - entry raced away
                pass
        return loaded

    def entries(self) -> Iterator[Path]:
        """Every cell and stage entry of the current version.

        Spill files are live hand-offs between processes, not cache, so
        eviction never sees them.
        """
        root = self.root
        if root is None:
            return
        for namespace in (CELLS, STAGES):
            yield from (root / namespace).glob(f"*/*{self.SUFFIX}")

    def prune(self) -> list[str]:
        """Delete every stale layout under the cache root; the names removed.

        Stale are the sibling version directories (``v<int>.<int>``)
        and the unversioned layout older versions wrote at the root.
        Any other name there is left alone.
        """
        root = self.root
        if root is None:
            return []
        try:
            children = sorted(root.parent.iterdir())
        except OSError:
            return []
        removed = []
        for child in children:
            stale = child.name in self.UNVERSIONED or (
                child != root and self._VERSION_DIR.fullmatch(child.name)
            )
            if stale and child.is_dir():
                # A concurrent run may be removing the same directory.
                shutil.rmtree(child, ignore_errors=True)
                removed.append(child.name)
        return removed


def config_fingerprint(config) -> str:
    """Hash every protocol knob that can influence a cell's result.

    ``config`` is an :class:`~repro.experiments.config.ExperimentConfig`;
    the fingerprint covers its full :class:`~repro.api.types.PipelineConfig`
    (discovery runs, every SimPoint option, the measurement protocol
    including the per-read overhead model, ``bbv_weight`` and the seed).
    Execution-only settings — ``thread_counts``, ``cache_dir``, ``jobs``
    — are deliberately excluded: they change *how* cells run, never what
    they compute.
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
    """Cell payloads under one configuration, over an :class:`ArtifactStore`.

    Parameters
    ----------
    cache_dir:
        The cache root ('' disables the store — every ``load`` misses
        and ``store`` is a no-op).
    config:
        Experiment configuration; folded into every entry's address via
        :func:`config_fingerprint`.
    """

    def __init__(self, cache_dir: str | os.PathLike, config) -> None:
        self.artifacts = ArtifactStore(cache_dir)
        self.fingerprint = config_fingerprint(config)

    @property
    def enabled(self) -> bool:
        """Whether a cache directory is configured."""
        return self.artifacts.enabled

    def digest(self, request: StudyRequest) -> str:
        """Content digest of one request under this configuration.

        This is the dedup digest the scheduler coalesces on and the
        public cell address of the serve API (``/v1/cells/{digest}``).
        """
        return request_digest(request, self.fingerprint)

    @staticmethod
    def _name(request: StudyRequest) -> str:
        return f"{request.kind}_{request.app}_t{request.threads}"

    def path(self, request: StudyRequest) -> Path | None:
        """Cache file for one request (None when the store is disabled)."""
        return self.artifacts.path(CELLS, self._name(request), self.digest(request))

    def load(self, request: StudyRequest):
        """Stored payload for a request, or None on miss/corruption."""
        loaded = self.artifacts.read(CELLS, self._name(request), self.digest(request))
        return None if loaded is None else loaded[0]

    def load_by_digest(self, digest: str):
        """Decode one persisted cell payload by its full digest (None on miss).

        The serve daemon answers ``GET /v1/cells/{digest}`` and its
        ``/events`` for cells it has no in-memory record of (e.g. after a
        restart) this way.
        """
        loaded = self.artifacts.find(CELLS, digest)
        return None if loaded is None else loaded[0]

    def store(self, request: StudyRequest, payload) -> None:
        """Atomically persist one cell payload (fsynced, then renamed)."""
        self.artifacts.write(CELLS, self._name(request), self.digest(request), payload)

    # ------------------------------------------------- process transport
    def spill(self, request: StudyRequest, payload) -> str | None:
        """Write one payload to the spill area; returns the path.

        The ``processes`` backend ships large payloads of the
        :data:`~repro.exec.cells.CELL_LEVEL_UNCACHED` kinds as file
        handles instead of pickled bytes: the worker spills (columnar
        container, so arrays stay binary), the scheduler reattaches via
        :meth:`reclaim` — one read plus one unlink, not a pickle of
        megabytes over a pipe.  The worker's pid is part of the name, so
        two runs spilling the same cell never share a file.
        """
        name = f"{request.kind}_{os.getpid()}"
        digest = self.digest(request)
        path = self.artifacts.path(SPILL, name, digest)
        if path is None:
            return None
        self.artifacts.write(SPILL, name, digest, payload)
        return str(path)

    def reclaim(self, path: str):
        """Read one spilled payload back and delete its file.

        The read holds the whole container in memory, so the file goes
        at once and the payload stays readable.
        """
        loaded = read_payload_file(Path(path))
        if loaded is None:
            raise RuntimeError(f"spilled payload vanished or was torn: {path}")
        os.unlink(path)
        return loaded[0]
