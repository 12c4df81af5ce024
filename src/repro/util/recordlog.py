"""Crash-safe append-only record log (CRC-framed JSON records).

The serve daemon's restart journal (:mod:`repro.serve.journal`) is
written in this framing; its one torn-tail recovery path is tested at
every byte boundary (``tests/properties/test_torn_writes.py``).

Frame layout, repeated until EOF::

    offset 0   magic  b"RLG1"           (file header, written once)
    ...        uint32 little-endian payload length L
    ...        uint32 little-endian CRC32 of the payload bytes
    ...        L bytes of UTF-8 JSON (one record)

A record is visible iff its full frame made it to disk with a matching
CRC.  :func:`RecordLog.replay` scans from the start and stops at the
first torn frame (short header, short payload, or CRC mismatch); the
log is then **truncated back to the last good frame** — the torn-tail
self-heal — so a crashed writer can never poison later appends or make
two replays disagree.  Healed byte counts are reported to
:func:`repro.exec.health.record_heal` so the recovery is observable
(``--profile``, ``/v1/status``) instead of silent.

Appends go through one ``'ab'`` handle and are flushed and fsynced
per record.  :meth:`RecordLog.compact` atomically rewrites the log
with a caller-chosen subset of records (temp file + ``os.replace``).
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
import threading
import zlib
from pathlib import Path

__all__ = ["RECORDLOG_MAGIC", "RecordLog", "ReplayReport"]

RECORDLOG_MAGIC = b"RLG1"
_FRAME = struct.Struct("<II")


class ReplayReport:
    """Outcome of one :meth:`RecordLog.replay` scan."""

    def __init__(self, records: list, healed_bytes: int) -> None:
        self.records = records
        self.healed_bytes = healed_bytes

    def __iter__(self):
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)


class RecordLog:
    """One append-only CRC-framed JSON record log.

    Parameters
    ----------
    path:
        Log file location (parent directories are created lazily).
    """

    def __init__(self, path: Path | str) -> None:
        self.path = Path(path)
        self._handle = None
        self._lock = threading.Lock()

    # ----------------------------------------------------------- replay
    def replay(self) -> ReplayReport:
        """Read every intact record; self-heal a torn tail.

        Returns a :class:`ReplayReport` whose ``records`` are the
        decoded JSON values in append order and whose ``healed_bytes``
        counts bytes truncated away (0 on a clean log).  A missing file
        replays as empty; a log with a corrupt *header* (bad magic) is
        renamed aside rather than deleted, so forensic bytes survive
        while the writer gets a clean slate.
        """
        self.close()
        try:
            blob = self.path.read_bytes()
        except FileNotFoundError:
            return ReplayReport([], 0)
        except OSError:
            return ReplayReport([], 0)
        if not blob.startswith(RECORDLOG_MAGIC):
            self._quarantine_corrupt()
            return ReplayReport([], len(blob))
        records: list = []
        offset = len(RECORDLOG_MAGIC)
        good_end = offset
        while offset + _FRAME.size <= len(blob):
            length, crc = _FRAME.unpack_from(blob, offset)
            start = offset + _FRAME.size
            end = start + length
            if end > len(blob):
                break  # torn: header landed, payload did not
            payload = blob[start:end]
            if zlib.crc32(payload) != crc:
                break  # torn or bit-rotted payload
            try:
                records.append(json.loads(payload))
            except (json.JSONDecodeError, UnicodeDecodeError):
                break  # CRC collision on garbage: treat as torn
            offset = end
            good_end = end
        healed = len(blob) - good_end
        if healed:
            self._truncate_to(good_end)
            from repro.exec.health import record_heal

            record_heal("journal")
        return ReplayReport(records, healed)

    def _truncate_to(self, good_end: int) -> None:
        try:
            with open(self.path, "r+b") as handle:
                handle.truncate(good_end)
        except OSError:
            pass  # next append recreates; replay already dropped the tail

    def _quarantine_corrupt(self) -> None:
        from repro.exec.health import record_heal

        try:
            os.replace(self.path, self.path.with_suffix(".corrupt"))
        except OSError:
            try:
                self.path.unlink()
            except OSError:
                pass
        record_heal("journal")

    # ----------------------------------------------------------- append
    def append(self, record) -> None:
        """Append one JSON-shaped record (atomic at frame granularity)."""
        payload = json.dumps(record, sort_keys=True).encode("utf-8")
        frame = _FRAME.pack(len(payload), zlib.crc32(payload)) + payload
        with self._lock:
            handle = self._open_for_append()
            if handle is None:
                return
            try:
                handle.write(frame)
                handle.flush()
                os.fsync(handle.fileno())
            except OSError:
                # A full or failing disk must degrade the journal, not
                # the run it shadows; the next replay simply sees fewer
                # records (and heals any torn frame this write left).
                self.close_locked()

    def _open_for_append(self):
        if self._handle is None:
            try:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                fresh = not self.path.exists() or self.path.stat().st_size == 0
                self._handle = open(self.path, "ab")
                if fresh:
                    self._handle.write(RECORDLOG_MAGIC)
            except OSError:
                self._handle = None
        return self._handle

    # ---------------------------------------------------------- compact
    def compact(self, records: list) -> int:
        """Atomically rewrite the log to exactly ``records``.

        Returns the compacted byte size.  Used by the serve daemon's
        drain-aware compaction: a journal that has accumulated one
        frame per progress event shrinks to one summary frame per
        terminal cell.
        """
        with self._lock:
            self.close_locked()
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                dir=self.path.parent, prefix=self.path.name, suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(RECORDLOG_MAGIC)
                    for record in records:
                        payload = json.dumps(record, sort_keys=True).encode("utf-8")
                        handle.write(
                            _FRAME.pack(len(payload), zlib.crc32(payload)) + payload
                        )
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(tmp_name, self.path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        return self.size()

    # ------------------------------------------------------------- misc
    def size(self) -> int:
        """Current log size in bytes (0 when absent)."""
        try:
            return self.path.stat().st_size
        except OSError:
            return 0

    def close_locked(self) -> None:
        """Close the append handle; caller already holds the lock."""
        if self._handle is not None:
            try:
                self._handle.close()
            except OSError:
                pass
            self._handle = None

    def close(self) -> None:
        """Close the append handle (reopened lazily by the next append)."""
        with self._lock:
            self.close_locked()

    def __enter__(self) -> "RecordLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
