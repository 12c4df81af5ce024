"""The serve daemon's crash-safe restart journal.

The coalescer's record table is the daemon's memory of every cell it
has served — warm-hit answers, ``/events`` history, the counters behind
``/v1/status``.  It used to live only in process memory: a restart
(deploy, OOM, crash) forgot every completed cell, so clients saw cold
misses and ``/events`` reconnects found 404s.  :class:`ServeJournal`
writes one CRC-framed record per lifecycle transition (submitted,
done, failed) to an append-only :class:`~repro.util.recordlog
.RecordLog`; on boot the server replays it — healing any torn tail
left by a crashed writer — and restores a terminal
:class:`~repro.serve.coalesce.CellRecord` per completed digest.
Results themselves are **not** journaled: the content-addressed store
already holds the durable payloads, so a restored record re-hydrates
lazily from disk on its first hit.

The journal is fsync-per-append: it is the daemon's only restart
state, and one fsync per cell completion is noise next to the cell's
execution.  On graceful drain the journal is *compacted* —
rewritten with exactly one summary frame per terminal cell, dropping
the submitted/failed chatter — so a long-lived daemon's journal scales
with its distinct completed cells, not its request history.
"""

from __future__ import annotations

from pathlib import Path

from repro.util.recordlog import RecordLog

__all__ = ["ServeJournal"]

#: Journal file location under the cache directory.
JOURNAL_NAME = "serve/serve.journal"


class ServeJournal:
    """Append-only journal of served-cell lifecycle transitions.

    Disabled (all methods no-ops, replay empty) without a cache
    directory — a store-less daemon has nothing durable to restore
    results from, so journaling digests would only promise what a
    restart cannot deliver.
    """

    def __init__(self, cache_dir: str) -> None:
        self._log = RecordLog(Path(cache_dir) / JOURNAL_NAME) if cache_dir else None
        #: Bytes truncated by the last replay's torn-tail self-heal.
        self.healed_bytes = 0

    @property
    def enabled(self) -> bool:
        return self._log is not None

    # ------------------------------------------------------------ replay
    def replay(self) -> list[dict]:
        """Decode the journal (healing a torn tail); lifecycle records."""
        if self._log is None:
            return []
        report = self._log.replay()
        self.healed_bytes = report.healed_bytes
        return [r for r in report.records if isinstance(r, dict)]

    def terminal_records(self) -> dict[str, dict]:
        """Replay folded down to the *last* terminal record per digest.

        Later records win: a digest that failed and then succeeded on a
        re-submission restores as done.
        """
        terminal: dict[str, dict] = {}
        for record in self.replay():
            if record.get("type") in ("done", "failed") and record.get("digest"):
                terminal[record["digest"]] = record
        return terminal

    # ------------------------------------------------------------ append
    def record_submitted(self, digest: str, submission) -> None:
        """One execution was created for a digest."""
        if self._log is not None:
            self._log.append(
                {
                    "type": "submitted",
                    "digest": digest,
                    "submission": submission.to_json(),
                }
            )

    def record_done(
        self, digest: str, submission, source: str, seconds: float | None
    ) -> None:
        """A digest reached ``done`` (the record a restart restores)."""
        if self._log is not None:
            self._log.append(
                {
                    "type": "done",
                    "digest": digest,
                    "submission": submission.to_json(),
                    "source": source,
                    "seconds": seconds,
                }
            )

    def record_failed(self, digest: str, submission, error: str) -> None:
        """A digest failed (kept so replay knows not to restore it)."""
        if self._log is not None:
            self._log.append(
                {
                    "type": "failed",
                    "digest": digest,
                    "submission": submission.to_json(),
                    "error": error,
                }
            )

    # ----------------------------------------------------------- compact
    def compact(self, records) -> int:
        """Drain-aware compaction: one ``done`` summary per finished cell.

        ``records`` are live :class:`CellRecord` instances; only those
        in state ``done`` survive (failed and in-flight cells must
        re-execute after a restart anyway).  Returns the compacted byte
        size, or 0 when disabled.
        """
        if self._log is None:
            return 0
        summaries = [
            {
                "type": "done",
                "digest": record.digest,
                "submission": record.submission.to_json(),
                "source": record.source,
                "seconds": record.seconds,
            }
            for record in records
            if record.state == "done"
        ]
        return self._log.compact(summaries)

    # ------------------------------------------------------------- misc
    def size(self) -> int:
        return self._log.size() if self._log is not None else 0

    def close(self) -> None:
        if self._log is not None:
            self._log.close()
