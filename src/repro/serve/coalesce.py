"""Request coalescing: identical in-flight cells share one execution.

The unit of work is a *digest* — the exec engine's dedup address of one
(request, configuration) pair — so "identical" means exactly what the
batch scheduler means by it.  The first submission of a digest creates a
:class:`CellRecord` and schedules the execution; every further
submission of the same digest while it is queued/running just attaches
to that record.  64 concurrent identical POSTs are one scheduled cell.

A record's execution task is owned by the coalescer, **not** by any
client connection: handlers ``await record.wait_done()``, and a client
disconnect cancels only that wait — the shared execution keeps running
for everyone else (and for the cache).  Failed digests are retried on
the next submission; done records are kept as the server's in-memory
result memo (the store holds the durable copy).

All state lives on the event loop; executions themselves run on a
thread pool, and only their completion callback touches the record.
"""

from __future__ import annotations

import asyncio
import time
from typing import Awaitable, Callable

from repro.api.service import CellStatus, CellSubmission

__all__ = ["CellRecord", "Coalescer"]


class CellRecord:
    """Lifecycle of one served cell digest."""

    def __init__(self, digest: str, submission: CellSubmission) -> None:
        self.digest = digest
        self.submission = submission
        self.state = "queued"
        self.source: str | None = None
        self.error: str | None = None
        self.result: object | None = None
        self.coalesced = 1
        self.created = time.monotonic()
        self.seconds: float | None = None
        self.events: list[dict] = []
        self.task: asyncio.Task | None = None
        self._done = asyncio.Event()
        self._waiters: set[asyncio.Event] = set()
        self.publish({"event": "queued", "digest": digest})

    @property
    def done(self) -> bool:
        """Whether the record reached a terminal state."""
        return self.state in ("done", "failed")

    def publish(self, event: dict) -> None:
        """Append one progress event and wake streaming subscribers."""
        event.setdefault("t", round(time.monotonic() - self.created, 4))
        self.events.append(event)
        for waiter in self._waiters:
            waiter.set()

    async def follow(self):
        """Yield every event, past and future, until the record is done.

        Each subscriber holds its own wake-up event, so any number of
        streaming clients can follow one execution; a subscriber that
        disconnects simply stops iterating (its waiter is discarded in
        the ``finally``) without touching the shared record.
        """
        index = 0
        waiter = asyncio.Event()
        self._waiters.add(waiter)
        try:
            while True:
                while index < len(self.events):
                    yield self.events[index]
                    index += 1
                if self.done:
                    return
                waiter.clear()
                await waiter.wait()
        finally:
            self._waiters.discard(waiter)

    def finish(self, result: object, source: str) -> None:
        """Terminal success transition."""
        self.result = result
        self.source = source
        self.state = "done"
        self.seconds = round(time.monotonic() - self.created, 6)
        self.publish(
            {"event": "done", "source": source, "seconds": self.seconds}
        )
        self._done.set()

    def fail(self, error: str) -> None:
        """Terminal failure transition."""
        self.error = error
        self.state = "failed"
        self.seconds = round(time.monotonic() - self.created, 6)
        self.publish({"event": "failed", "error": error})
        self._done.set()

    async def wait_done(self) -> None:
        """Block until terminal; cancellable per-waiter (see module doc)."""
        await self._done.wait()

    def status(self) -> CellStatus:
        """Typed snapshot for the JSON API."""
        return CellStatus(
            digest=self.digest,
            state=self.state,
            submission=self.submission,
            source=self.source,
            coalesced=self.coalesced,
            error=self.error,
            seconds=self.seconds,
        )


class Coalescer:
    """Digest-keyed table of served cells with in-flight dedup."""

    def __init__(self) -> None:
        self._records: dict[str, CellRecord] = {}
        self.submissions = 0
        self.coalesced = 0
        self.executions = 0
        self.active = 0
        self.peak_active = 0

    def get(self, digest: str) -> CellRecord | None:
        """The record for a digest, if the server has seen it."""
        return self._records.get(digest)

    def records(self) -> list[CellRecord]:
        """All records (status endpoint)."""
        return list(self._records.values())

    @property
    def in_flight(self) -> int:
        """Records not yet terminal."""
        return sum(1 for r in self._records.values() if not r.done)

    def complete(
        self, digest: str, submission: CellSubmission, result: object, source: str
    ) -> CellRecord:
        """Record an already-materialised result (memo/disk warm hit)."""
        self.submissions += 1
        record = CellRecord(digest, submission)
        record.finish(result, source)
        self._records[digest] = record
        return record

    def submit(
        self,
        digest: str,
        submission: CellSubmission,
        execute: Callable[[], Awaitable[object]],
    ) -> tuple[CellRecord, bool]:
        """Attach to (or create) the execution for a digest.

        Returns ``(record, created)``.  ``execute`` is only awaited for
        the *first* submission; it runs in a task owned by the
        coalescer, shielded from any individual client's cancellation.
        A previously failed digest is retried with a fresh record.
        """
        self.submissions += 1
        record = self._records.get(digest)
        if record is not None and record.state != "failed":
            record.coalesced += 1
            self.coalesced += 1
            record.publish({"event": "coalesced", "n": record.coalesced})
            return record, False

        record = CellRecord(digest, submission)
        self._records[digest] = record
        self.executions += 1

        async def _drive() -> None:
            self.active += 1
            self.peak_active = max(self.peak_active, self.active)
            record.state = "running"
            record.publish({"event": "started"})
            try:
                result, source = await execute()
            except asyncio.CancelledError:  # pragma: no cover - drain path
                record.fail("cancelled by server shutdown")
                raise
            except Exception as exc:
                record.fail(f"{type(exc).__name__}: {exc}")
            else:
                record.finish(result, source)
            finally:
                self.active -= 1

        record.task = asyncio.create_task(_drive())
        return record, True

    def snapshot(self) -> dict:
        """Status-endpoint counters."""
        return {
            "submissions": self.submissions,
            "coalesced": self.coalesced,
            "executions": self.executions,
            "in_flight": self.in_flight,
            "active_executions": self.active,
            "peak_concurrent_executions": self.peak_active,
            "records": len(self._records),
        }
