"""The ``repro serve`` daemon.

One asyncio loop multiplexes every client connection; cell executions
run on a thread pool (numpy releases the GIL across the hot kernels, so
distinct cells genuinely overlap).  The loop owns all mutable state —
the coalescer's record table, the rate limiter, the counters — which is
what makes the handlers lock-free.

Request flow for ``POST /v1/cells``:

1. token-bucket rate limit per client address (429 + ``Retry-After``),
2. validate the typed submission and lower it to the *same*
   :class:`~repro.exec.request.StudyRequest` the batch CLI declares,
3. compute the exec engine's dedup digest — the public cell address,
4. memo hit → answer immediately; disk hit → read the ``.rpb``
   container and answer; otherwise coalesce onto the digest's
   execution (creating it if this is the first submission).

``?wait=1`` blocks the *handler* until the shared execution finishes;
cancelling that wait (client gone) never cancels the execution.

A background loop keeps the sharded store under its byte budget
(:class:`~repro.exec.eviction.StoreEvictor`, LRU), and SIGTERM/SIGINT
trigger a graceful drain: stop accepting, let in-flight cells finish
(bounded), then exit.
"""

from __future__ import annotations

import asyncio
import json
import signal
import time
from concurrent.futures import ThreadPoolExecutor

from repro.api.service import (
    CellStatus,
    CellSubmission,
    ServerStatus,
    SubmissionError,
)
from repro.clustering.simpoint import SimPointOptions
from repro.exec.cells import CELL_LEVEL_UNCACHED, execute_request
from repro.exec.eviction import StoreEvictor
from repro.exec.stagestore import stage_store_for
from repro.exec.store import StudyStore, cache_version
from repro.experiments.config import SCALES, default_config
from repro.serve.coalesce import Coalescer
from repro.serve.protocol import (
    HttpError,
    HttpRequest,
    json_body,
    read_request,
    render_response,
)
from repro.serve.ratelimit import RateLimiter

__all__ = ["ReproServer"]

#: How often the progress poller publishes stage activity while an
#: execution runs (seconds).
PROGRESS_INTERVAL = 0.25


class ReproServer:
    """Always-on artifact service over the scheduler + stores.

    Parameters
    ----------
    host / port:
        Bind address; ``port=0`` picks an ephemeral port (tests and the
        benchmark use this), readable from :attr:`port` after
        :meth:`start`.
    cache_dir:
        The store root shared with the batch CLI — a cell computed by
        ``repro all`` is a warm hit here and vice versa.
    jobs:
        Thread-pool width for cell executions.
    rate / burst:
        Per-client token bucket (``rate<=0`` disables limiting).
    budget_bytes:
        Store size budget; ``0`` disables the eviction loop.
    evict_interval:
        Seconds between eviction passes.
    drain_seconds:
        Grace given to in-flight executions on shutdown.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        cache_dir: str = ".repro-cache",
        jobs: int = 4,
        rate: float = 200.0,
        burst: float = 400.0,
        budget_bytes: int = 0,
        evict_interval: float = 30.0,
        drain_seconds: float = 10.0,
    ) -> None:
        self.host = host
        self.port = port
        self.cache_dir = cache_dir
        self.jobs = max(1, int(jobs))
        self.drain_seconds = drain_seconds
        self.evict_interval = evict_interval

        #: One configuration (and store) per protocol scale; built once
        #: so every digest computation without a ``max_k`` reuses the
        #: fingerprint.
        self.configs = {
            scale: default_config(scale, cache_dir=cache_dir) for scale in SCALES
        }
        self.stores = {
            scale: StudyStore(cache_dir, config)
            for scale, config in self.configs.items()
        }
        self.coalescer = Coalescer()
        self.limiter = RateLimiter(rate, burst)
        self.evictor = StoreEvictor(cache_dir, budget_bytes)
        #: Stale cache layouts :meth:`start` removed from the cache root.
        self.pruned: list[str] = []

        self.started = time.monotonic()
        self.counters: dict[str, int] = {
            "requests": 0,
            "warm_memo": 0,
            "warm_disk": 0,
            "computed": 0,
            "failures": 0,
            "rate_limited": 0,
            "eviction_passes": 0,
            "evicted_files": 0,
            "evicted_bytes": 0,
        }
        self._server: asyncio.AbstractServer | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._evict_task: asyncio.Task | None = None
        self._connections: set[asyncio.StreamWriter] = set()
        self._draining = False
        self._stopped = asyncio.Event()

    # ------------------------------------------------------------ lifecycle
    async def start(self) -> None:
        """Remove stale cache layouts, bind the listener and start the
        background loops."""
        self._executor = ThreadPoolExecutor(
            max_workers=self.jobs, thread_name_prefix="repro-serve"
        )
        self.pruned = await asyncio.get_running_loop().run_in_executor(
            self._executor, self.evictor.artifacts.prune
        )
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.evictor.enabled:
            self._evict_task = asyncio.create_task(self._eviction_loop())
        self._install_signal_handlers()

    async def serve_forever(self) -> None:
        """Run until :meth:`shutdown` (e.g. via SIGTERM) completes."""
        await self._stopped.wait()

    def _install_signal_handlers(self) -> None:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    signum, lambda: asyncio.ensure_future(self.shutdown())
                )
            except (NotImplementedError, ValueError, RuntimeError):
                # Non-main-thread loops (tests embed the server) and
                # platforms without signal support run fine without the
                # handlers; shutdown() stays directly callable.
                return

    async def shutdown(self) -> None:
        """Graceful drain: stop accepting, finish in-flight, stop."""
        if self._draining:
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._evict_task is not None:
            self._evict_task.cancel()
        pending = [
            record.task
            for record in self.coalescer.records()
            if record.task is not None and not record.done
        ]
        if pending:
            done, not_done = await asyncio.wait(
                pending, timeout=self.drain_seconds
            )
            for task in not_done:  # pragma: no cover - over-budget drain
                task.cancel()
        # Wake idle keep-alive connections (blocked in read_request)
        # with an EOF so their handler tasks unwind before the loop
        # stops instead of lingering until garbage collection.
        for writer in list(self._connections):
            writer.close()
        for _ in range(20):
            if not self._connections:
                break
            await asyncio.sleep(0.01)
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
        self._stopped.set()

    # ----------------------------------------------------------- background
    async def _eviction_loop(self) -> None:
        """Periodic size-budgeted LRU pass over the sharded store."""
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(self.evict_interval)
            # Counted here, on the loop thread that owns the counters.
            self._count_eviction(
                await loop.run_in_executor(None, self.evictor.evict)
            )

    def evict_now(self):
        """One synchronous eviction pass (tests and the CLI use this)."""
        return self._count_eviction(self.evictor.evict())

    def _count_eviction(self, report):
        self.counters["eviction_passes"] += 1
        self.counters["evicted_files"] += report.evicted_files
        self.counters["evicted_bytes"] += report.evicted_bytes
        return report

    # ----------------------------------------------------------- connection
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peer = writer.get_extra_info("peername")
        client = peer[0] if isinstance(peer, tuple) else str(peer)
        self._connections.add(writer)
        try:
            while not self._draining:
                try:
                    request = await read_request(reader)
                except HttpError as exc:
                    writer.write(self._error_bytes(exc, keep_alive=False))
                    await writer.drain()
                    break
                if request is None:
                    break
                request.client = client
                self.counters["requests"] += 1
                try:
                    closed = await self._dispatch(request, writer)
                except HttpError as exc:
                    writer.write(
                        self._error_bytes(exc, keep_alive=request.keep_alive)
                    )
                    await writer.drain()
                    closed = not request.keep_alive
                except (ConnectionResetError, BrokenPipeError):
                    # The peer vanished mid-response: not a server
                    # failure — any shared execution keeps running.
                    raise
                except Exception as exc:  # pragma: no cover - defensive 500
                    self.counters["failures"] += 1
                    error = HttpError(500, f"{type(exc).__name__}: {exc}")
                    writer.write(self._error_bytes(error, keep_alive=False))
                    await writer.drain()
                    closed = True
                if closed:
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass  # client went away; shared executions are unaffected
        finally:
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    @staticmethod
    def _error_bytes(exc: HttpError, keep_alive: bool) -> bytes:
        extra = {}
        if exc.retry_after is not None:
            extra["Retry-After"] = f"{exc.retry_after:.3f}"
        return render_response(
            exc.status,
            json_body({"error": exc.message, "status": exc.status}),
            keep_alive=keep_alive,
            extra_headers=extra,
        )

    async def _dispatch(
        self, request: HttpRequest, writer: asyncio.StreamWriter
    ) -> bool:
        """Route one request; returns True when the connection must close."""
        parts = request.path_parts
        if parts[:1] != ("v1",):
            raise HttpError(404, f"no such resource: {request.path}")
        route = parts[1:]

        if route == ("cells",):
            if request.method != "POST":
                raise HttpError(405, "cells accepts POST")
            body = await self._post_cell(request)
        elif len(route) == 2 and route[0] == "cells":
            if request.method != "GET":
                raise HttpError(405, "cell lookup accepts GET")
            body = await self._get_cell(route[1], request)
        elif len(route) == 3 and route == ("cells", route[1], "events"):
            if request.method != "GET":
                raise HttpError(405, "events accepts GET")
            await self._stream_events(route[1], writer)
            return True  # close-delimited stream
        elif route == ("status",):
            body = await self._get_status()
        elif route == ("healthz",):
            body = (200, {"ok": True, "draining": self._draining})
        else:
            raise HttpError(404, f"no such resource: {request.path}")

        status, payload = body
        writer.write(
            render_response(
                status, json_body(payload), keep_alive=request.keep_alive
            )
        )
        await writer.drain()
        return not request.keep_alive

    # --------------------------------------------------------------- routes
    def _rate_limit(self, request: HttpRequest) -> None:
        wait = self.limiter.acquire(request.client)
        if wait > 0.0:
            self.counters["rate_limited"] += 1
            raise HttpError(
                429,
                f"rate limit exceeded; retry in {wait:.3f}s",
                retry_after=wait,
            )

    def _lower(self, submission: CellSubmission):
        """Submission → (config, store, request, digest).

        A ``max_k`` lowers the way the CLI's ``--max-k`` does, so the
        served digest equals the batch run's.
        """
        if submission.max_k is None:
            config = self.configs[submission.scale]
            store = self.stores[submission.scale]
        else:
            config = default_config(
                submission.scale,
                cache_dir=self.cache_dir,
                simpoint=SimPointOptions(max_k=submission.max_k),
            )
            store = StudyStore(self.cache_dir, config)
        study_request = submission.to_request(config)
        return config, store, study_request, store.digest(study_request)

    async def _post_cell(self, request: HttpRequest) -> tuple[int, dict]:
        if self._draining:
            raise HttpError(503, "server is draining")
        self._rate_limit(request)
        try:
            submission = CellSubmission.from_json(request.json())
        except SubmissionError as exc:
            raise HttpError(400, str(exc)) from None
        config, store, study_request, digest = self._lower(submission)

        record = self.coalescer.get(digest)
        if record is not None and record.state != "failed":
            if record.done:
                self.counters["warm_memo"] += 1
                self.coalescer.submissions += 1
                record.coalesced += 1
                return 200, self._cell_body(record, include_result=True)
            record, _ = self.coalescer.submit(digest, submission, None)
        else:
            # Disk warm hit: the stored container answers without any
            # scheduling (uncached kinds have no cell-level entry and
            # always execute — their stages still hit the stage store).
            # The container read touches disk, so it runs on the
            # executor, never on the event loop thread.
            payload = None
            if study_request.kind not in CELL_LEVEL_UNCACHED:
                loop = asyncio.get_running_loop()
                payload = await loop.run_in_executor(
                    self._executor, store.load, study_request
                )
            if payload is not None:
                self.counters["warm_disk"] += 1
                record = self.coalescer.complete(
                    digest, submission, payload, "disk"
                )
                return 200, self._cell_body(record, include_result=True)
            record, created = self.coalescer.submit(
                digest,
                submission,
                lambda: self._execute(study_request, config, store, digest),
            )
            if created:
                self.counters["computed"] += 1

        if request.flag("wait"):
            await record.wait_done()
            if record.state == "failed":
                self.counters["failures"] += 1
                return 500, self._cell_body(record)
            return 200, self._cell_body(record, include_result=True)
        return 202, self._cell_body(record)

    async def _execute(self, study_request, config, store, digest):
        """Run one cell on the executor, with progress polling."""
        loop = asyncio.get_running_loop()
        stats = stage_store_for(config).stats
        before = stats.snapshot()
        record = self.coalescer.get(digest)

        def _run():
            payload = None
            if study_request.kind not in CELL_LEVEL_UNCACHED:
                payload = store.load(study_request)  # double-check under race
            if payload is not None:
                return payload, "disk"
            payload = execute_request(study_request, config)
            if study_request.kind not in CELL_LEVEL_UNCACHED:
                store.store(study_request, payload)
            return payload, "computed"

        work = loop.run_in_executor(self._executor, _run)
        # Progress poller: publish stage-cache activity observed while
        # this cell runs.  Under concurrent distinct executions the
        # snapshot delta can include a neighbour's stages — the stream
        # is labelled "observed", not attributed — but with coalescing
        # the common case (one execution) reports exactly its own.
        while True:
            done, _ = await asyncio.wait({work}, timeout=PROGRESS_INTERVAL)
            if done:
                break
            if record is not None:
                delta = stats.delta_since(before)
                active = sorted(
                    set(delta.get("run_seconds", {}))
                    | set(delta.get("hits", {}))
                    | set(delta.get("misses", {}))
                )
                if active:
                    record.publish({"event": "progress", "stages": active})
        return work.result()

    async def _load_by_digest(self, digest: str):
        """One persisted cell payload by digest (None on miss).

        A digest already names its configuration, so one lookup covers
        every scale and ``max_k``.  It reads disk, so it runs on the
        executor.
        """
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._executor, self.stores["quick"].load_by_digest, digest
        )

    def _cell_body(self, record, include_result: bool = False) -> dict:
        body = record.status().to_json()
        if include_result and record.result is not None:
            from repro.api.codec import payload_to_jsonable

            body["result"] = payload_to_jsonable(record.result)
        return body

    async def _get_cell(
        self, digest: str, request: HttpRequest
    ) -> tuple[int, dict]:
        record = self.coalescer.get(digest)
        if record is not None:
            if record.state == "failed":
                return 500, self._cell_body(record)
            if record.done:
                self.counters["warm_memo"] += 1
                return 200, self._cell_body(record, include_result=True)
            return 202, self._cell_body(record)
        # Unknown to this process: probe the sharded store by digest —
        # cells computed by the batch CLI (or before a restart) answer
        # straight from their stored container.
        payload = await self._load_by_digest(digest)
        if payload is None:
            raise HttpError(404, f"unknown cell digest {digest[:16]}...")
        self.counters["warm_disk"] += 1
        body = CellStatus(digest=digest, state="done", source="disk").to_json()
        from repro.api.codec import payload_to_jsonable

        body["result"] = payload_to_jsonable(payload)
        return 200, body

    async def _stream_events(
        self, digest: str, writer: asyncio.StreamWriter
    ) -> None:
        record = self.coalescer.get(digest)
        if record is None and await self._load_by_digest(digest) is None:
            raise HttpError(404, f"unknown cell digest {digest[:16]}...")
        writer.write(
            render_response(200, None, content_type="application/x-ndjson")
        )
        await writer.drain()

        async def send(event: dict) -> None:
            writer.write(json.dumps(event, sort_keys=True).encode() + b"\n")
            await writer.drain()

        if record is None:
            # Unknown to this process but held by the store (computed by
            # the batch CLI or before a restart): the cell is done.
            await send({"event": "done", "source": "disk"})
            return
        async for event in record.follow():
            await send(event)

    async def _get_status(self) -> tuple[int, dict]:
        # Both scales share one stage store per cache_dir, so either
        # config reaches the same counters.  The eviction scan walks
        # the current version's cell and stage shards on disk —
        # executor work, not loop work.
        stats = stage_store_for(self.configs["quick"]).stats.snapshot()
        loop = asyncio.get_running_loop()
        entries = await loop.run_in_executor(self._executor, self.evictor.scan)
        shards = {str(entry.path.parent) for entry in entries}
        status = ServerStatus(
            cache_version=cache_version(),
            uptime_seconds=round(time.monotonic() - self.started, 3),
            in_flight=self.coalescer.in_flight,
            counters={
                **self.counters,
                **{f"coalescer.{k}": v for k, v in self.coalescer.snapshot().items()},
                **{f"ratelimit.{k}": v for k, v in self.limiter.snapshot().items()},
            },
            stage_cache={
                "hits": stats.get("hits", {}),
                "misses": stats.get("misses", {}),
                # Self-heal observability: corrupt-entry recoveries
                # (torn containers) and — during chaos runs —
                # injected-fault firings.
                "heals": stats.get("heals", {}),
                "faults": stats.get("faults", {}),
            },
            store={
                "files": len(entries),
                "bytes": sum(entry.nbytes for entry in entries),
                "shards": len(shards),
                "budget_bytes": self.evictor.budget_bytes,
            },
        )
        return 200, status.to_json()
