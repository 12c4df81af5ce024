#!/usr/bin/env python
"""Serve the warm cache: boot the daemon in-process and talk to it.

The batch CLI pays a one-time cost per study cell; ``repro serve``
turns the resulting store into an always-on artifact service.  This
example boots a real :class:`repro.serve.server.ReproServer` (its
asyncio loop on a background thread, an ephemeral port, a throwaway
cache directory) and exercises the JSON API end to end with the typed
:class:`repro.serve.client.ServeClient`:

* a cold submission — computed once, the response carries the cell's
  digest (the exec engine's dedup address);
* sixteen *concurrent identical* submissions — the coalescer folds
  them onto that single cached result;
* a warm ``GET /v1/cells/{digest}`` answered from the mmap'd
  container, timed;
* the progress-event stream and the ``/v1/status`` counters.

In production the daemon runs standalone (``repro serve --cache-dir
.repro-cache --budget 64MiB``) and clients connect from anywhere; the
in-process arrangement here is exactly how the test suite and the
``bench_serve`` harness drive it.

Usage::

    python examples/serve_client.py
"""

import asyncio
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.api.service import CellSubmission
from repro.serve.client import ServeClient
from repro.serve.server import ReproServer


def main() -> None:
    # The cache directory is removed once the server has shut down.
    with tempfile.TemporaryDirectory(prefix="repro-serve-example-") as tmp:
        serve(tmp)


def serve(tmp: str) -> None:
    """Boot the daemon over a cache under ``tmp`` and drive its API."""
    # Boot the daemon: asyncio loop on a background thread, port 0
    # picks a free ephemeral port (readable after start()).
    loop = asyncio.new_event_loop()
    server = ReproServer(cache_dir=f"{tmp}/cache", port=0, jobs=4, rate=0)
    loop.run_until_complete(server.start())
    loop_thread = threading.Thread(target=loop.run_forever, daemon=True)
    loop_thread.start()
    print(f"daemon      : http://127.0.0.1:{server.port} (cache {tmp}/cache)")

    submission = CellSubmission(
        kind="crossarch", app="graph500", threads=8, scale="quick"
    )

    # Cold: the first submission schedules a real pipeline execution.
    with ServeClient("127.0.0.1", server.port) as client:
        t0 = time.perf_counter()
        status = client.submit(submission, wait=True)
        print(
            f"cold submit : {status.state} ({status.source}) in "
            f"{time.perf_counter() - t0:.2f}s — digest {status.digest[:16]}..."
        )
        digest = status.digest

    # Coalesced: identical concurrent submissions share one result.
    def submit_one(_: int) -> str:
        with ServeClient("127.0.0.1", server.port) as c:
            return c.submit(submission, wait=True).state

    with ThreadPoolExecutor(max_workers=16) as pool:
        states = list(pool.map(submit_one, range(16)))
    print(f"coalesced   : 16 concurrent submits -> {set(states)}")

    with ServeClient("127.0.0.1", server.port) as client:
        # Warm: answered from the server's memo of the cached container.
        t0 = time.perf_counter()
        body = client.cell(digest)
        warm_ms = (time.perf_counter() - t0) * 1e3
        print(
            f"warm GET    : {body['state']} in {warm_ms:.2f}ms "
            f"(result keys: {sorted(body['result'])[:4]}...)"
        )

        # The event stream replays the cell's lifecycle.
        events = [event["event"] for event in client.events(digest)]
        print(f"events      : {' -> '.join(events[:6])}")

        status = client.status()
        executions = status.counters.get("coalescer.executions")
        warm = status.counters.get("warm_memo")
        print(
            f"status      : cache v{status.cache_version}, "
            f"{executions} execution(s), {warm} warm hits, "
            f"{status.store['files']} store files in "
            f"{status.store['shards']} shards"
        )

    asyncio.run_coroutine_threadsafe(server.shutdown(), loop).result(timeout=30)
    loop.call_soon_threadsafe(loop.stop)
    loop_thread.join(timeout=10)
    loop.close()
    print("drained     : daemon shut down cleanly")


if __name__ == "__main__":
    main()
