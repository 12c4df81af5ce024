"""Concurrent-client benchmark of the ``repro serve`` daemon.

Boots a real :class:`repro.serve.server.ReproServer` in-process (its
asyncio loop on a background thread, an ephemeral port, a throwaway
cache directory) and measures the service from the outside, through
real sockets and real HTTP framing:

* ``serve.cold_seconds``      — cold-miss end-to-end: one uncached cell
  submitted with ``?wait=1`` (validation, digest, scheduling, the full
  pipeline, the container write, the response);
* ``serve.warm_*``            — warm-hit ``GET /v1/cells/{digest}``
  latency distribution (p50/p99) and keep-alive throughput, answered
  from the server's memo of the decoded container;
* ``serve.coalesced_*``       — N concurrent clients submitting the
  *same* uncached cell: the coalescer must schedule exactly one
  execution (``executed`` is asserted to be 1) while every client gets
  the result; throughput counts client-observed completions;
* ``serve.distinct_*``        — N concurrent clients submitting
  *different* cells: executions must overlap on the thread pool
  (``peak_concurrent`` is reported).

``benchmarks/check_regression.py --suite serve`` compares a fresh
report against the committed ``BENCH_serve.json`` baseline; throughput
metrics gate in the higher-is-better direction, latency in
lower-is-better.  Usage::

    python benchmarks/bench_serve.py --scale smoke
    python benchmarks/bench_serve.py --scale quick --clients 16 \
        --output bench-serve.json
"""

from __future__ import annotations

import argparse
import asyncio
import json
import platform
import statistics
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_scaling_grid import calibration_score  # noqa: E402

from repro.api.service import CellSubmission  # noqa: E402
from repro.serve.client import ServeClient  # noqa: E402
from repro.serve.server import ReproServer  # noqa: E402

#: Bench scales: (protocol scale, warm GET count, concurrent clients).
BENCH_SCALES = {
    "smoke": ("quick", 400, 16),
    "quick": ("quick", 2000, 32),
    "full": ("quick", 5000, 64),
}

#: Apps used for the distinct-cell section (thread counts vary too, so
#: the distinct pool is len(apps) × len(widths) cells).
DISTINCT_APPS = ("graph500", "CoMD", "miniFE", "LULESH")
DISTINCT_WIDTHS = (1, 2)


class ServerUnderTest:
    """One in-process daemon: asyncio loop on a thread, real sockets."""

    def __init__(self, cache_dir: str, jobs: int) -> None:
        self.loop = asyncio.new_event_loop()
        self.server = ReproServer(
            cache_dir=cache_dir, port=0, jobs=jobs, rate=0
        )
        self.loop.run_until_complete(self.server.start())
        self.port = self.server.port
        self.thread = threading.Thread(target=self.loop.run_forever, daemon=True)
        self.thread.start()

    def client(self) -> ServeClient:
        return ServeClient("127.0.0.1", self.port)

    def stop(self) -> None:
        asyncio.run_coroutine_threadsafe(
            self.server.shutdown(), self.loop
        ).result(timeout=30)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10)
        self.loop.close()


def bench_cold(server: ServerUnderTest) -> dict:
    """End-to-end cold miss: uncached cell, ``?wait=1``."""
    submission = CellSubmission(
        kind="crossarch", app="graph500", threads=1, scale="quick"
    )
    with server.client() as client:
        t0 = time.perf_counter()
        status = client.submit(submission, wait=True)
        seconds = time.perf_counter() - t0
    assert status.state == "done", status
    return {
        "cold_seconds": round(seconds, 4),
        "digest": status.digest,
        "source": status.source,
    }


def bench_warm(server: ServerUnderTest, digest: str, requests: int) -> dict:
    """Warm-hit GET latency distribution over one keep-alive connection."""
    latencies = []
    with server.client() as client:
        client.cell(digest)  # prime (connection + server memo)
        t0 = time.perf_counter()
        for _ in range(requests):
            t1 = time.perf_counter()
            client.cell(digest)
            latencies.append(time.perf_counter() - t1)
        elapsed = time.perf_counter() - t0
    latencies.sort()
    return {
        "requests": requests,
        "warm_get_p50_ms": round(statistics.median(latencies) * 1e3, 4),
        "warm_get_p99_ms": round(
            latencies[int(len(latencies) * 0.99) - 1] * 1e3, 4
        ),
        "warm_requests_per_second": round(requests / elapsed, 1),
    }


def bench_coalesced(server: ServerUnderTest, clients: int) -> dict:
    """N concurrent identical submissions of one *uncached* cell."""
    submission = CellSubmission(
        kind="crossarch", app="AMGMk", threads=1, scale="quick"
    )
    executions_before = _executions(server)

    def _submit(_index: int) -> float:
        with server.client() as client:
            t0 = time.perf_counter()
            status = client.submit(submission, wait=True)
            assert status.state == "done", status
            return time.perf_counter() - t0

    t0 = time.perf_counter()
    with ThreadPoolExecutor(max_workers=clients) as pool:
        list(pool.map(_submit, range(clients)))
    elapsed = time.perf_counter() - t0
    executed = _executions(server) - executions_before
    assert executed == 1, f"coalescer scheduled {executed} executions"
    return {
        "clients": clients,
        "executed": executed,
        "coalesced_seconds": round(elapsed, 4),
        "coalesced_requests_per_second": round(clients / elapsed, 1),
    }


def bench_distinct(server: ServerUnderTest, clients: int) -> dict:
    """Concurrent *different* cells must overlap on the thread pool."""
    cells = [
        CellSubmission(kind="crossarch", app=app, threads=width, scale="quick")
        for app in DISTINCT_APPS
        for width in DISTINCT_WIDTHS
    ]

    def _submit(submission: CellSubmission) -> None:
        with server.client() as client:
            status = client.submit(submission, wait=True)
            assert status.state == "done", status

    t0 = time.perf_counter()
    with ThreadPoolExecutor(max_workers=min(clients, len(cells))) as pool:
        list(pool.map(_submit, cells))
    elapsed = time.perf_counter() - t0
    with server.client() as client:
        peak = client.status().counters.get(
            "coalescer.peak_concurrent_executions", 0
        )
    return {
        "cells": len(cells),
        "distinct_seconds": round(elapsed, 4),
        "distinct_requests_per_second": round(len(cells) / elapsed, 1),
        "peak_concurrent": peak,
    }


def _executions(server: ServerUnderTest) -> int:
    with server.client() as client:
        return client.status().counters.get("coalescer.executions", 0)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=sorted(BENCH_SCALES), default="smoke")
    parser.add_argument(
        "--clients",
        type=int,
        default=None,
        metavar="N",
        help="concurrent clients (default: the scale's)",
    )
    parser.add_argument("--jobs", type=int, default=4, metavar="N")
    parser.add_argument(
        "--output", default=None, help="write the JSON report here (else stdout)"
    )
    args = parser.parse_args(argv)

    protocol, warm_requests, clients = BENCH_SCALES[args.scale]
    if args.clients is not None:
        clients = args.clients

    with tempfile.TemporaryDirectory(prefix="bench-serve-") as tmp:
        server = ServerUnderTest(cache_dir=f"{tmp}/cache", jobs=args.jobs)
        try:
            cold = bench_cold(server)
            warm = bench_warm(server, cold.pop("digest"), warm_requests)
            coalesced = bench_coalesced(server, clients)
            distinct = bench_distinct(server, clients)
        finally:
            server.stop()

    report = {
        "bench": "serve",
        "meta": {
            "scale": args.scale,
            "protocol": protocol,
            "jobs": args.jobs,
            "clients": clients,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "calibration_score": calibration_score(),
        },
        "serve": {**cold, **warm, **coalesced, **distinct},
    }
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.output:
        Path(args.output).write_text(text + "\n")
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
