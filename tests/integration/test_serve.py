"""Integration tests: the serve daemon end to end, over real sockets.

One module-scoped daemon (asyncio loop on a background thread, an
ephemeral port, a per-module cache directory) serves every test; the
acceptance-critical concurrency properties get their own daemons where
isolation matters:

* 64 concurrent identical submissions of an uncached cell schedule
  **exactly one** execution (asserted via the coalescer's execution
  counter *and* the stage store's miss counters);
* concurrent *distinct* submissions overlap on the execution pool
  rather than serialising;
* a client that disconnects mid-wait does not cancel the shared
  execution — the other clients still get the result;
* served payloads survive an eviction → refetch cycle byte-identically
  under a 64 MiB budget with the open-reader guard honoured.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.api.service import CellSubmission
from repro.exec.store import CELLS, ArtifactStore
from repro.serve.client import RateLimited, ServeClient, ServeError
from repro.serve.server import ReproServer

N_IDENTICAL = 64


class DaemonHandle:
    """One in-process daemon on its own loop thread."""

    def __init__(self, cache_dir: str, **kwargs) -> None:
        kwargs.setdefault("jobs", 4)
        kwargs.setdefault("rate", 0)
        self.loop = asyncio.new_event_loop()
        self.server = ReproServer(cache_dir=cache_dir, port=0, **kwargs)
        self.loop.run_until_complete(self.server.start())
        self.port = self.server.port
        self.thread = threading.Thread(target=self.loop.run_forever, daemon=True)
        self.thread.start()

    def client(self, **kwargs) -> ServeClient:
        return ServeClient("127.0.0.1", self.port, **kwargs)

    def run(self, coro, timeout: float = 30.0):
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result(timeout)

    def stop(self) -> None:
        self.run(self.server.shutdown())
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10)
        self.loop.close()


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    handle = DaemonHandle(str(tmp_path_factory.mktemp("serve-cache")))
    yield handle
    handle.stop()


def _submission(app="graph500", threads=1, **kw) -> CellSubmission:
    return CellSubmission(
        kind="crossarch", app=app, threads=threads, scale="quick", **kw
    )


class TestEndToEnd:
    def test_cold_then_warm_roundtrip(self, daemon):
        with daemon.client() as client:
            status = client.submit(_submission(), wait=True)
            assert status.state == "done"
            assert status.source == "computed"

            body = client.cell(status.digest)
            assert body["state"] == "done"
            assert "result" in body
            assert body["result"]["app"] == "graph500"

    def test_warm_hits_are_fast(self, daemon):
        """Acceptance: warm GET p50 under 10 ms on localhost."""
        with daemon.client() as client:
            digest = client.submit(_submission(), wait=True).digest
            client.cell(digest)  # prime the connection
            latencies = []
            for _ in range(50):
                t0 = time.perf_counter()
                client.cell(digest)
                latencies.append(time.perf_counter() - t0)
        latencies.sort()
        assert latencies[len(latencies) // 2] < 0.010

    def test_sweep_submissions_share_one_width_cell(self, daemon):
        """A scaling result holds one row per machine, and another
        machine's submission at that width is the same, finished cell."""
        from repro.api.sweep import SCALING_MACHINES

        submissions = [
            CellSubmission(
                kind="scaling", app="MCB", threads=2, machine=machine, scale="quick"
            )
            for machine in SCALING_MACHINES
        ]
        computed = daemon.server.counters["computed"]
        with daemon.client() as client:
            bodies = [client.submit_raw(s, wait=True) for s in submissions]
        assert {body["digest"] for body in bodies} == {bodies[0]["digest"]}
        assert daemon.server.counters["computed"] == computed + 1
        for body in bodies:
            assert [row["machine"] for row in body["result"]] == list(SCALING_MACHINES)

    def test_submit_without_wait_is_202_then_done(self, daemon):
        with daemon.client() as client:
            status = client.submit(_submission(app="MCB"), wait=False)
            assert status.state in ("queued", "running", "done")
            digest = status.digest
            deadline = time.time() + 60
            while time.time() < deadline:
                body = client.cell(digest)
                if body["state"] == "done":
                    break
                time.sleep(0.05)
            assert body["state"] == "done"

    def test_events_stream_lifecycle(self, daemon):
        with daemon.client() as client:
            digest = client.submit(_submission(app="CoMD"), wait=True).digest
            events = [event["event"] for event in client.events(digest)]
        assert events[0] == "queued"
        assert events[-1] == "done"

    def test_validation_errors_are_400(self, daemon):
        with daemon.client() as client:
            with pytest.raises(ServeError) as err:
                client.submit(CellSubmission(kind="bogus", app="graph500"))
            assert err.value.status == 400
            assert "unknown kind" in err.value.message

    def test_unknown_digest_is_404(self, daemon):
        with daemon.client() as client:
            with pytest.raises(ServeError) as err:
                client.cell("f" * 64)
            assert err.value.status == 404

    def test_events_of_unknown_digest_is_404(self, daemon):
        with daemon.client() as client:
            with pytest.raises(ServeError) as err:
                list(client.events("f" * 64))
            assert err.value.status == 404

    def test_unknown_digest_lists_its_shard_once(self, tmp_path, monkeypatch):
        import os

        cache = tmp_path / "cache"
        listed = []
        listdir = os.listdir

        def spy(path="."):
            listed.append(str(path))
            return listdir(path)

        fresh = DaemonHandle(str(cache))
        try:
            monkeypatch.setattr(os, "listdir", spy)
            with fresh.client() as client:
                with pytest.raises(ServeError) as err:
                    client.cell("ab" + "f" * 62)
            assert err.value.status == 404
        finally:
            monkeypatch.undo()
            fresh.stop()
        assert listed.count(str(ArtifactStore(cache).root / CELLS / "ab")) == 1

    def test_unknown_route_is_404_and_method_405(self, daemon):
        conn = http.client.HTTPConnection("127.0.0.1", daemon.port, timeout=10)
        try:
            conn.request("GET", "/nope")
            assert conn.getresponse().status == 404
            conn.close()
            conn.request("DELETE", "/v1/cells")
            assert conn.getresponse().status == 405
        finally:
            conn.close()

    def test_status_counters(self, daemon):
        with daemon.client() as client:
            status = client.status()
        assert status.cache_version
        assert status.counters["coalescer.executions"] >= 1
        assert status.store["files"] > 0
        assert status.store["shards"] > 0

    def test_restart_serves_from_disk(self, daemon, tmp_path):
        """A fresh daemon on the same store answers by digest, source=disk."""
        with daemon.client() as client:
            digest = client.submit(_submission(), wait=True).digest
            warm = client.cell(digest)
        fresh = DaemonHandle(daemon.server.cache_dir)
        try:
            with fresh.client() as client:
                body = client.cell(digest)
            assert body["state"] == "done"
            assert body["source"] == "disk"
            assert body["result"] == warm["result"]  # byte-identical payload
        finally:
            fresh.stop()


class TestCoalescing:
    def test_64_identical_submissions_one_execution(self, tmp_path):
        """The acceptance criterion, verbatim — on a cold store."""
        handle = DaemonHandle(str(tmp_path / "cache"))
        try:
            submission = _submission(app="miniFE", threads=8)

            def submit(_):
                with handle.client() as client:
                    return client.submit(submission, wait=True)

            with ThreadPoolExecutor(max_workers=N_IDENTICAL) as pool:
                results = list(pool.map(submit, range(N_IDENTICAL)))

            assert all(r.state == "done" for r in results)
            digests = {r.digest for r in results}
            assert len(digests) == 1  # one dedup address for all 64

            with handle.client() as client:
                counters = client.status().counters
            # One scheduled execution; the other 63 coalesced or hit
            # the memo after it landed.
            assert counters["coalescer.executions"] == 1
            assert counters["computed"] == 1
            assert (
                counters["coalescer.coalesced"] + counters["warm_memo"]
                == N_IDENTICAL - 1
            )
            # The stage store agrees: the 64-way daemon's per-stage
            # miss counts equal a single reference execution's (a
            # crossarch cell legitimately runs some stages once per
            # ISA, so the invariant is "same as one run", not "== 1";
            # 64 executions would show 64x the misses).
            misses = client.status().stage_cache["misses"]
        finally:
            handle.stop()

        reference = DaemonHandle(str(tmp_path / "reference-cache"))
        try:
            with reference.client() as client:
                client.submit(submission, wait=True)
                expected = client.status().stage_cache["misses"]
        finally:
            reference.stop()
        assert misses and misses == expected

    def test_distinct_cells_do_not_serialise(self, tmp_path):
        handle = DaemonHandle(str(tmp_path / "cache"), jobs=4)
        try:
            cells = [
                _submission(app=app, threads=threads)
                for app in ("graph500", "CoMD", "miniFE", "LULESH")
                for threads in (1, 2)
            ]

            def submit(submission):
                with handle.client() as client:
                    return client.submit(submission, wait=True)

            with ThreadPoolExecutor(max_workers=len(cells)) as pool:
                results = list(pool.map(submit, cells))
            assert all(r.state == "done" for r in results)

            with handle.client() as client:
                counters = client.status().counters
            assert counters["coalescer.executions"] == len(cells)
            # The overlap counter proves concurrency: with 4 pool slots
            # and 8 cells, at least two executions ran at once.
            assert counters["coalescer.peak_concurrent_executions"] >= 2
        finally:
            handle.stop()

    def test_disconnect_does_not_cancel_shared_execution(self, tmp_path):
        handle = DaemonHandle(str(tmp_path / "cache"))
        try:
            submission = _submission(app="AMGMk", threads=8)
            payload = json.dumps(submission.to_json()).encode()

            # Client A submits with ?wait=1 over a raw socket... and
            # slams the connection shut while the cell is executing.
            sock = socket.create_connection(("127.0.0.1", handle.port))
            sock.sendall(
                b"POST /v1/cells?wait=1 HTTP/1.1\r\n"
                b"Content-Type: application/json\r\n"
                + f"Content-Length: {len(payload)}\r\n\r\n".encode()
                + payload
            )
            time.sleep(0.05)  # let the server parse + schedule
            sock.setsockopt(
                socket.SOL_SOCKET,
                socket.SO_LINGER,
                b"\x01\x00\x00\x00\x00\x00\x00\x00",  # RST on close
            )
            sock.close()

            # Client B coalesces onto the same digest and must still
            # receive the completed result.
            with handle.client() as client:
                status = client.submit(submission, wait=True)
                assert status.state == "done"
                counters = client.status().counters
            assert counters["coalescer.executions"] == 1
            assert counters["failures"] == 0
        finally:
            handle.stop()


class TestRateLimitAndEviction:
    def test_rate_limit_429_with_retry_after(self, tmp_path):
        handle = DaemonHandle(str(tmp_path / "cache"), rate=5.0, burst=3.0)
        try:
            submission = _submission()
            # max_retries=0: the default client would absorb the 429s
            # (retry honouring Retry-After) — here we want to see one.
            with handle.client(max_retries=0) as client:
                client.submit(submission, wait=True)  # warm it
                rejected = None
                for _ in range(10):
                    try:
                        client.submit(submission)
                    except RateLimited as exc:
                        rejected = exc
                        break
                assert rejected is not None
                assert rejected.retry_after > 0.0
                counters = client.status().counters
            assert counters["rate_limited"] >= 1
        finally:
            handle.stop()

    def test_eviction_under_budget_with_byte_identical_refetch(self, tmp_path):
        """Acceptance: 64 MiB budget, open readers honoured, loss-free."""
        budget = 64 * 2**20
        handle = DaemonHandle(str(tmp_path / "cache"), budget_bytes=budget)
        try:
            with handle.client() as client:
                first = client.submit(_submission(), wait=True)
                before = client.cell(first.digest)["result"]
                # Fill the store with more cells, then force a pass.
                for app in ("CoMD", "miniFE", "MCB"):
                    client.submit(_submission(app=app), wait=True)
            report = handle.server.evict_now()
            assert report.budget_bytes == budget
            assert report.remaining_bytes <= max(
                budget, report.scanned_bytes
            )
            # Under budget nothing is evicted; the store stays intact
            # and the payload refetches byte-identically either way.
            fresh = DaemonHandle(str(tmp_path / "cache"))
            try:
                with fresh.client() as client:
                    after = client.cell(first.digest)["result"]
            finally:
                fresh.stop()
            assert json.dumps(after, sort_keys=True) == json.dumps(
                before, sort_keys=True
            )
        finally:
            handle.stop()

    def test_over_budget_eviction_recomputes_identically(self, tmp_path):
        """A tiny budget evicts everything idle; resubmission matches."""
        handle = DaemonHandle(str(tmp_path / "cache"), budget_bytes=1)
        try:
            with handle.client() as client:
                first = client.submit(_submission(), wait=True)
                before = client.cell(first.digest)["result"]

            report = handle.server.evict_now()
            assert report.evicted_files > 0

            # The daemon's in-memory memo is warm, so probe the disk
            # tier through a *fresh* daemon: the cell is gone (404),
            # recomputing it reproduces the payload exactly.
            fresh = DaemonHandle(str(tmp_path / "cache"))
            try:
                with fresh.client() as client:
                    with pytest.raises(ServeError) as err:
                        client.cell(first.digest)
                    assert err.value.status == 404
                    again = client.submit(_submission(), wait=True)
                    assert again.digest == first.digest
                    after = client.cell(first.digest)["result"]
            finally:
                fresh.stop()
            assert json.dumps(after, sort_keys=True) == json.dumps(
                before, sort_keys=True
            )
        finally:
            handle.stop()

    def test_numeric_payload_equality_across_eviction(self, tmp_path):
        """Array contents, not just JSON text, survive the round trip."""
        handle = DaemonHandle(str(tmp_path / "cache"), budget_bytes=1)
        try:
            with handle.client() as client:
                first = client.submit(
                    _submission(app="LULESH"), wait=True
                )
                before = client.cell(first.digest)["result"]
            handle.server.evict_now()
        finally:
            handle.stop()

        fresh = DaemonHandle(str(tmp_path / "cache"))
        try:
            with fresh.client() as client:
                after = client.submit(
                    _submission(app="LULESH"), wait=True
                )
                result = client.cell(after.digest)["result"]
        finally:
            fresh.stop()

        def _leaves(node, prefix=""):
            if isinstance(node, dict):
                for key, value in node.items():
                    yield from _leaves(value, f"{prefix}.{key}")
            elif isinstance(node, list):
                for index, value in enumerate(node):
                    yield from _leaves(value, f"{prefix}[{index}]")
            else:
                yield prefix, node

        before_leaves = dict(_leaves(before))
        after_leaves = dict(_leaves(result))
        assert before_leaves.keys() == after_leaves.keys()
        for key, value in before_leaves.items():
            other = after_leaves[key]
            if isinstance(value, float):
                assert np.isclose(value, other, rtol=0, atol=0), key
            else:
                assert value == other, key


class TestStoreRestart:
    """A restarted daemon answers from the store, the only durable state."""

    def test_restart_answers_get_and_events_from_the_store(self, tmp_path):
        cache = tmp_path / "cache"
        handle = DaemonHandle(str(cache))
        try:
            with handle.client() as client:
                digest = client.submit(_submission(), wait=True).digest
                warm = client.cell(digest)
        finally:
            handle.stop()

        fresh = DaemonHandle(str(cache))
        try:
            with fresh.client() as client:
                body = client.cell(digest)
                events = list(client.events(digest))
            assert body["state"] == "done"
            assert body["source"] == "disk"
            assert body["result"] == warm["result"]  # byte-equal payload
            # The store holds the finished cell, so its history after a
            # restart is exactly one terminal event.
            assert events == [{"event": "done", "source": "disk"}]
        finally:
            fresh.stop()
        assert [p.name for p in cache.iterdir()] == [ArtifactStore(cache).root.name]

    def test_boot_prunes_stale_layouts(self, tmp_path):
        cache = tmp_path / "cache"
        handle = DaemonHandle(str(cache))
        try:
            with handle.client() as client:
                digest = client.submit(_submission(), wait=True).digest
        finally:
            handle.stop()
        for rel in (
            "v0.1/cells/aa/x.rpb",
            "stages/aa/v10.2_x.rpb",
            "traces/x.rpt",
            "serve/serve.journal",
        ):
            (cache / rel).parent.mkdir(parents=True)
            (cache / rel).write_bytes(b"stale")

        fresh = DaemonHandle(str(cache))
        try:
            assert fresh.server.pruned == ["serve", "stages", "traces", "v0.1"]
            assert [p.name for p in cache.iterdir()] == [
                ArtifactStore(cache).root.name
            ]
            with fresh.client() as client:
                body = client.cell(digest)
            assert body["state"] == "done"
        finally:
            fresh.stop()

    def test_evicted_payload_recomputes_after_restart(self, tmp_path):
        import shutil

        cache = str(tmp_path / "cache")
        handle = DaemonHandle(cache)
        try:
            with handle.client() as client:
                digest = client.submit(_submission(), wait=True).digest
        finally:
            handle.stop()

        shutil.rmtree(ArtifactStore(cache).root / CELLS)

        fresh = DaemonHandle(cache)
        try:
            with fresh.client() as client:
                body = client.submit_raw(_submission(), wait=True)
            assert body["state"] == "done"
            assert body["digest"] == digest
            assert fresh.server.counters["computed"] == 1
        finally:
            fresh.stop()
