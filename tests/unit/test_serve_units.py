"""Unit tests for the serve subsystem's pure pieces.

Covers the hand-rolled HTTP framing (:mod:`repro.serve.protocol`), the
token-bucket rate limiter, the typed submission models (validation and
digest-equality with the batch scheduler), the coalescer's dedup
semantics, and the serve suite of the perf regression gate — everything
that runs without a socket.
"""

from __future__ import annotations

import asyncio
import json
import sys
from pathlib import Path

import pytest

from repro.api.service import CellStatus, CellSubmission, SubmissionError
from repro.serve.coalesce import Coalescer
from repro.serve.protocol import (
    HttpError,
    json_body,
    read_request,
    render_response,
)
from repro.serve.ratelimit import RateLimiter, TokenBucket

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

import check_regression  # noqa: E402


def _parse(raw: bytes):
    """Feed raw bytes through the async request parser."""

    async def _go():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader)

    return asyncio.run(_go())


class TestProtocolParsing:
    def test_get_roundtrip(self):
        request = _parse(b"GET /v1/status HTTP/1.1\r\nHost: x\r\n\r\n")
        assert request.method == "GET"
        assert request.path == "/v1/status"
        assert request.path_parts == ("v1", "status")
        assert request.keep_alive  # HTTP/1.1 default

    def test_post_body_by_content_length(self):
        body = b'{"kind": "crossarch"}'
        raw = (
            b"POST /v1/cells?wait=1 HTTP/1.1\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode()
            + body
        )
        request = _parse(raw)
        assert request.method == "POST"
        assert request.flag("wait")
        assert request.json() == {"kind": "crossarch"}

    def test_clean_eof_returns_none(self):
        assert _parse(b"") is None

    def test_truncated_request_is_400(self):
        with pytest.raises(HttpError) as err:
            _parse(b"GET /v1/status HTTP/1.1\r\nHost")
        assert err.value.status == 400

    def test_truncated_body_is_400(self):
        raw = b"POST /v1/cells HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort"
        with pytest.raises(HttpError) as err:
            _parse(raw)
        assert err.value.status == 400

    def test_oversized_body_is_413(self):
        raw = b"POST /v1/cells HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n"
        with pytest.raises(HttpError) as err:
            _parse(raw)
        assert err.value.status == 413

    def test_chunked_requests_rejected(self):
        raw = b"POST /v1/cells HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
        with pytest.raises(HttpError) as err:
            _parse(raw)
        assert err.value.status == 400

    def test_connection_close_and_http10(self):
        request = _parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
        assert not request.keep_alive
        request = _parse(b"GET / HTTP/1.0\r\n\r\n")
        assert not request.keep_alive

    def test_bad_json_body_is_400(self):
        raw = b"POST / HTTP/1.1\r\nContent-Length: 4\r\n\r\n{oop"
        request = _parse(raw)
        with pytest.raises(HttpError) as err:
            request.json()
        assert err.value.status == 400

    def test_render_response_framing(self):
        payload = json_body({"ok": True})
        raw = render_response(200, payload, keep_alive=True)
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK")
        assert f"Content-Length: {len(payload)}".encode() in head
        assert b"Connection: keep-alive" in head
        assert json.loads(body) == {"ok": True}

    def test_render_stream_head_is_close_delimited(self):
        raw = render_response(200, None, content_type="application/x-ndjson")
        assert b"Content-Length" not in raw
        assert b"Connection: close" in raw

    def test_retry_after_header(self):
        raw = render_response(
            429, json_body({}), extra_headers={"Retry-After": "1.500"}
        )
        assert b"Retry-After: 1.500" in raw


class TestRateLimiter:
    def test_burst_then_reject_then_refill(self):
        limiter = RateLimiter(rate=10.0, burst=3.0)
        now = 100.0
        assert [limiter.acquire("c", now) for _ in range(3)] == [0.0] * 3
        wait = limiter.acquire("c", now)
        assert wait > 0.0  # bucket empty
        # Retry-After is honest: exactly one token lands after `wait`.
        assert limiter.acquire("c", now + wait) == 0.0
        assert limiter.rejected == 1 and limiter.admitted == 4

    def test_clients_are_independent(self):
        limiter = RateLimiter(rate=1.0, burst=1.0)
        assert limiter.acquire("a", 0.0) == 0.0
        assert limiter.acquire("a", 0.0) > 0.0
        assert limiter.acquire("b", 0.0) == 0.0  # fresh bucket

    def test_disabled_limiter_admits_everything(self):
        limiter = RateLimiter(rate=0.0, burst=1.0)
        assert all(limiter.acquire("c", 0.0) == 0.0 for _ in range(100))

    def test_bucket_table_is_bounded(self):
        limiter = RateLimiter(rate=10.0, burst=2.0, max_clients=8)
        for i in range(50):
            limiter.acquire(f"client-{i}", float(i))
        assert len(limiter._buckets) <= 9  # prune keeps the table bounded

    def test_token_bucket_never_exceeds_burst(self):
        bucket = TokenBucket(rate=100.0, burst=5.0, now=0.0)
        bucket.acquire(0.0)
        # A long idle period refills to burst, not beyond.
        for _ in range(5):
            assert bucket.acquire(1000.0) == 0.0
        assert bucket.acquire(1000.0) > 0.0


class TestSubmissionModels:
    def test_unknown_kind_rejected(self):
        with pytest.raises(SubmissionError, match="unknown kind"):
            CellSubmission.from_json({"kind": "bogus", "app": "graph500"})

    def test_unknown_field_rejected(self):
        with pytest.raises(SubmissionError, match="unknown fields"):
            CellSubmission.from_json(
                {"kind": "crossarch", "app": "graph500", "oops": 1}
            )

    def test_unknown_app_gets_registry_hint(self):
        with pytest.raises(SubmissionError, match="graph500"):
            # The registry's did-you-mean hint names the close match.
            CellSubmission.from_json({"kind": "crossarch", "app": "graph5000"})

    def test_scaling_requires_machine(self):
        with pytest.raises(SubmissionError, match="machine"):
            CellSubmission.from_json({"kind": "scaling", "app": "graph500"})

    def test_ranks_requires_rank_count(self):
        with pytest.raises(SubmissionError, match="rank count"):
            CellSubmission.from_json(
                {
                    "kind": "ranks",
                    "app": "graph500",
                    "machine": "Intel Core i7-3770",
                }
            )

    def test_roundtrip_drops_unset_optionals(self):
        submission = CellSubmission.from_json(
            {"kind": "crossarch", "app": "graph500", "threads": 4}
        )
        wire = submission.to_json()
        assert "machine" not in wire and "ranks" not in wire
        assert CellSubmission.from_json(wire) == submission

    def test_digest_matches_batch_scheduler(self, tmp_path):
        """The served digest IS the exec engine's dedup address of the
        same cell, with and without ``max_k`` (``repro --max-k``)."""
        from repro.cli import _build_parser, _config_from_args
        from repro.exec.store import StudyStore
        from repro.experiments.runner import crossarch_request
        from repro.serve.server import ReproServer

        server = ReproServer(cache_dir=str(tmp_path))
        for max_k in (None, 5):
            argv = ["table4", "--quick"]
            if max_k is not None:
                argv += ["--max-k", str(max_k)]
            config = _config_from_args(_build_parser().parse_args(argv))
            batch = StudyStore(str(tmp_path), config).digest(
                crossarch_request("graph500", 8)
            )
            submission = CellSubmission(
                kind="crossarch", app="GRAPH500", threads=8, scale="quick", max_k=max_k
            )
            _, _, _, served = server._lower(submission)
            assert served == batch, max_k  # case-insensitive app, same address

    @pytest.mark.parametrize("kind", ["scaling", "ranks"])
    def test_sweep_digest_is_the_grid_width_cell(self, kind, tmp_path):
        """Every machine's submission at one width lowers to the batch
        grid's one cell for that (app, width), so all share its digest."""
        from repro.api.sweep import SCALING_MACHINES, decode_request
        from repro.cli import _build_parser, _config_from_args
        from repro.exec.store import StudyStore
        from repro.experiments import sweep
        from repro.serve.server import ReproServer

        grid = {"scaling": sweep.scaling, "ranks": sweep.ranks}[kind]
        config = _config_from_args(_build_parser().parse_args([kind, "--quick"]))
        (request,) = (
            r for r in grid.requests(config)
            if r.app == "graph500" and decode_request(r)[1] == 2
        )
        batch = StudyStore(str(tmp_path), config).digest(request)
        server = ReproServer(cache_dir=str(tmp_path))
        width = {"threads": 2} if kind == "scaling" else {"ranks": 2}
        for machine in SCALING_MACHINES:
            submission = CellSubmission(
                kind=kind, app="GRAPH500", machine=machine.upper(), scale="quick", **width
            )
            _, _, _, served = server._lower(submission)
            assert served == batch, machine

    def test_cell_status_roundtrip(self):
        status = CellStatus(
            digest="d" * 64,
            state="done",
            submission=CellSubmission(kind="crossarch", app="graph500"),
            source="disk",
            coalesced=3,
            seconds=1.5,
        )
        assert CellStatus.from_json(status.to_json()) == status


class TestCoalescer:
    def test_identical_submissions_share_one_execution(self):
        async def _go():
            coalescer = Coalescer()
            started = 0

            async def execute():
                nonlocal started
                started += 1
                await asyncio.sleep(0.01)
                return {"x": 1}, "computed"

            submission = CellSubmission(kind="crossarch", app="graph500")
            records = [
                coalescer.submit("digest-a", submission, execute)
                for _ in range(8)
            ]
            assert sum(created for _, created in records) == 1
            assert len({id(record) for record, _ in records}) == 1
            await records[0][0].wait_done()
            return started, records[0][0]

        started, record = asyncio.run(_go())
        assert started == 1
        assert record.state == "done"
        assert record.coalesced == 8

    def test_waiter_cancellation_does_not_cancel_execution(self):
        async def _go():
            coalescer = Coalescer()

            async def execute():
                await asyncio.sleep(0.05)
                return {"x": 1}, "computed"

            submission = CellSubmission(kind="crossarch", app="graph500")
            record, _ = coalescer.submit("digest-b", submission, execute)

            waiter = asyncio.create_task(record.wait_done())
            await asyncio.sleep(0.01)
            waiter.cancel()  # the disconnecting client
            with pytest.raises(asyncio.CancelledError):
                await waiter
            await record.wait_done()  # everyone else still gets the result
            return record

        record = asyncio.run(_go())
        assert record.state == "done"
        assert record.result == {"x": 1}

    def test_failed_digest_is_retried(self):
        async def _go():
            coalescer = Coalescer()
            submission = CellSubmission(kind="crossarch", app="graph500")

            async def boom():
                raise RuntimeError("transient")

            record, _ = coalescer.submit("digest-c", submission, boom)
            await record.wait_done()
            assert record.state == "failed"
            assert "transient" in record.error

            async def fine():
                return {"x": 2}, "computed"

            retry, created = coalescer.submit("digest-c", submission, fine)
            assert created and retry is not record
            await retry.wait_done()
            return retry

        retry = asyncio.run(_go())
        assert retry.state == "done"

    def test_event_stream_replays_then_follows(self):
        async def _go():
            coalescer = Coalescer()
            submission = CellSubmission(kind="crossarch", app="graph500")

            async def execute():
                await asyncio.sleep(0.02)
                return {"x": 1}, "computed"

            record, _ = coalescer.submit("digest-d", submission, execute)
            events = [event["event"] async for event in record.follow()]
            return events

        events = asyncio.run(_go())
        assert events[0] == "queued"
        assert events[-1] == "done"
        assert "started" in events


class TestServeRegressionGate:
    """The serve suite gates throughput and latency in opposite directions."""

    BASE = {
        "bench": "serve",
        "meta": {"calibration_score": 100.0},
        "serve": {
            "cold_seconds": 1.0,
            "warm_get_p50_ms": 1.0,
            "warm_get_p99_ms": 4.0,
            "warm_requests_per_second": 2000.0,
            "coalesced_requests_per_second": 100.0,
            "distinct_requests_per_second": 10.0,
        },
    }

    def _candidate(self, **overrides):
        serve = dict(self.BASE["serve"], **overrides)
        return {
            "bench": "serve",
            "meta": {"calibration_score": 100.0},
            "serve": serve,
        }

    def test_suite_is_registered(self):
        assert "serve" in check_regression.GATED_SUITES
        assert check_regression.SUITE_BASELINES["serve"] == "BENCH_serve.json"

    def test_throughput_drop_fails(self):
        failures, _ = check_regression.check(
            self.BASE,
            self._candidate(warm_requests_per_second=1000.0),
            0.25,
            check_regression.GATED_SUITES["serve"],
        )
        assert any("warm_requests_per_second" in f for f in failures)

    def test_latency_rise_fails(self):
        failures, _ = check_regression.check(
            self.BASE,
            self._candidate(warm_get_p99_ms=8.0),
            0.25,
            check_regression.GATED_SUITES["serve"],
        )
        assert any("warm_get_p99_ms" in f for f in failures)

    def test_improvements_pass_both_directions(self):
        failures, warnings = check_regression.check(
            self.BASE,
            self._candidate(
                warm_requests_per_second=4000.0, warm_get_p50_ms=0.25
            ),
            0.25,
            check_regression.GATED_SUITES["serve"],
        )
        assert failures == [] and warnings == []

    def test_host_normalisation_applies(self):
        # A host half as fast is allowed half the throughput.
        candidate = self._candidate(warm_requests_per_second=1100.0)
        candidate["meta"]["calibration_score"] = 50.0
        failures, _ = check_regression.check(
            self.BASE, candidate, 0.25, check_regression.GATED_SUITES["serve"]
        )
        assert failures == []

    def test_legacy_default_suite_unchanged(self):
        assert check_regression.GATED_METRICS is check_regression.GATED_SUITES[
            "scaling-grid"
        ]
