"""Tests for the execution backends and the request type."""

import pytest

from repro.exec.backends import (
    BACKEND_NAMES,
    ProcessPoolBackend,
    SerialBackend,
    ThreadPoolBackend,
    create_backend,
)
from repro.exec.request import StudyRequest
from repro.exec.supervise import RetryPolicy


def _square(x, attempt):
    """Module-level so the process backend can pickle it."""
    return x * x


class TestStudyRequest:
    def test_params_sorted_on_construction(self):
        a = StudyRequest("k", "app", 4, params=(("b", 1), ("a", 2)))
        b = StudyRequest("k", "app", 4, params=(("a", 2), ("b", 1)))
        assert a == b
        assert hash(a) == hash(b)
        assert a.params == (("a", 2), ("b", 1))

    def test_param_lookup(self):
        request = StudyRequest("k", "app", 4, params=(("isa", "ARMv8"),))
        assert request.param("isa") == "ARMv8"
        assert request.param("missing", 7) == 7

    def test_threads_validated(self):
        with pytest.raises(ValueError):
            StudyRequest("k", "app", 0)

    def test_describe_mentions_identity(self):
        request = StudyRequest("crossarch", "MCB", 8)
        text = request.describe()
        assert "crossarch" in text and "MCB" in text and "t8" in text


class TestBackends:
    @pytest.mark.parametrize("name", sorted(BACKEND_NAMES))
    def test_map_preserves_order(self, name):
        backend = create_backend(name, jobs=3)
        items = list(range(10))
        keys = [f"cell{x}" for x in items]
        results, report = backend.map_supervised(
            _square, items, keys, RetryPolicy(retries=0, backoff=0.0)
        )
        assert results == [x * x for x in items]
        assert report.quarantined == []

    def test_serial_is_default_for_one_job(self):
        assert isinstance(create_backend(None, jobs=1), SerialBackend)

    def test_processes_is_default_for_many_jobs(self):
        assert isinstance(create_backend(None, jobs=4), ProcessPoolBackend)

    def test_explicit_names(self):
        assert isinstance(create_backend("serial"), SerialBackend)
        assert isinstance(create_backend("threads", 2), ThreadPoolBackend)
        assert isinstance(create_backend("processes", 2), ProcessPoolBackend)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            create_backend("gpu")

    def test_jobs_floored_at_one(self):
        assert create_backend("threads", 0).jobs == 1
