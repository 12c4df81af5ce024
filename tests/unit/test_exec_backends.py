"""Tests for the worker-count execution choice and the request type."""

import pytest

from repro.cli import main
from repro.exec.request import StudyRequest
from repro.exec.scheduler import StudyScheduler
from repro.exec.supervise import ProcessSupervision, RetryPolicy
from repro.experiments.config import default_config


def _square(x, attempt):
    """Module-level so the process pool can pickle it."""
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
    @pytest.mark.parametrize("jobs", [1, 3], ids=["serial", "processes"])
    def test_map_preserves_order(self, jobs):
        items = list(range(10))
        keys = [f"cell{x}" for x in items]
        results, report = ProcessSupervision(
            jobs, RetryPolicy(retries=0, backoff=0.0)
        ).run(_square, items, keys)
        assert results == [x * x for x in items]
        assert report.quarantined == []

    def test_serial_is_default_for_one_job(self):
        scheduler = StudyScheduler(default_config("quick", cache_dir="", jobs=1))
        supervision = scheduler.supervision
        assert (supervision.name, supervision.jobs) == ("serial", 1)

    def test_processes_is_default_for_many_jobs(self):
        scheduler = StudyScheduler(default_config("quick", cache_dir="", jobs=4))
        supervision = scheduler.supervision
        assert (supervision.name, supervision.jobs) == ("processes", 4)

    def test_explicit_names(self):
        # The worker count names what runs: one worker runs inline.
        assert ProcessSupervision(1, RetryPolicy()).name == "serial"
        assert ProcessSupervision(4, RetryPolicy()).name == "processes"

    def test_unknown_backend_rejected(self, capsys):
        # The CLI's --backend names only the two worker-count spellings.
        with pytest.raises(SystemExit) as exc:
            main(["table2", "--backend", "threads"])
        assert exc.value.code == 2
        assert "--backend" in capsys.readouterr().err

    def test_jobs_floored_at_one(self):
        assert ProcessSupervision(0, RetryPolicy()).jobs == 1
        assert ProcessSupervision(0, RetryPolicy()).name == "serial"
