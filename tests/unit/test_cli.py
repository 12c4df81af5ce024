"""Tests for the command-line interface (light experiments only)."""

import os

import pytest

from repro import cli
from repro.cli import _build_parser, _config_from_args, main
from repro.exec.backends import ProcessPoolBackend, SerialBackend
from repro.exec.scheduler import StudyScheduler


class TestCli:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "AMGMk" in out and "XSBench" in out

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "i7-3770" in out and "X-Gene" in out

    def test_list(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") >= 11
        assert "LULESH" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["tableX"])

    def test_quick_flag_parses(self, capsys):
        # table2 ignores the config but the flag must parse.
        assert main(["table2", "--quick", "--no-cache", "--seed", "7"]) == 0

    def test_scale_flag_parses(self, capsys):
        assert main(["table2", "--scale", "quick", "--no-cache"]) == 0
        with pytest.raises(SystemExit):
            main(["table2", "--scale", "huge"])

    def test_jobs_and_backend_flags_parse(self, capsys):
        assert main(["table2", "--jobs", "2", "--backend", "threads"]) == 0
        with pytest.raises(SystemExit):
            main(["table2", "--backend", "gpu"])

    def test_jobs_must_be_positive(self, capsys):
        assert main(["table2", "--jobs", "0"]) == 2

    def test_max_k_below_two_rejected(self, capsys):
        # maxK = 1 parses but degenerates to a one-cluster sweep (the
        # SimPoint grid floors at max(n_points // 2, 1)); the CLI must
        # reject it with an explanation instead of producing a
        # confusing single-representative "result".
        assert main(["table4", "--max-k", "1"]) == 2
        err = capsys.readouterr().err
        assert "--max-k must be >= 2" in err
        assert "single representative" in err
        assert main(["table4", "--max-k", "0"]) == 2
        assert main(["table4", "--max-k", "-3"]) == 2

    def test_max_k_two_accepted(self, capsys):
        # table2 never clusters, but the flag must pass validation.
        assert main(["table2", "--max-k", "2", "--no-cache"]) == 0

    def test_quick_conflicts_with_full_scale(self):
        with pytest.raises(SystemExit, match="conflicts"):
            main(["table2", "--quick", "--scale", "full"])

    def test_scale_honours_environment(self, capsys, monkeypatch):
        from repro.cli import _build_parser, _config_from_args

        monkeypatch.setenv("REPRO_SCALE", "quick")
        args = _build_parser().parse_args(["table3"])
        config = _config_from_args(args)
        assert config.discovery_runs == 3 and config.repetitions == 5

    def test_cli_config_matches_default_factory(self, monkeypatch):
        from repro.cli import _default_jobs
        from repro.experiments.config import default_config

        monkeypatch.delenv("REPRO_SCALE", raising=False)
        # The repro command defaults --jobs to _default_jobs(); a Python
        # caller of main(argv), like ExperimentConfig, defaults to 1.
        jobs = _default_jobs()
        args = _build_parser(jobs).parse_args(["table3", "--quick"])
        assert _config_from_args(args) == default_config("quick", jobs=jobs)
        args = _build_parser().parse_args(["table3", "--quick"])
        assert _config_from_args(args) == default_config("quick")
        assert default_config("quick").jobs == 1


#: More available memory than any test host's CPUs can use.
AMPLE = 1 << 50


class TestJobsDefault:
    @staticmethod
    def _command(monkeypatch, capsys, *argv):
        """Run ``main()`` as the repro command; return its stderr."""
        monkeypatch.setattr("sys.argv", ["repro", *argv])
        assert main() == 0
        return capsys.readouterr().err

    def test_default_is_the_affinity_set(self, monkeypatch):
        monkeypatch.setattr(cli, "_available_memory", lambda: AMPLE)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        assert cli._default_jobs() == 3
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
        assert cli._default_jobs() == 1

    def test_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.setattr(cli, "_available_memory", lambda: AMPLE)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert cli._default_jobs() == 6
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert cli._default_jobs() == 1

    def test_available_memory_bounds_the_default(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(16)), raising=False)
        peak = cli._WORKER_PEAK_BYTES
        monkeypatch.setattr(cli, "_available_memory", lambda: 5 * peak // 2)
        assert cli._default_jobs() == 2
        monkeypatch.setattr(cli, "_available_memory", lambda: peak // 2)
        assert cli._default_jobs() == 1
        monkeypatch.setattr(cli, "_available_memory", lambda: None)
        assert cli._default_jobs() == 16

    def test_available_memory_reads_meminfo(self):
        available = cli._available_memory()
        if os.path.exists("/proc/meminfo"):
            assert available is not None and available > 0
        else:
            assert available is None

    def test_command_pools_and_jobs_one_is_serial(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_available_memory", lambda: AMPLE)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        err = self._command(monkeypatch, capsys, "table2", "--no-cache", "--verbose")
        assert "[scheduler] processes × 3: 0 requested" in err
        err = self._command(
            monkeypatch, capsys, "table2", "--no-cache", "--verbose", "--jobs", "1"
        )
        assert "[scheduler] serial × 1: 0 requested" in err
        config = _config_from_args(
            _build_parser(3).parse_args(["table3", "--quick", "--no-cache", "--jobs", "1"])
        )
        assert isinstance(StudyScheduler(config).backend, SerialBackend)
        pooled = _config_from_args(
            _build_parser(3).parse_args(["table3", "--quick", "--no-cache"])
        )
        assert isinstance(StudyScheduler(pooled).backend, ProcessPoolBackend)

    def test_python_caller_keeps_the_serial_default(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_available_memory", lambda: AMPLE)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert main(["table2", "--no-cache", "--verbose"]) == 0
        assert "[scheduler] serial × 1: 0 requested" in capsys.readouterr().err
        assert main(["table2", "--no-cache", "--verbose", "--jobs", "3"]) == 0
        assert "[scheduler] processes × 3: 0 requested" in capsys.readouterr().err


class TestRegistryListings:
    def test_workloads_lists_table1(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") >= 11
        assert "miniFE" in out and "XSBench" in out

    def test_stages_lists_all_seven(self, capsys):
        assert main(["stages"]) == 0
        out = capsys.readouterr().out
        for stage in (
            "profile", "signature", "cluster", "select",
            "measure", "reconstruct", "validate",
        ):
            assert stage in out
        assert "Pintool" in out  # descriptions shown

    def test_machines_lists_table2_platforms(self, capsys):
        assert main(["machines"]) == 0
        out = capsys.readouterr().out
        assert "i7-3770" in out and "X-Gene" in out and "in-order" in out
