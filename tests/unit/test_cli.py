"""Tests for the command-line interface (light experiments only)."""

import os

import pytest

from repro import cli
from repro.cli import _build_parser, _config_from_args, main
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
        assert main(["table2", "--jobs", "2", "--backend", "processes"]) == 0
        with pytest.raises(SystemExit):
            main(["table2", "--backend", "gpu"])

    def test_backend_name_follows_the_worker_count(self, capsys):
        argv = ["table2", "--no-cache", "--verbose"]
        assert main([*argv, "--backend", "processes", "--jobs", "1"]) == 0
        assert "[scheduler] serial × 1: 0 requested" in capsys.readouterr().err
        assert main([*argv, "--backend", "serial", "--jobs", "3"]) == 0
        assert "[scheduler] serial × 1: 0 requested" in capsys.readouterr().err

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

    def test_both_scales_share_the_simpoint_options(self):
        from repro.clustering.simpoint import SimPointOptions
        from repro.experiments.config import default_config

        assert (
            default_config("full").simpoint
            == default_config("quick").simpoint
            == SimPointOptions()
        )

    @pytest.mark.parametrize("scale", ["quick", "full"])
    def test_max_k_is_a_plain_simpoint_override(self, scale):
        from repro.clustering.simpoint import SimPointOptions
        from repro.experiments.config import default_config

        args = _build_parser().parse_args(["table3", "--scale", scale, "--max-k", "5"])
        assert _config_from_args(args) == default_config(
            scale, simpoint=SimPointOptions(max_k=5)
        )


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
        assert StudyScheduler(config).supervision.name == "serial"
        pooled = _config_from_args(
            _build_parser(3).parse_args(["table3", "--quick", "--no-cache"])
        )
        supervision = StudyScheduler(pooled).supervision
        assert (supervision.name, supervision.jobs) == ("processes", 3)

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

    def test_stages_lists_all_five(self, capsys):
        assert main(["stages"]) == 0
        out = capsys.readouterr().out
        assert [line.split()[0] for line in out.strip().splitlines()] == [
            "profile", "signature", "cluster", "select", "measure",
        ]
        assert "Pintool" in out  # descriptions shown

    def test_machines_lists_table2_platforms(self, capsys):
        assert main(["machines"]) == 0
        out = capsys.readouterr().out
        assert "i7-3770" in out and "X-Gene" in out and "in-order" in out


class TestQuarantinedRun:
    def test_exits_one_with_the_diagnostic_and_verbose_lines(self, capsys):
        from repro.exec.faults import install_plan, reset_fault_state

        argv = [
            "figure1", "--quick", "--no-cache", "--jobs", "1", "--verbose",
            "--faults", "seed=1,exc=1.0,max=0", "--cell-retries", "0",
        ]
        try:
            assert main(argv) == 1
        finally:
            install_plan(None)
            reset_fault_state()
        err = capsys.readouterr().err
        assert "error: 1 cell(s) quarantined" in err
        assert "[scheduler] serial × 1: " in err and "1 quarantined" in err
        assert "[stage-cache]" in err
        assert "Traceback" not in err


class TestCacheLayout:
    """A cached run keeps one version directory under the cache root."""

    STALE = (
        "v0.1/stages/aa/x.rpb",
        "cells/ab/v10.2_crossarch_MCB_t4_x.json",
        "stages/aa/v10.2_profile_x.rpb",
        "traces/v10.2_trace_x.rpt",
        "checkpoints/study.json",
        "serve/serve.journal",
    )
    KEPT = ("notes.txt",)

    def _fill(self, cache, paths):
        for rel in paths:
            (cache / rel).parent.mkdir(parents=True, exist_ok=True)
            (cache / rel).write_bytes(b"x")

    def test_cold_run_writes_only_versioned_containers(self, tmp_path, monkeypatch):
        from repro.exec.store import cache_version

        monkeypatch.chdir(tmp_path)
        assert main(["figure1", "--quick"]) == 0
        cache = tmp_path / ".repro-cache"
        namespaces = set()
        for path in (p for p in cache.rglob("*") if p.is_file()):
            version, namespace, shard, name = path.relative_to(cache).parts
            assert version == f"v{cache_version()}" and path.suffix == ".rpb"
            assert len(shard) == 2 and path.stem.rsplit("_", 1)[1].startswith(shard)
            namespaces.add(namespace)
        assert namespaces == {"cells", "stages"}

    def test_cached_run_prunes_stale_layouts(self, tmp_path, monkeypatch, capsys):
        from repro.exec.store import cache_version

        cache = tmp_path / ".repro-cache"
        self._fill(cache, self.STALE + self.KEPT)
        monkeypatch.chdir(tmp_path)
        assert main(["figure1", "--quick", "--verbose"]) == 0
        assert sorted(p.name for p in cache.iterdir()) == [
            "notes.txt", f"v{cache_version()}"
        ]
        assert (cache / "notes.txt").read_bytes() == b"x"
        err = capsys.readouterr().err
        assert (
            "[cache] removed stale layouts: cells/ checkpoints/ serve/ stages/" in err
        )

    def test_uncached_run_deletes_nothing(self, tmp_path, monkeypatch):
        cache = tmp_path / ".repro-cache"
        self._fill(cache, self.STALE + self.KEPT)
        monkeypatch.chdir(tmp_path)
        assert main(["figure1", "--quick", "--no-cache"]) == 0
        assert all((cache / rel).exists() for rel in self.STALE + self.KEPT)

    def test_version_bump_leaves_no_byte_of_the_old_version(
        self, tmp_path, monkeypatch
    ):
        from repro.exec import store

        monkeypatch.chdir(tmp_path)
        cache = tmp_path / ".repro-cache"
        assert main(["figure1", "--quick"]) == 0
        old = cache / f"v{store.cache_version()}"
        assert list(old.rglob("*.rpb"))
        self._fill(cache, self.KEPT)

        monkeypatch.setattr(store, "CACHE_VERSION", store.CACHE_VERSION + 1)
        assert main(["figure1", "--quick"]) == 0
        new = cache / f"v{store.cache_version()}"
        assert not old.exists() and list(new.rglob("*.rpb"))
        assert sorted(p.name for p in cache.iterdir()) == ["notes.txt", new.name]
