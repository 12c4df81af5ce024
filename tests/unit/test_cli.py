"""Tests for the command-line interface (light experiments only)."""

import pytest

from repro.cli import main


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
        from repro.cli import _build_parser, _config_from_args
        from repro.experiments.config import default_config

        monkeypatch.delenv("REPRO_SCALE", raising=False)
        args = _build_parser().parse_args(["table3", "--quick"])
        assert _config_from_args(args) == default_config("quick")


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
