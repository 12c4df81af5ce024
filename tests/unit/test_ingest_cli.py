"""Tests for ``repro machines ingest`` and ingested-machine grids.

The CLI half exercises the `machines ingest` subcommand against the
captured fixture corpus in ``tests/data/hosts/``; the grid half checks
that machines registered from saved spec files become first-class rows
in the scaling / ranks / trace experiment grids without disturbing the
default grids (and hence the existing cache digests).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.api.registry import machine_registry
from repro.cli import main
from repro.experiments.config import (
    default_config,
    grid_machines,
    register_config_machines,
)

HOSTS = Path(__file__).resolve().parents[1] / "data" / "hosts"


class TestIngestCommand:
    def test_ingest_xeon_registers_104_cpu_machine(self, capsys, scratch_registry):
        assert main(["machines", "ingest", str(HOSTS / "xeon8170m"), "--name", "xeon-t"]) == 0
        out = capsys.readouterr().out
        assert "registered: xeon-t" in out
        assert "104 hardware contexts" in out
        assert "4 NUMA nodes" in out
        machine = machine_registry.get("xeon-t")
        assert machine.max_threads == 104
        assert machine.nodes == 4
        assert machine.placement(8).node.tolist() == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_ingested_machine_appears_in_machines_listing(self, capsys, scratch_registry):
        assert main(["machines", "ingest", str(HOSTS / "armcortex"), "--name", "arm-t"]) == 0
        capsys.readouterr()
        assert main(["machines"]) == 0
        assert "arm-t" in capsys.readouterr().out

    def test_json_output_is_a_loadable_spec(self, capsys, scratch_registry):
        from repro.hw.ingest import machine_from_spec

        assert main(
            ["machines", "ingest", str(HOSTS / "vm2cpu"), "--name", "vm-t", "--json"]
        ) == 0
        spec = json.loads(capsys.readouterr().out)
        assert machine_from_spec(spec) == machine_registry.get("vm-t")

    def test_save_round_trips_through_spec_file(self, tmp_path, capsys, scratch_registry):
        path = tmp_path / "arm.json"
        assert main(
            [
                "machines", "ingest", str(HOSTS / "armcortex"),
                "--name", "arm-s", "--save", str(path),
            ]
        ) == 0
        from repro.hw.ingest import ensure_registered

        saved = machine_registry.get("arm-s")
        machine_registry.unregister("arm-s")
        assert ensure_registered([str(path)]) == ("arm-s",)
        assert machine_registry.get("arm-s") == saved

    def test_missing_directory_exits_2(self, tmp_path, capsys):
        assert main(["machines", "ingest", str(tmp_path / "nope")]) == 2
        assert "nope" in capsys.readouterr().err

    def test_unknown_donor_exits_2(self, capsys):
        assert main(
            ["machines", "ingest", str(HOSTS / "vm2cpu"), "--donor", "no-such"]
        ) == 2
        assert "no-such" in capsys.readouterr().err

    def test_unknown_spec_path_on_experiment_exits_2(self, capsys):
        assert main(["table2", "--machine-spec", "/does/not/exist.json"]) == 2
        assert "exist.json" in capsys.readouterr().err

    def test_unknown_grid_machine_on_experiment_exits_2(self, capsys):
        assert main(["table2", "--machines", "never-registered"]) == 2
        assert "never-registered" in capsys.readouterr().err


class TestIngestedMachineGrids:
    @pytest.fixture
    def spec_path(self, tmp_path, scratch_registry):
        from repro.hw.ingest import (
            HostDescriptor,
            lower_descriptor,
            machine_to_spec,
            save_machine_spec,
        )

        lowered = lower_descriptor(
            HostDescriptor.from_tree(HOSTS / "armcortex"), name="grid-arm"
        )
        path = tmp_path / "grid-arm.json"
        save_machine_spec(machine_to_spec(lowered.machine), path)
        return str(path)

    def _config(self, spec_path):
        from dataclasses import replace

        return replace(
            default_config("quick"),
            machine_specs=(spec_path,),
            machines=("grid-arm",),
        )

    def test_register_config_machines_is_idempotent(self, spec_path):
        config = self._config(spec_path)
        register_config_machines(config)
        register_config_machines(config)
        assert machine_registry.get("grid-arm").cores == 8

    def test_grid_machines_appends_without_duplicates(self, spec_path):
        config = self._config(spec_path)
        base = ("a", "b")
        assert grid_machines(config, base) == ("a", "b", "grid-arm")
        assert grid_machines(config, ("a", "grid-arm")) == ("a", "grid-arm")
        assert grid_machines(default_config("quick"), base) == base

    def _assert_width_cell_measures_it(self, grid, spec_path):
        # Requests name no machine: the ingested one is a row of every
        # width cell, and a default grid has no such row.
        from dataclasses import replace

        from repro.experiments.sweep import sweep_cell

        config = self._config(spec_path)
        request = grid.requests(config)[0]
        assert request == grid.requests(default_config("quick"))[0]
        rows = sweep_cell(request, replace(config, cache_dir=""))
        assert rows[-1]["machine"] == "grid-arm"
        assert grid.build({}, config).results[0].machines[-1] == "grid-arm"
        default = grid.build({}, default_config("quick")).results[0].machines
        assert "grid-arm" not in default

    def test_scaling_requests_include_ingested_machine(self, spec_path):
        from repro.experiments.sweep import scaling

        self._assert_width_cell_measures_it(scaling, spec_path)

    def test_ranks_requests_include_ingested_machine(self, spec_path):
        from repro.experiments.sweep import ranks

        self._assert_width_cell_measures_it(ranks, spec_path)

    def test_scaling_caps_widths_at_discovery_machine(self, tmp_path, scratch_registry):
        # A 104-context ingested machine supports width 16, but the
        # x86_64 discovery machine (8 contexts) cannot host the
        # discovery run — the cell must become an explicit unsupported
        # row, not a scheduled cell that dies mid-pipeline.
        from dataclasses import replace as dc_replace

        from repro.experiments.sweep import scaling
        from repro.hw.ingest import (
            HostDescriptor,
            lower_descriptor,
            machine_to_spec,
            save_machine_spec,
        )

        lowered = lower_descriptor(
            HostDescriptor.from_tree(HOSTS / "xeon8170m"), name="grid-xeon"
        )
        path = tmp_path / "grid-xeon.json"
        save_machine_spec(machine_to_spec(lowered.machine), path)
        config = dc_replace(
            default_config("quick"),
            machine_specs=(str(path),),
            machines=("grid-xeon",),
        )
        assert {r.threads for r in scaling.requests(config)} == {1, 2, 4, 8}
        table = scaling.build({}, config)
        reason = table.results[0].unsupported[("grid-xeon", 16)]
        assert "x86_64 discovery" in reason
        assert "exceeds 8 hardware contexts" in reason

    def test_trace_requests_gain_machine_param_only_when_set(self, spec_path):
        from repro.experiments import trace

        default_rows = trace.requests(default_config("quick"))
        assert all(r.param("machine") is None for r in default_rows)
        # Extra machines append rows; the default rows keep their exact
        # params (and therefore their cache digests).
        rows = trace.requests(self._config(spec_path))
        assert [r.params for r in rows[: len(default_rows)]] == [
            r.params for r in default_rows
        ]
        extra = rows[len(default_rows):]
        assert extra and all(r.param("machine") == "grid-arm" for r in extra)
