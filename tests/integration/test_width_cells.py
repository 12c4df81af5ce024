"""Integration tests: one sweep cell per (app, width), one row per machine.

As the paper measures one x86_64 discovery on every target, a scheduled
``scaling`` or ``ranks`` cell runs one stage graph at its width and
measures it on every grid machine that can host the width.  Each of its
rows must be exactly the one-machine cell, and the grid must discover
and store once per (app, width), not once per machine.
"""

import struct
from collections import Counter
from dataclasses import fields

import pytest

from repro.api.stages import ClusterStage
from repro.api.sweep import (
    RANK_COUNTS,
    SCALING_MACHINES,
    RankAxis,
    SweepCell,
    run_rank_cell,
    run_scaling_cell,
)
from repro.exec.scheduler import StudyScheduler
from repro.experiments.config import default_config
from repro.experiments.sweep import SweepGrid, rank_request, scaling_request, sweep_cell

#: Per axis: the width cell's request and the one-machine cell.
AXES = {
    "scaling": (scaling_request, run_scaling_cell),
    "ranks": (
        rank_request,
        lambda app, machine, width, config: run_rank_cell(app, machine, width, config=config),
    ),
}

#: Two apps × two rank counts of the rank grid.
RANK_GRID = SweepGrid(RankAxis(), RANK_COUNTS[:2])
RANK_APPS = ("MCB", "graph500")


def _bits(value):
    """A field's value, with a float as its IEEE-754 bit pattern."""
    return struct.pack("<d", value) if isinstance(value, float) else value


@pytest.mark.parametrize("app", ["MCB", "HPGMG-FV"])
@pytest.mark.parametrize("kind", list(AXES))
def test_each_row_is_the_one_machine_cell(kind, app):
    # HPGMG-FV's ARMv8 targets execute a different barrier sequence, so
    # two of its rows carry the failure the one-machine cell records.
    make_request, run_cell = AXES[kind]
    config = default_config("quick", cache_dir="")
    rows = sweep_cell(make_request(app, 2), config)
    assert [row["machine"] for row in rows] == list(SCALING_MACHINES)
    assert [bool(row["failure"]) for row in rows] == [False] + [app == "HPGMG-FV"] * 2
    for row in rows:
        cell = SweepCell.from_payload(row)
        alone = run_cell(app, cell.machine, 2, config.pipeline_config())
        for field in fields(SweepCell):
            got, want = getattr(cell, field.name), getattr(alone, field.name)
            assert _bits(got) == _bits(want), (cell.machine, field.name)


def test_no_store_runs_each_discovery_once(monkeypatch):
    # Without a stage store nothing is shared through disk: a cell per
    # machine would cluster three times per (app, width).
    clustered = Counter()
    run = ClusterStage.run

    def counting(self, ctx):
        clustered[ctx.app.name] += 1
        return run(self, ctx)

    monkeypatch.setattr(ClusterStage, "run", counting)
    config = default_config("quick", cache_dir="", jobs=1)
    StudyScheduler(config).run(RANK_GRID.requests_for(RANK_APPS, SCALING_MACHINES))
    assert clustered == Counter(
        f"{app}@{ranks}ranks" for app in RANK_APPS for ranks in RANK_GRID.widths
    )


def test_cache_stores_one_measure_entry_per_width(tmp_path):
    config = default_config("quick", cache_dir=str(tmp_path), jobs=2)
    StudyScheduler(config).run(RANK_GRID.requests_for(RANK_APPS, SCALING_MACHINES))
    entries = Counter(path.name.partition("_")[0] for path in tmp_path.rglob("*_*.rpb"))
    width_cells = len(RANK_APPS) * len(RANK_GRID.widths)
    assert entries == {"select": width_cells, "measure": width_cells}
