"""Tests of the benchmark's own code: span arithmetic, metric names and
failure accounting.  They never install the layer wrappers, which would
patch ``repro`` for every later test in the session."""

from __future__ import annotations

import json
import os
import re
import sys
from pathlib import Path
from types import SimpleNamespace

import bench
import layers
import pytest

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_self_time_subtracts_union_of_children_on_a_synthetic_tree():
    spans = [
        [0, None, "root", 0.0, 10.0],
        [1, 0, "a", 1.0, 4.0],
        [2, 1, "b", 2.0, 3.0],
        [3, 0, "a", 3.5, 6.0],  # overlaps its sibling: covered once
        [4, 0, "c", 9.0, 12.0],  # outlives its parent: clipped
    ]
    assert layers.self_times(spans) == pytest.approx(
        {"root": 10.0 - 6.0, "a": 2.0 + 2.5, "b": 1.0, "c": 3.0}
    )


def test_recorder_nests_spans_and_wrapper_counts_sizes():
    recorder = layers.SpanRecorder()
    size = ("n", lambda a, k, r: len(r))
    inner = layers._wrap(recorder, "inner", lambda lines: lines[::-1], size)
    outer = layers._wrap(recorder, "outer", lambda: inner([1, 2, 3]) + inner([4]))
    assert outer() == [3, 2, 1, 4]
    parents = {name: parent for _, parent, name, _, _ in recorder.spans}
    outer_id = next(i for i, _, name, _, _ in recorder.spans if name == "outer")
    assert parents == {"inner": outer_id, "outer": None}
    assert recorder.counters == {"outer.calls": 1, "inner.calls": 2, "inner.n": 4}


def test_layer_metrics_attribute_wall_to_spans():
    record = {
        "spans": [[0, None, "exec.scheduler", 0.0, 4.0], [1, 0, "exec.cell", 1.0, 3.0]],
        "counters": {
            "exec.cell.calls": 3,
            "exec.stagestore.load.calls": 4,
            "exec.stagestore.load.hits": 1,
        },
    }
    values = bench.layer_metrics(record, traced_wall=5.0, untraced_wall=4.0)
    assert set(values) == set(bench.LAYER_METRICS)
    assert values["exec.scheduler.self_s"] == pytest.approx(2.0)
    assert values["exec.cell.self_s"] == pytest.approx(2.0)
    assert values["exec.scheduler.cells"] == 3
    assert values["exec.stagestore.hit_ratio"] == pytest.approx(0.25)
    assert values["unattributed_s"] == pytest.approx(1.0)
    assert values["trace_overhead_pct"] == pytest.approx(25.0)


def test_a_wrapper_that_never_fired_fails_the_predictions():
    problems = bench.check_predictions("quick-cold", {})
    assert any("clustering.simpoint.calls" in p for p in problems)
    assert bench.check_predictions("quick-warm", {"exec.stagestore.load.hits": 3}) == ()


def test_table4_metrics_pool_every_row_of_every_table():
    def table(error: float, speedup: float) -> SimpleNamespace:
        errors = dict.fromkeys(
            ("err_cycles_x86", "err_cycles_arm", "err_instr_x86", "err_instr_arm"), error
        )
        return SimpleNamespace(rows=[SimpleNamespace(speedup=speedup, **errors)])

    metrics = bench.table4_metrics([table(1.0, 2.0), table(3.0, 8.0)])
    assert metrics["table4_mean_error_pct"] == pytest.approx(2.0)
    assert metrics["table4_geomean_speedup_x"] == pytest.approx(4.0)


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == bench.E2E_METRICS
    assert per_layer == {name: unit for name, (unit, _) in bench.LAYER_METRICS.items()}
    assert len(e2e) <= 16 and len(per_layer) <= 128
    for name, unit in {**e2e, **per_layer}.items():
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), unit


def test_nonzero_exit_and_digest_mismatch_count_as_failed(tmp_path):
    env = dict(os.environ)

    def op(code: str, name: str) -> bench.Op:
        return bench.run_op([sys.executable, "-c", code], tmp_path / name, env, 30.0)

    ledger = bench.Ledger()
    assert ledger.record("reference", op("print('table')", "ref"))
    assert not ledger.record("crash", op("import sys; sys.exit(3)", "crash"))
    assert not ledger.record("drift", op("print('tablE')", "drift"))
    assert ledger.record("same", op("print('table')", "same"))
    assert (ledger.attempted, ledger.failed) == (4, 2)
    assert "exit code 3" in ledger.failures[0]
    assert "sha256" in ledger.failures[1]


def test_an_operation_over_its_timeout_is_killed(tmp_path):
    op = bench.run_op(
        [sys.executable, "-c", "import time; time.sleep(60)"], tmp_path, dict(os.environ), 0.5
    )
    assert op.returncode < 0 and op.wall_s < 30
