"""Tests for the experiment driver data structures and rendering."""

from repro.experiments.figure2 import PANEL_IDS, Figure2, Figure2Panel, Figure2Point
from repro.experiments.runner import ConfigSummary, StudySummary
from repro.experiments.table3 import PAPER_TABLE3, Table3
from repro.experiments.table4 import PAPER_TABLE4, Table4, Table4Row
from repro.hw.pmu import PMU_METRICS


def _panel(app="AMGMk"):
    points = [
        Figure2Point(threads=t, config_label=label, metric=metric,
                     error_pct=float(t + i), std_pct=0.1)
        for t in (1, 8)
        for label in ("x86_64", "ARMv8")
        for i, metric in enumerate(PMU_METRICS)
    ]
    return Figure2Panel(app=app, panel_id=PANEL_IDS[app], points=points)


class TestFigure2Structures:
    def test_series_filters_config_and_metric(self):
        panel = _panel()
        series = panel.series("x86_64", "cycles")
        assert [t for t, _, _ in series] == [1, 8]
        assert [e for _, e, _ in series] == [1.0, 8.0]

    def test_max_error(self):
        panel = _panel()
        assert panel.max_error() == 8.0 + len(PMU_METRICS) - 1

    def test_render_contains_all_metrics(self):
        text = _panel().render()
        for metric in PMU_METRICS:
            assert metric in text

    def test_figure_render_orders_panels(self):
        fig = Figure2(panels={"AMGMk": _panel("AMGMk"), "LULESH": _panel("LULESH")})
        text = fig.render()
        assert text.index("2a") < text.index("2g")


class TestTableStructures:
    def test_paper_table3_is_complete(self):
        assert set(PAPER_TABLE3) == {
            "AMGMk", "CoMD", "graph500", "HPCG", "LULESH", "MCB", "miniFE",
        }

    def test_paper_table4_has_both_configs(self):
        for app in PAPER_TABLE3:
            assert (app, False) in PAPER_TABLE4
            assert (app, True) in PAPER_TABLE4

    def test_table3_render_includes_paper_values(self):
        table = Table3(rows=[("MCB", 10, 3, 4)])
        text = table.render()
        assert "10 / 3-4" in text

    def test_table4_row_config_name(self):
        row = Table4Row(
            app="MCB", vectorised=True, bps_selected=3, total_bps=10,
            err_cycles_x86=0.6, err_cycles_arm=0.8, err_instr_x86=0.1,
            err_instr_arm=0.1, largest_pct=10.4, total_pct=28.7, speedup=3.5,
        )
        assert row.config_name == "x86_64-vect / ARMv8-vect"
        table = Table4(rows=[row])
        assert "paper 3.5x" in table.render()


class TestStudySummary:
    def _summary(self):
        cfg = ConfigSummary(
            label="x86_64",
            k=5,
            error_mean={m: 1.0 for m in PMU_METRICS},
            error_std={m: 0.2 for m in PMU_METRICS},
            bp_fraction=0.005,
            total_instruction_pct=3.8,
            largest_instruction_pct=3.2,
            speedup=26.0,
        )
        return StudySummary(
            app="AMGMk",
            threads=8,
            total_barrier_points=1000,
            configs={"x86_64": cfg},
            failures={},
            selected_counts=[5, 7, 4],
        )

    def test_accessors(self):
        summary = self._summary()
        assert summary.config("x86_64").speedup == 26.0
        assert summary.min_selected() == 4
        assert summary.max_selected() == 7
