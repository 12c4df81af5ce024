"""Integration tests for the four-way cross-architecture study."""

import pytest

from repro.api import PipelineConfig, run_crossarch
from repro.hw.measure import MeasurementProtocol
from repro.workloads.registry import create

FAST = PipelineConfig(discovery_runs=2, protocol=MeasurementProtocol(repetitions=5))


@pytest.fixture(scope="module")
def mcb_result():
    return run_crossarch(create("MCB"), threads=4, config=FAST)


class TestCrossArchStudy:
    def test_four_config_labels(self, mcb_result):
        assert set(mcb_result.configs) == {
            "x86_64", "x86_64-vect", "ARMv8", "ARMv8-vect",
        }

    def test_no_failures_for_mcb(self, mcb_result):
        assert mcb_result.failures == {}

    def test_same_selection_for_both_isas_of_a_pair(self, mcb_result):
        scalar_x86 = mcb_result.configs["x86_64"].selection
        scalar_arm = mcb_result.configs["ARMv8"].selection
        assert list(scalar_x86.representatives) == list(scalar_arm.representatives)

    def test_selected_counts_accumulated(self, mcb_result):
        # 2 runs x 2 vectorisation settings.
        assert len(mcb_result.selection_sizes()) == 4

    def test_total_barrier_points(self, mcb_result):
        assert mcb_result.total_barrier_points == 10

    def test_errors_reasonable(self, mcb_result):
        for label, cfg in mcb_result.configs.items():
            assert cfg.report.error_pct("instructions") < 8.0, label

    def test_best_selection_accessor(self, mcb_result):
        assert mcb_result.best_selection(False).k >= 1
        assert mcb_result.best_selection(True).k >= 1

    def test_hpgmg_records_failures(self):
        result = run_crossarch(create("HPGMG-FV"), threads=4, config=FAST)
        assert "ARMv8" in result.failures
        assert "ARMv8-vect" in result.failures
        assert "x86_64" in result.configs  # same-ISA still evaluated
        with pytest.raises(Exception):
            result.config("ARMv8")
