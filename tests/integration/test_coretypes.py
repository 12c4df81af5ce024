"""Integration tests for the core-type study and machine overrides."""

import pytest

from repro.api import PipelineConfig, StagePipeline
from repro.experiments import coretypes
from repro.experiments.config import ExperimentConfig
from repro.hw.machines import APM_XGENE, ARMV8_IN_ORDER
from repro.hw.measure import MeasurementProtocol
from repro.isa.descriptors import ISA
from repro.workloads.registry import create

FAST = PipelineConfig(discovery_runs=2, protocol=MeasurementProtocol(repetitions=5))


class TestInOrderMachine:
    def test_same_isa_and_caches_as_xgene(self):
        assert ARMV8_IN_ORDER.isa is ISA.ARMV8
        assert ARMV8_IN_ORDER.l1d is APM_XGENE.l1d
        assert ARMV8_IN_ORDER.l2 is APM_XGENE.l2

    def test_higher_cpi_than_xgene(self):
        for cls in ("scalar_flops", "int_ops", "scalar_mem", "branches"):
            assert ARMV8_IN_ORDER.cpi[cls] > APM_XGENE.cpi[cls]

    def test_less_latency_overlap(self):
        for kind, overlap in ARMV8_IN_ORDER.stall_overlap.items():
            assert overlap <= APM_XGENE.stall_overlap[kind]


class TestMachineOverride:
    def test_evaluate_with_explicit_machine(self):
        pipeline = StagePipeline(create("miniFE"), threads=4, config=FAST)
        selection = pipeline.discover()[0]
        default = pipeline.evaluate(selection, ISA.ARMV8)
        explicit = pipeline.evaluate(selection, ISA.ARMV8, machine=APM_XGENE)
        assert default.report.error_mean == pytest.approx(explicit.report.error_mean)

    def test_in_order_estimate_stays_accurate(self):
        pipeline = StagePipeline(create("miniFE"), threads=4, config=FAST)
        selection = pipeline.discover()[0]
        result = pipeline.evaluate(selection, ISA.ARMV8, machine=ARMV8_IN_ORDER)
        assert result.report.error_pct("cycles") < 6.0
        assert result.report.error_pct("instructions") < 6.0

    def test_wrong_isa_machine_rejected(self):
        pipeline = StagePipeline(create("miniFE"), threads=4, config=FAST)
        selection = pipeline.discover()[0]
        with pytest.raises(ValueError):
            pipeline.evaluate(selection, ISA.X86_64, machine=ARMV8_IN_ORDER)


class TestCoreTypeStudy:
    def test_study_rows(self):
        config = ExperimentConfig(
            thread_counts=(4,), discovery_runs=2, repetitions=5, cache_dir=""
        )
        study = coretypes.run(config, apps=("miniFE",), threads=4)
        row = study.row("miniFE")
        assert row.cpi_ratio > 1.2
        assert row.in_order["cycles"] < 8.0
        rendered = study.render()
        assert "miniFE" in rendered and "CPI ratio" in rendered

    def test_cell_loads_the_crossarch_discovery(self, tmp_path, monkeypatch):
        # A coretypes cell discovers exactly what the crossarch cell at
        # its width stored, so on one store it runs no clustering.
        from repro.api import stages
        from repro.exec.request import StudyRequest
        from repro.experiments.config import default_config
        from repro.experiments.runner import crossarch_cell, crossarch_request

        request = StudyRequest(kind="coretypes", app="miniFE", threads=2)
        storeless = coretypes.coretype_cell(request, default_config("quick", cache_dir=""))
        config = default_config("quick", cache_dir=str(tmp_path / "cache"))
        crossarch_cell(crossarch_request("miniFE", 2), config)

        def no_clustering(*args, **kwargs):
            raise AssertionError("coretypes re-ran the cluster stage")

        monkeypatch.setattr(stages, "run_simpoint", no_clustering)
        assert coretypes.coretype_cell(request, config) == storeless
