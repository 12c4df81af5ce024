"""Integration tests: the staged graph against the eager pipeline.

The acceptance bar for the stage API: ``build_pipeline(...).run()`` with
all-default stages must produce byte-identical ``EvaluationResult``
payloads to the eager ``StagePipeline.discover()`` +
``evaluate_many()`` calls — the seed's original pipeline path, which the
experiment drivers still use — for every app in ``EVALUATED_APPS``.  The
staged graph path (``measure`` publishing reports rebuilt from its
stored estimates) and
the eager path are distinct code paths, so this is a real equivalence,
not a tautology.
"""

import json

import numpy as np
import pytest
from evaluations import evaluation_payload

from repro.api import ClusterStage, PipelineConfig, Stage, StagePipeline, build_pipeline
from repro.hw.machines import APM_XGENE, INTEL_I7_3770
from repro.hw.measure import MeasurementProtocol
from repro.isa.descriptors import ISA
from repro.workloads.registry import EVALUATED_APPS, create

FAST = PipelineConfig(
    discovery_runs=1, protocol=MeasurementProtocol(repetitions=2)
)


def _payload(evaluations) -> str:
    return json.dumps(
        [evaluation_payload(e) for e in evaluations], sort_keys=True
    )


class TestBuilderParity:
    @pytest.mark.parametrize("app_name", EVALUATED_APPS)
    def test_byte_identical_to_legacy_pipeline(self, app_name):
        eager = StagePipeline(create(app_name), threads=2, config=FAST)
        selections = eager.discover()
        eager_payloads = {
            "x86": _payload(eager.evaluate_many(selections, ISA.X86_64)),
            "arm": _payload(eager.evaluate_many(selections, ISA.ARMV8)),
        }

        run = (
            build_pipeline(app_name, threads=2, config=FAST)
            .on(ISA.X86_64, ISA.ARMV8)
            .run()
        )
        assert _payload(run.evaluations_on(ISA.X86_64)) == eager_payloads["x86"]
        assert _payload(run.evaluations_on(ISA.ARMV8)) == eager_payloads["arm"]

    def test_vectorised_parity(self):
        eager = StagePipeline(create("miniFE"), threads=2, vectorised=True, config=FAST)
        expected = _payload(eager.evaluate_many(eager.discover(), ISA.ARMV8))
        run = (
            build_pipeline("miniFE", threads=2, vectorised=True, config=FAST)
            .on(APM_XGENE)
            .run()
        )
        assert _payload(run.evaluations_on(APM_XGENE)) == expected

    def test_default_target_is_discovery_machine(self):
        run = build_pipeline("XSBench", threads=2, config=FAST).run()
        assert list(run.evaluations) == [INTEL_I7_3770.name]

    def test_workload_name_is_case_insensitive(self):
        run = build_pipeline("xsbench", threads=2, config=FAST).run()
        assert run.context.app.name == "XSBench"


class TestBuilderComposition:
    def test_with_stage_overrides_clustering(self):
        base = build_pipeline("MCB", threads=2, config=FAST).run()
        capped = (
            build_pipeline("MCB", threads=2, config=FAST)
            .with_stage(ClusterStage(max_k=2))
            .run()
        )
        assert all(s.k <= 2 for s in capped.selections)
        assert max(s.k for s in base.selections) > 2

    def test_maxk_alias_accepted(self):
        stage = ClusterStage(maxK=3)
        ctx = build_pipeline("MCB", threads=2, config=FAST).build().context
        assert stage.effective_options(ctx).max_k == 3

    def test_on_accepts_machine_isa_and_name(self):
        run = (
            build_pipeline("XSBench", threads=2, config=FAST)
            .on(APM_XGENE)
            .on(ISA.X86_64)
            .run()
        )
        assert set(run.evaluations) == {APM_XGENE.name, INTEL_I7_3770.name}
        named = (
            build_pipeline("XSBench", threads=2, config=FAST)
            .on("ARMv8 in-order (A53-class)")
            .run()
        )
        assert list(named.evaluations) == ["ARMv8 in-order (A53-class)"]

    def test_custom_stage_replaces_cluster(self):
        class OneClusterStage(Stage):
            """Degenerate clustering: everything in one cluster."""

            name = "one-cluster"
            inputs = ("signatures",)
            outputs = ("clusterings",)
            description = "single-cluster stand-in"

            def run(self, ctx):
                from repro.clustering.kmeans import KMeansResult
                from repro.clustering.simpoint import ClusteringChoice

                clusterings = []
                for sig in ctx.require("signatures"):
                    n = sig.n_barrier_points
                    projected = sig.project(np.ones((sig.shape[1], 1)))
                    clusterings.append(
                        ClusteringChoice(
                            k=1,
                            result=KMeansResult(
                                labels=np.zeros(n, dtype=np.int64),
                                centers=projected.mean(axis=0, keepdims=True),
                                inertia=0.0,
                                iterations=0,
                            ),
                            projected=projected,
                            bic_by_k={1: 0.0},
                        )
                    )
                ctx.put("clusterings", clusterings)
                return ctx

        run = (
            build_pipeline("MCB", threads=2, config=FAST)
            .with_stage(OneClusterStage(), replaces="cluster")
            .run()
        )
        assert all(s.k == 1 for s in run.selections)

    def test_without_stage_trims_graph(self):
        pipeline = (
            build_pipeline("XSBench", threads=2, config=FAST)
            .without_stage("measure")
            .build()
        )
        assert [stage.name for stage in pipeline.stages][-1] == "select"
        run = pipeline.run()
        assert "selections" in run.context.artifacts
        assert not {"measurements", "estimates", "evaluations"} & set(run.context.artifacts)

    def test_discover_matches_run_selections(self):
        pipeline = build_pipeline("MCB", threads=2, config=FAST).build()
        discovered = pipeline.discover()
        run = pipeline.run()
        assert discovered is run.selections

    def test_with_config_overrides(self):
        pipeline = (
            build_pipeline("XSBench", threads=2, config=FAST)
            .with_config(seed=7)
            .build()
        )
        assert pipeline.config.seed == 7
        assert pipeline.config.discovery_runs == FAST.discovery_runs

    def test_failures_surface_instead_of_raising(self):
        run = (
            build_pipeline("HPGMG-FV", threads=2, config=FAST)
            .on(ISA.X86_64, ISA.ARMV8)
            .run()
        )
        assert APM_XGENE.name in run.failures
        assert "parallel sections" in run.failures[APM_XGENE.name]
        assert INTEL_I7_3770.name in run.evaluations
