"""``repro.api`` — the composable stage-based methodology API.

The paper's workflow (profile → signatures → clustering → selection →
measurement → reconstruction → validation) is expressed as seven
first-class :class:`~repro.api.stage.Stage` plugins assembled by a
fluent builder::

    from repro.api import ClusterStage, build_pipeline

    run = (
        build_pipeline("miniFE", threads=8)
        .with_stage(ClusterStage(max_k=10))
        .on("ARMv8")
        .run()
    )

Workloads, machines and stages live in open registries
(:data:`workload_registry`, :data:`machine_registry`,
:data:`stage_registry`) with decorator registration
(``@register_workload`` etc.) and case-insensitive, did-you-mean name
lookup, so new applications, platforms and clustering variants plug in
without touching core files.

Axis sweeps build on the same graph: :class:`ScalingStudy` asks
whether a representative region survives team growth, and
:class:`RankStudy` whether it survives distribution over MPI-style
ranks (per-rank discovery through the registered ``rankify`` /
``coalesce_ranks`` stages, communication priced by each machine's
network model).  :func:`run_crossarch` runs the paper's four-way
cross-architecture comparison for one (application, thread count).
"""

from repro.api.builder import (
    PipelineBuilder,
    PipelineRun,
    StagePipeline,
    build_pipeline,
)
from repro.api.context import StageContext
from repro.api.registry import (
    PluginRegistry,
    machine_registry,
    register_machine,
    register_stage,
    register_workload,
    stage_registry,
    workload_registry,
)
from repro.api.rank_stages import (
    CoalesceRanksStage,
    RankifyStage,
    coalesce_signatures,
)
from repro.api.ranks import (
    RANK_COUNTS,
    RANK_MACHINES,
    RANK_THREADS,
    RankCell,
    RankResult,
    RankStudy,
    default_rank_stages,
    run_rank_cell,
)
from repro.api.scaling import (
    SCALING_MACHINES,
    SCALING_THREAD_COUNTS,
    ScalingCell,
    ScalingResult,
    ScalingStudy,
    run_scaling_cell,
)
from repro.api.stage import Stage
from repro.api.stages import (
    DEFAULT_STAGE_NAMES,
    ClusterStage,
    MeasureStage,
    ProfileStage,
    ReconstructStage,
    SelectStage,
    SignatureStage,
    ValidateStage,
    default_stages,
    evaluate_selection,
)
from repro.api.study import CrossArchResult, run_crossarch
from repro.api.types import (
    EvaluationResult,
    PipelineConfig,
    SupportsProgram,
    evaluation_payload,
)

__all__ = [
    "PipelineBuilder",
    "PipelineRun",
    "StagePipeline",
    "build_pipeline",
    "StageContext",
    "PluginRegistry",
    "workload_registry",
    "machine_registry",
    "stage_registry",
    "register_workload",
    "register_machine",
    "register_stage",
    "Stage",
    "DEFAULT_STAGE_NAMES",
    "default_stages",
    "ProfileStage",
    "SignatureStage",
    "ClusterStage",
    "SelectStage",
    "MeasureStage",
    "ReconstructStage",
    "ValidateStage",
    "evaluate_selection",
    "CrossArchResult",
    "run_crossarch",
    "SCALING_MACHINES",
    "SCALING_THREAD_COUNTS",
    "ScalingCell",
    "ScalingResult",
    "ScalingStudy",
    "run_scaling_cell",
    "RANK_COUNTS",
    "RANK_MACHINES",
    "RANK_THREADS",
    "RankCell",
    "RankResult",
    "RankStudy",
    "RankifyStage",
    "CoalesceRanksStage",
    "coalesce_signatures",
    "default_rank_stages",
    "run_rank_cell",
    "EvaluationResult",
    "PipelineConfig",
    "SupportsProgram",
    "evaluation_payload",
]
