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

Axis sweeps build on the same graph: one :class:`Sweep` over an
:class:`Axis` asks whether a representative region survives a growing
job — along :class:`ThreadAxis` (team growth on one node) or
:class:`RankAxis` (distribution over MPI-style ranks: per-rank
discovery through the registered ``rankify`` / ``coalesce_ranks``
stages, communication priced by each machine's network model).
``ScalingStudy`` and ``RankStudy`` construct the two.
:func:`run_crossarch` runs the paper's four-way cross-architecture
comparison for one (application, thread count).
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
from repro.api.sweep import (
    RANK_COUNTS,
    RANK_MACHINES,
    RANK_THREADS,
    SCALING_MACHINES,
    SCALING_THREAD_COUNTS,
    Axis,
    RankAxis,
    RankCell,
    RankResult,
    RankStudy,
    ScalingCell,
    ScalingResult,
    ScalingStudy,
    Sweep,
    SweepCell,
    SweepResult,
    ThreadAxis,
    default_rank_stages,
    run_rank_cell,
    run_scaling_cell,
)
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
    "Sweep",
    "Axis",
    "ThreadAxis",
    "RankAxis",
    "SweepCell",
    "SweepResult",
    "SCALING_MACHINES",
    "SCALING_THREAD_COUNTS",
    "ScalingStudy",
    "ScalingCell",
    "ScalingResult",
    "run_scaling_cell",
    "RANK_COUNTS",
    "RANK_MACHINES",
    "RANK_THREADS",
    "RankStudy",
    "RankCell",
    "RankResult",
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
