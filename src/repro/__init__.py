"""repro — cross-architectural BarrierPoint on simulated hardware.

A full reproduction of Ferrerón et al., *"Crossing the Architectural
Barrier: Evaluating Representative Regions of Parallel HPC
Applications"* (ISPASS 2017): the BarrierPoint sampling methodology,
evaluated across x86_64 and ARMv8 with and without vectorisation, on
simulated stand-ins for the paper's Pin/PAPI/real-hardware toolchain.

Quickstart
----------
>>> from repro import build_pipeline
>>> run = build_pipeline("miniFE", threads=8).on("ARMv8").run()
>>> best = min(run.evaluations_on("ARMv8"),
...            key=lambda e: e.report.primary_error)  # doctest: +SKIP

The stage-based API lives in :mod:`repro.api`: five pluggable stages
(profile → signature → cluster → select → measure, where ``measure``
also reconstructs the whole-program estimates and validates them)
assembled by :func:`repro.api.build_pipeline`, with open
``@register_workload`` / ``@register_machine`` / ``@register_stage``
registries.

See ``docs/architecture.md`` for the system inventory and
``docs/paper-map.md`` for the module and command behind every table and
figure of the paper.
"""

import os

# One BLAS thread per process, set before numpy first loads: the CLI,
# ``repro serve`` and every pool worker import this package first.
# repro runs in parallel with processes, and on the clustering tier's
# small products a BLAS helper thread per CPU mostly spins.  The thread
# count also decides the float bits a product returns (see "Thread
# pools" in docs/performance.md).  A value the user already set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")
os.environ.setdefault("BLIS_NUM_THREADS", "1")
os.environ.setdefault("VECLIB_MAXIMUM_THREADS", "1")

from repro.api import (
    PipelineBuilder,
    Stage,
    StageContext,
    StagePipeline,
    build_pipeline,
    machine_registry,
    register_machine,
    register_stage,
    register_workload,
    run_crossarch,
    stage_registry,
    workload_registry,
)
from repro.api.study import ConfigResult, CrossArchResult
from repro.api.types import EvaluationResult, PipelineConfig
from repro.core.errors import CrossArchitectureMismatch, MethodologyError
from repro.core.selection import BarrierPointSelection
from repro.core.validation import EstimationReport
from repro.hw.machines import APM_XGENE, INTEL_I7_3770, Machine, machine_for
from repro.hw.measure import MeasurementProtocol
from repro.hw.pmu import PMU_METRICS
from repro.isa.descriptors import ALL_BINARIES, ISA, BinaryConfig, binary_config
from repro.util.rng import RngTree
from repro.workloads.registry import (
    ACCURATE_APPS,
    EVALUATED_APPS,
    SINGLE_REGION_APPS,
    TABLE1_ORDER,
    all_apps,
    create,
)

__version__ = "1.2.0"

__all__ = [
    "__version__",
    # stage API
    "build_pipeline",
    "PipelineBuilder",
    "StagePipeline",
    "StageContext",
    "Stage",
    "run_crossarch",
    "workload_registry",
    "machine_registry",
    "stage_registry",
    "register_workload",
    "register_machine",
    "register_stage",
    # methodology types
    "PipelineConfig",
    "EvaluationResult",
    "BarrierPointSelection",
    "EstimationReport",
    "CrossArchResult",
    "ConfigResult",
    "MethodologyError",
    "CrossArchitectureMismatch",
    # platforms
    "Machine",
    "INTEL_I7_3770",
    "APM_XGENE",
    "machine_for",
    "MeasurementProtocol",
    "PMU_METRICS",
    # ISAs
    "ISA",
    "BinaryConfig",
    "binary_config",
    "ALL_BINARIES",
    # workloads
    "create",
    "all_apps",
    "TABLE1_ORDER",
    "EVALUATED_APPS",
    "ACCURATE_APPS",
    "SINGLE_REGION_APPS",
    # utilities
    "RngTree",
]
