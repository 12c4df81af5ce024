"""Hardware platform models.

The paper measures on two real machines (Table II): an Intel Core
i7-3770 (4 cores × 2 SMT threads, 3.4 GHz) and an AppliedMicro X-Gene
(4 clusters × 2 cores, 2.4 GHz), both with 32 KiB L1D, 256 KiB L2 per
core/cluster and 8 MiB shared L3.  This package provides:

* :mod:`repro.hw.caches` / :mod:`repro.hw.machines` — the machine
  descriptors, including how threads share cache levels under the
  pinning policy (SMT pairs share L1/L2 on Intel beyond 4 threads;
  core pairs share L2 per cluster on the X-Gene beyond 4 threads).
* :mod:`repro.hw.perf` — the performance model producing *true*
  per-barrier-point, per-thread counters (cycles, instructions, L1D and
  L2D misses) from an execution trace.
* :mod:`repro.hw.pmu` — the PMU read model: multiplicative and additive
  measurement noise, pinning and thread-interference effects.
* :mod:`repro.hw.overhead` — the per-read instrumentation cost that
  biases per-barrier-point statistics (Section V-C).
* :mod:`repro.hw.measure` — the measurement protocol (20 repetitions,
  pinned threads) used by workflow Step 3.
"""

from repro.hw.caches import CacheLevelSpec
from repro.hw.machines import APM_XGENE, INTEL_I7_3770, Machine, machine_for
from repro.hw.measure import (
    MeasurementProtocol,
    measure_barrier_point_means,
    measure_roi_totals,
    sample_barrier_point_reps,
)
from repro.hw.overhead import InstrumentationOverhead, DEFAULT_OVERHEAD
from repro.hw.perf import PerfModel, TrueCounters
from repro.hw.pmu import (
    CYCLES,
    INSTRUCTIONS,
    L1D_MISSES,
    L2D_MISSES,
    N_METRICS,
    PMU_METRICS,
    PmuNoiseSpec,
)

__all__ = [
    "CacheLevelSpec",
    "Machine",
    "INTEL_I7_3770",
    "APM_XGENE",
    "machine_for",
    "PerfModel",
    "TrueCounters",
    "PMU_METRICS",
    "N_METRICS",
    "CYCLES",
    "INSTRUCTIONS",
    "L1D_MISSES",
    "L2D_MISSES",
    "PmuNoiseSpec",
    "InstrumentationOverhead",
    "DEFAULT_OVERHEAD",
    "MeasurementProtocol",
    "measure_barrier_point_means",
    "measure_roi_totals",
    "sample_barrier_point_reps",
]
