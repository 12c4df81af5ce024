"""The measurement protocol of workflow Step 3.

The paper pins threads to cores and repeats every experiment 20 times,
reporting arithmetic means and standard deviations.  Two configurations
run per binary:

* **per-barrier-point** — PMU reads at every parallel-region boundary;
  each read costs instrumentation overhead that lands *in* the measured
  counters;
* **region-of-interest** — reads only at the ROI boundaries; this is
  the clean reference the estimations are validated against.

The mean over N repetitions of a noisy counter is itself a Gaussian with
sigma/sqrt(N); :func:`measure_barrier_point_means` exploits this to draw
the *mean* directly (one draw per counter) rather than materialising 20
repetitions of every LULESH barrier point.  Per-repetition draws are
still available (:func:`sample_barrier_point_reps`) for the selected
representatives, where the error-bar statistics need them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.hw.machines import Machine
from repro.hw.overhead import DEFAULT_OVERHEAD, InstrumentationOverhead
from repro.hw.perf import TrueCounters
from repro.util.rng import RngTree

__all__ = [
    "MeasurementProtocol",
    "measure_barrier_point_means",
    "measure_roi_totals",
    "sample_barrier_point_reps",
    "sample_roi_reps",
    "variability_cv",
]


@dataclass(frozen=True)
class MeasurementProtocol:
    """How counters are collected (Section V-A Step 3).

    Attributes
    ----------
    repetitions:
        Independent runs averaged per configuration (paper: 20).
    pinned:
        Thread pinning (paper: on; off triples the relative noise).
    overhead:
        Cost of one PMU read (see :mod:`repro.hw.overhead`).
    """

    repetitions: int = 20
    pinned: bool = True
    overhead: InstrumentationOverhead = field(default=DEFAULT_OVERHEAD)

    def __post_init__(self) -> None:
        if self.repetitions < 1:
            raise ValueError(f"repetitions must be >= 1, got {self.repetitions}")


def measure_barrier_point_means(
    true: TrueCounters,
    machine: Machine,
    protocol: MeasurementProtocol,
    rng: RngTree,
    instrumented: bool = True,
) -> np.ndarray:
    """Mean measured counters per barrier point over the protocol's runs.

    Returns ``(n_bp, threads, 4)``; non-negative.  With ``instrumented``
    (the per-barrier-point configuration) every barrier point carries
    one PMU read's overhead per thread.  The draw is scaled and shifted
    in place: ``z * sigma + values`` has the bits of ``values + sigma *
    z``, as IEEE ``*`` and ``+`` commute.
    """
    values = true.values
    if instrumented:
        values = protocol.overhead.apply(values, reads=1.0)
    sigma = machine.pmu.read_sigma(values, true.threads, protocol.pinned)
    sigma /= np.sqrt(protocol.repetitions)
    gen = rng.generator("measure-mean", machine.isa.value, str(instrumented))
    measured = gen.standard_normal(values.shape)
    measured *= sigma
    measured += values
    return np.maximum(measured, 0.0, out=measured)


def measure_roi_totals(
    true: TrueCounters,
    machine: Machine,
    protocol: MeasurementProtocol,
    rng: RngTree,
) -> np.ndarray:
    """Mean measured ROI totals (the clean reference), ``(threads, 4)``.

    Only two PMU reads delimit the whole region of interest, so the
    instrumentation bias is negligible by construction.
    """
    totals = protocol.overhead.apply(true.totals(), reads=2.0)
    sigma = machine.pmu.read_sigma(totals, true.threads, protocol.pinned)
    sigma = sigma / np.sqrt(protocol.repetitions)
    gen = rng.generator("measure-roi", machine.isa.value)
    measured = totals + sigma * gen.standard_normal(totals.shape)
    return np.maximum(measured, 0.0)


def sample_barrier_point_reps(
    true: TrueCounters,
    machine: Machine,
    protocol: MeasurementProtocol,
    rng: RngTree,
    indices: np.ndarray,
    instrumented: bool = True,
) -> np.ndarray:
    """Per-repetition reads for selected barrier points.

    Returns ``(repetitions, len(indices), threads, 4)``.  Used for the
    per-repetition error spread (the error bars of Figure 2) without
    materialising repetitions for every barrier point.
    """
    indices = np.asarray(indices, dtype=np.int64)
    values = true.values[indices]
    if instrumented:
        values = protocol.overhead.apply(values, reads=1.0)
    sigma = machine.pmu.read_sigma(values, true.threads, protocol.pinned)
    gen = rng.generator("measure-reps", machine.isa.value, str(instrumented))
    shape = (protocol.repetitions,) + values.shape
    samples = values[None] + sigma[None] * gen.standard_normal(shape)
    return np.maximum(samples, 0.0)


def sample_roi_reps(
    true: TrueCounters,
    machine: Machine,
    protocol: MeasurementProtocol,
    rng: RngTree,
) -> np.ndarray:
    """Per-repetition ROI reads, ``(repetitions, threads, 4)``."""
    totals = protocol.overhead.apply(true.totals(), reads=2.0)
    sigma = machine.pmu.read_sigma(totals, true.threads, protocol.pinned)
    gen = rng.generator("measure-roi-reps", machine.isa.value)
    shape = (protocol.repetitions,) + totals.shape
    samples = totals[None] + sigma[None] * gen.standard_normal(shape)
    return np.maximum(samples, 0.0)


def variability_cv(
    true: TrueCounters, machine: Machine, pinned: bool = True
) -> np.ndarray:
    """Single-read coefficient of variation per (bp, thread, metric).

    This is the quantity Section V-C tabulates per workload and metric
    (e.g. <1% for most apps, up to ~57% for CoMD L1D misses on ARMv8).
    """
    return machine.pmu.coefficient_of_variation(true.values, true.threads, pinned)
