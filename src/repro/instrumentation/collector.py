"""The barrier-point discovery "Pintool".

One :class:`BarrierPointCollector` run corresponds to one dynamically
instrumented execution of an x86_64 binary (workflow Step 2): it walks
the trace, collects per-barrier-point BBVs and LDVs, and perturbs them
with that run's thread-interleaving jitter.  Ten collector runs with
different run indices reproduce the paper's ten barrier-point discovery
runs per configuration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hw.perf import TrueCounters
from repro.instrumentation.bbv import collect_bbv
from repro.instrumentation.ldv import collect_ldv
from repro.ir.trace import ExecutionTrace
from repro.runtime.interleave import signature_jitter_sigma
from repro.util.rng import RngTree

__all__ = ["DiscoveryObservation", "CleanSignatures", "BarrierPointCollector"]


@dataclass(frozen=True)
class DiscoveryObservation:
    """Raw observables of one discovery run.

    Attributes
    ----------
    bbv / ldv:
        ``(n_bp, D)`` matrices as the Pintool would emit them — already
        perturbed by this run's interleaving.
    weights:
        ``(n_bp,)`` per-barrier-point instruction counts (Pin counts
        instructions exactly, so these carry no measurement noise).
    run_index:
        Which of the configuration's discovery runs this is.
    """

    bbv: np.ndarray
    ldv: np.ndarray
    weights: np.ndarray
    run_index: int

    @property
    def n_barrier_points(self) -> int:
        """Number of barrier points observed."""
        return int(self.weights.shape[0])


@dataclass(frozen=True)
class CleanSignatures:
    """One execution's un-jittered BBV/LDV, shared by all its discovery runs.

    Every discovery run of an execution instruments the same trace and
    differs only in its interleaving jitter, so a stage collects these
    once per trace and draws each run from them with :meth:`observe`.

    Attributes
    ----------
    bbv / ldv:
        ``(n_bp, D)`` matrices as :func:`collect_bbv` and
        :func:`collect_ldv` return them.
    weights:
        ``(n_bp,)`` exact per-barrier-point instruction counts.
    sigma:
        ``(n_bp,)`` lognormal jitter sigma of each barrier point.
    """

    bbv: np.ndarray
    ldv: np.ndarray
    weights: np.ndarray
    sigma: np.ndarray

    @classmethod
    def of(cls, trace: ExecutionTrace, weights: np.ndarray) -> CleanSignatures:
        """Collect the clean signatures of ``trace``, weighted by ``weights``."""
        return cls(
            bbv=collect_bbv(trace),
            ldv=collect_ldv(trace),
            weights=weights,
            sigma=signature_jitter_sigma(weights, trace.threads),
        )

    def observe(self, gen: np.random.Generator, run_index: int) -> DiscoveryObservation:
        """One discovery run: BBV, then LDV, jittered with draws from ``gen``."""
        bbv = self._jittered(self.bbv, gen)
        ldv = self._jittered(self.ldv, gen)
        return DiscoveryObservation(
            bbv=bbv, ldv=ldv, weights=self.weights.copy(), run_index=run_index
        )

    def _jittered(self, clean: np.ndarray, gen: np.random.Generator) -> np.ndarray:
        """``clean * exp(sigma[:, None] * z)``, ``z ~ N(0, 1)``, in one buffer."""
        z = gen.standard_normal(clean.shape)
        z *= self.sigma[:, None]
        np.exp(z, out=z)
        z *= clean
        return z


class BarrierPointCollector:
    """Collects BBV/LDV observations from instrumented executions.

    Each :meth:`collect` instruments its trace afresh; a caller that
    makes several discovery runs over one execution collects its
    :class:`CleanSignatures` once and observes every run from them.

    Parameters
    ----------
    rng:
        Tree node scoping this configuration's discovery randomness,
        e.g. ``tree.child("discovery", app, threads, binary.label)``.
    """

    def __init__(self, rng: RngTree) -> None:
        self._rng = rng

    def collect(
        self, trace: ExecutionTrace, counters: TrueCounters, run_index: int
    ) -> DiscoveryObservation:
        """Run the Pintool once and return its observation.

        Parameters
        ----------
        trace:
            The (x86_64) execution being instrumented.
        counters:
            True counters of the same execution; supplies the exact
            per-barrier-point instruction weights.
        run_index:
            Discovery run number (0-based); selects the interleaving.
        """
        clean = CleanSignatures.of(trace, counters.bp_instructions())
        return clean.observe(self._rng.generator("run", run_index), run_index)
