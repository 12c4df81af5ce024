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

__all__ = ["DiscoveryObservation", "Nonzeros", "CleanSignatures", "BarrierPointCollector"]


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
class Nonzeros:
    """The nonzero entries of one clean ``(n_bp, D)`` BBV or LDV.

    A barrier point runs only its own region's blocks and fills few
    reuse-distance bins, so most clean entries are zero (about 6% of
    LULESH's BBV entries and 12% of its LDV entries are not).

    Attributes
    ----------
    shape:
        ``(n_bp, D)`` of the dense matrix.
    index:
        Ascending flat positions of the entries whose bits are not
        those of +0.0; a -0.0 is kept, so it jitters to the dense
        form's -0.0.
    values:
        The entries at ``index``.
    """

    shape: tuple[int, int]
    index: np.ndarray
    values: np.ndarray

    @classmethod
    def of(cls, dense: np.ndarray) -> Nonzeros:
        """The nonzeros of a C-contiguous float64 matrix."""
        index = np.flatnonzero(dense.view(np.int64))
        return cls(shape=dense.shape, index=index, values=dense.ravel()[index])

    def jittered(self, sigma: np.ndarray, gen: np.random.Generator) -> np.ndarray:
        """``dense * exp(sigma[:, None] * z)``, ``z ~ N(0, 1)``, bit for bit.

        The whole ``z`` is drawn, so ``gen`` advances exactly as the
        dense expression advances it.  Each nonzero gets the dense
        form's three operations; every other entry is the +0.0 that
        ``exp(...) * 0.0`` gives, written into ``z``'s zeroed buffer.
        """
        z = gen.standard_normal(self.shape)
        flat = z.reshape(-1)
        jitter = flat[self.index]
        jitter *= sigma[self.index // self.shape[1]]
        np.exp(jitter, out=jitter)
        jitter *= self.values
        flat.fill(0.0)
        flat[self.index] = jitter
        return z


@dataclass(frozen=True)
class CleanSignatures:
    """One execution's un-jittered BBV/LDV, shared by all its discovery runs.

    Every discovery run of an execution instruments the same trace and
    differs only in its interleaving jitter, so a stage collects these
    once per trace and draws each run from them with :meth:`observe`.

    Attributes
    ----------
    bbv / ldv:
        The nonzeros of the ``(n_bp, D)`` matrices :func:`collect_bbv`
        and :func:`collect_ldv` return.
    weights:
        ``(n_bp,)`` exact per-barrier-point instruction counts.
    sigma:
        ``(n_bp,)`` lognormal jitter sigma of each barrier point.
    """

    bbv: Nonzeros
    ldv: Nonzeros
    weights: np.ndarray
    sigma: np.ndarray

    @classmethod
    def of(cls, trace: ExecutionTrace, weights: np.ndarray) -> CleanSignatures:
        """Collect the clean signatures of ``trace``, weighted by ``weights``."""
        return cls(
            bbv=Nonzeros.of(collect_bbv(trace)),
            ldv=Nonzeros.of(collect_ldv(trace)),
            weights=weights,
            sigma=signature_jitter_sigma(weights, trace.threads),
        )

    def observe(self, gen: np.random.Generator, run_index: int) -> DiscoveryObservation:
        """One discovery run: BBV, then LDV, jittered with draws from ``gen``."""
        bbv = self.bbv.jittered(self.sigma, gen)
        ldv = self.ldv.jittered(self.sigma, gen)
        return DiscoveryObservation(
            bbv=bbv, ldv=ldv, weights=self.weights.copy(), run_index=run_index
        )


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
