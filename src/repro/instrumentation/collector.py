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
        The nonzeros of the ``(n_bp, D)`` matrices the Pintool would
        emit — already perturbed by this run's interleaving.
    weights:
        ``(n_bp,)`` per-barrier-point instruction counts (Pin counts
        instructions exactly, so these carry no measurement noise).
    run_index:
        Which of the configuration's discovery runs this is.
    """

    bbv: Nonzeros
    ldv: Nonzeros
    weights: np.ndarray
    run_index: int

    @property
    def n_barrier_points(self) -> int:
        """Number of barrier points observed."""
        return int(self.weights.shape[0])


#: Rows of normals one :meth:`Nonzeros.jittered` draw holds at a time.
_DRAW_ROWS = 1024


@dataclass(frozen=True)
class Nonzeros:
    """The nonzero entries of one ``(n_bp, D)`` BBV or LDV.

    A barrier point runs only its own region's blocks and fills few
    reuse-distance bins, so most clean entries are zero (about 6% of
    LULESH's BBV entries and 12% of its LDV entries are not), and a
    discovery run jitters only those.

    Attributes
    ----------
    shape:
        ``(n_bp, D)`` of the dense matrix.
    index:
        Ascending flat positions of the kept entries; every other
        entry is +0.0.  :meth:`of` keeps the entries whose bits are not
        those of +0.0, so a -0.0 is kept and jitters to the dense
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

    def _span(self, start: int, stop: int) -> tuple[int, int]:
        """The positions in ``index`` of rows ``[start, stop)``."""
        width = self.shape[1]
        lo, hi = np.searchsorted(self.index, (start * width, stop * width))
        return int(lo), int(hi)

    def rows(self, start: int, stop: int) -> np.ndarray:
        """Rows ``[start, stop)`` of the dense matrix, as a new C-contiguous array."""
        lo, hi = self._span(start, stop)
        out = np.zeros((stop - start, self.shape[1]))
        out.reshape(-1)[self.index[lo:hi] - start * self.shape[1]] = self.values[lo:hi]
        return out

    def jittered(self, sigma: np.ndarray, gen: np.random.Generator) -> Nonzeros:
        """``dense * exp(sigma[:, None] * z)``, ``z ~ N(0, 1)``, bit for bit.

        ``z`` is drawn :data:`_DRAW_ROWS` rows at a time.  The generator
        draws one normal after another whatever the call's size, so it
        advances exactly as one whole ``standard_normal(shape)`` does
        and the LDV draws still follow the BBV draws.  Each kept entry
        gets the dense form's three operations; every other entry is
        the +0.0 that ``exp(...) * 0.0`` gives, so the result keeps
        this ``index``.
        """
        n_bp, width = self.shape
        values = np.empty_like(self.values)
        for start in range(0, n_bp, _DRAW_ROWS):
            stop = min(start + _DRAW_ROWS, n_bp)
            z = gen.standard_normal((stop - start, width))
            lo, hi = self._span(start, stop)
            index = self.index[lo:hi]
            jitter = z.reshape(-1)[index - start * width]
            jitter *= sigma[index // width]
            np.exp(jitter, out=jitter)
            jitter *= self.values[lo:hi]
            values[lo:hi] = jitter
        return Nonzeros(shape=self.shape, index=self.index, values=values)


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
