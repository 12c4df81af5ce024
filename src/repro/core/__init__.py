"""The paper's contribution: cross-architectural BarrierPoint.

Workflow (Section V-A), mapped to modules:

1. *Source instrumentation* — ROI markers and PAPI calls:
   :mod:`repro.instrumentation.roi`; the PAPI reads and their cost are
   modelled by :mod:`repro.hw.measure` and :mod:`repro.hw.overhead`.
2. *Barrier point discovery and clustering* (x86_64 only) —
   :mod:`repro.core.signatures` (BBV ⊕ LDV signature vectors),
   :mod:`repro.clustering` (SimPoint), :mod:`repro.core.selection`
   (representatives + multipliers).
3. *Barrier point statistic collection* — :mod:`repro.hw.measure`.
4. *Program behaviour reconstruction* — :mod:`repro.core.reconstruction`.
5. *Barrier point set validation* — :mod:`repro.core.validation`.

The stages themselves are first-class plugins in :mod:`repro.api`,
which wires these steps together (:class:`repro.api.StagePipeline`,
:func:`repro.api.run_crossarch`).
"""

from repro.core.errors import CrossArchitectureMismatch, MethodologyError
from repro.core.reconstruction import reconstruct_per_rep, reconstruct_totals
from repro.core.selection import BarrierPointSelection, select_barrier_points
from repro.core.signatures import SignatureMatrix, build_signatures
from repro.core.validation import EstimationReport, validate_estimate

__all__ = [
    "SignatureMatrix",
    "build_signatures",
    "BarrierPointSelection",
    "select_barrier_points",
    "reconstruct_totals",
    "reconstruct_per_rep",
    "EstimationReport",
    "validate_estimate",
    "MethodologyError",
    "CrossArchitectureMismatch",
]
