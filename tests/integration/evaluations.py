"""JSON-shaped rendering of evaluation results, for byte comparisons.

Every float is emitted exactly (``repr``-round-trippable), so two
payloads compare byte-identical iff the underlying numbers do.  The
stage-cache and pipeline tests serialise both sides of an equivalence
(cached against fresh, staged graph against eager methods) through
:func:`evaluation_payload`.
"""

from repro.api import EvaluationResult


def evaluation_payload(result: EvaluationResult) -> dict:
    """One :class:`~repro.api.EvaluationResult` as plain JSON values."""
    selection = result.selection
    report = result.report
    return {
        "label": result.label,
        "selection": {
            "representatives": [int(v) for v in selection.representatives],
            "multipliers": [float(v) for v in selection.multipliers],
            "rep_weights": [float(v) for v in selection.rep_weights],
            "total_weight": float(selection.total_weight),
            "n_barrier_points": int(selection.n_barrier_points),
            "run_index": int(selection.run_index),
        },
        "report": {
            "error_mean": [float(v) for v in report.error_mean],
            "error_per_thread": [
                [float(v) for v in row] for row in report.error_per_thread
            ],
            "error_std": [float(v) for v in report.error_std],
        },
    }
