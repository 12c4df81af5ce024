"""Basic Block Vector collection.

A barrier point's BBV counts, per static basic block, the dynamic
instructions the block contributed — execution count times the block's
per-iteration instruction count in the *instrumented binary* (Pin counts
real instructions, so vectorised binaries produce genuinely different
BBVs than scalar ones).  Per-thread vectors are concatenated, following
BarrierPoint's treatment of multi-threaded applications.
"""

from __future__ import annotations

import numpy as np

from repro.ir.trace import ExecutionTrace
from repro.isa.lowering import lowered_totals

__all__ = ["collect_bbv"]


def collect_bbv(trace: ExecutionTrace) -> np.ndarray:
    """Collect per-barrier-point, per-thread BBVs from a trace.

    Each template's rows are filled from that template's own iteration
    block; the columns of every other template's blocks stay zero.

    Returns
    -------
    numpy.ndarray
        ``(n_bp, threads * n_blocks)``: thread t's vector over the block
        universe (:meth:`~repro.ir.trace.ExecutionTrace.block_universe`)
        fills columns ``t * n_blocks`` to ``(t + 1) * n_blocks``; entries
        are dynamic instruction counts.
    """
    mixes = [block.mix for _, block in trace.block_universe()]
    instr_per_iter = lowered_totals(mixes, trace.binary)
    out = np.zeros((trace.n_barrier_points, trace.threads, instr_per_iter.size))
    offset = 0
    for t_idx, (template, ttrace) in enumerate(
        zip(trace.program.templates, trace.template_traces, strict=True)
    ):
        end = offset + template.n_blocks
        rows = trace.bp_template == t_idx
        iters = ttrace.iters[trace.bp_instance[rows]]  # (m, blocks, threads)
        counts = iters * instr_per_iter[None, offset:end, None]
        out[rows, :, offset:end] = counts.transpose(0, 2, 1)
        offset = end
    return out.reshape(trace.n_barrier_points, -1)
