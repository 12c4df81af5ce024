"""LRU-stack Distance Vector collection.

A barrier point's LDV histograms the stack distances of its memory
accesses over logarithmic bins (:mod:`repro.mem.ldv`).  Like the BBVs,
per-thread vectors are concatenated.  The analytic path evaluates each
block's per-instance LDV row and weighs it by the thread's access count;
the exact path (tests) reproduces the same rows from concrete address
streams via :mod:`repro.mem.reuse`.
"""

from __future__ import annotations

import numpy as np

from repro.ir.trace import ExecutionTrace
from repro.mem.ldv import N_DISTANCE_BINS, pattern_ldv_rows

__all__ = ["collect_ldv"]


def collect_ldv(trace: ExecutionTrace) -> np.ndarray:
    """Collect per-barrier-point, per-thread LDVs from a trace.

    Returns
    -------
    numpy.ndarray
        ``(n_bp, threads * N_DISTANCE_BINS)``: thread t's histogram fills
        columns ``t * N_DISTANCE_BINS`` onward; entries are access counts
        per distance bin.
    """
    threads = trace.threads
    per_template: list[np.ndarray] = []
    for template, ttrace in zip(trace.program.templates, trace.template_traces, strict=True):
        n_inst = ttrace.n_instances
        out = np.zeros((n_inst, threads, N_DISTANCE_BINS))
        if n_inst == 0:
            per_template.append(out)
            continue
        for b_idx, block in enumerate(template.blocks):
            accesses = ttrace.iters[:, b_idx, :] * block.mix.memory_accesses
            if block.mix.memory_accesses == 0:
                continue
            rows = pattern_ldv_rows(
                block.pattern, threads, ttrace.footprint_scale, ttrace.hot_scale
            )  # (n_inst, bins)
            out += accesses[:, :, None] * rows[:, None, :]
        per_template.append(out)

    stacked = trace.gather_instance_values(per_template)  # (n_bp, threads, bins)
    return stacked.reshape(stacked.shape[0], -1)
