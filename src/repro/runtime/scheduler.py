"""Static OpenMP loop scheduling.

All eleven proxy applications use (or default to) ``schedule(static)``,
so a region's iteration space divides into near-equal contiguous chunks.
Equal iteration counts are not equal work, and that imbalance is what the
barrier-spin model feeds on (graph500's frontier expansions are the
extreme case).  :func:`thread_shares` models it as a multiplicative
per-thread jitter on equal fractional shares.  The jitter is part of the
program's structural randomness: it is the same for every binary of a
given run, because it is a property of the input data, not of the ISA.
Shares are fractions of a region's work, so the one extra iteration that
``N mod t`` threads receive is below the model's resolution.
"""

from __future__ import annotations

import numpy as np

__all__ = ["thread_shares"]


def thread_shares(
    n_instances: int,
    threads: int,
    imbalance_cv: float,
    gen: np.random.Generator,
) -> np.ndarray:
    """Fractional work shares per (instance, thread), rows summing to 1.

    Parameters
    ----------
    n_instances:
        Number of dynamic region instances to draw shares for.
    threads:
        Team width.
    imbalance_cv:
        Coefficient of variation of the per-thread work jitter.  Zero
        yields exact ``1/threads`` shares.
    gen:
        Structural random generator (input-data randomness).

    Returns
    -------
    numpy.ndarray
        ``(n_instances, threads)`` array of non-negative shares, each row
        summing to 1, so scaling by a region's total work conserves it.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if imbalance_cv < 0:
        raise ValueError(f"imbalance_cv must be non-negative, got {imbalance_cv}")
    shares = np.full((n_instances, threads), 1.0 / threads)
    if imbalance_cv > 0 and threads > 1:
        sigma = np.sqrt(np.log1p(imbalance_cv**2))
        jitter = gen.lognormal(mean=-0.5 * sigma**2, sigma=sigma, size=shares.shape)
        shares = shares * jitter
        shares /= shares.sum(axis=1, keepdims=True)
    return shares
