"""Small statistics helpers used across the measurement and analysis code.

The paper reports arithmetic means and standard deviations over 20
measurement repetitions, coefficients of variation for the variability
study (Section V-C), and average absolute relative errors for every
figure.  These helpers centralise those definitions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "relative_error",
    "coefficient_of_variation",
    "geometric_mean",
    "summarize",
    "Summary",
]


def relative_error(estimate: object, reference: object) -> np.ndarray:
    """Absolute relative error ``|estimate - reference| / reference``.

    Works element-wise on arrays.  Zero reference values yield ``0`` when
    the estimate is also zero and ``inf`` otherwise, mirroring how a
    measured-zero counter would behave in the paper's validation step.
    """
    est = np.asarray(estimate, dtype=float)
    ref = np.asarray(reference, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        err = np.abs(est - ref) / np.abs(ref)
    err = np.where((ref == 0) & (est == 0), 0.0, err)
    err = np.where((ref == 0) & (est != 0), np.inf, err)
    return err


def coefficient_of_variation(samples: object) -> float:
    """Sample coefficient of variation (std / mean) along the last axis."""
    arr = np.asarray(samples, dtype=float)
    mean = arr.mean(axis=-1)
    std = arr.std(axis=-1, ddof=1) if arr.shape[-1] > 1 else np.zeros_like(mean)
    with np.errstate(divide="ignore", invalid="ignore"):
        cv = np.where(mean != 0, std / np.abs(mean), 0.0)
    return float(cv) if np.ndim(cv) == 0 else cv


def geometric_mean(values: object) -> float:
    """Geometric mean of strictly positive values."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("geometric_mean of empty sequence")
    if np.any(arr <= 0):
        raise ValueError("geometric_mean requires strictly positive values")
    return float(np.exp(np.mean(np.log(arr))))


@dataclass(frozen=True)
class Summary:
    """Mean / std / min / max of a sample, as reported in the paper."""

    mean: float
    std: float
    min: float
    max: float
    n: int

    def __str__(self) -> str:
        return f"{self.mean:.4g} ± {self.std:.2g} (n={self.n})"


def summarize(samples: object) -> Summary:
    """Summarise a 1-D sample with the paper's reporting conventions."""
    arr = np.asarray(samples, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("summarize of empty sequence")
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return Summary(
        mean=float(arr.mean()),
        std=std,
        min=float(arr.min()),
        max=float(arr.max()),
        n=int(arr.size),
    )
