"""The relative error the paper reports for every figure.

The paper validates each estimate by its average absolute relative
error against the measured region of interest; :func:`relative_error`
is that definition, element-wise.
"""

from __future__ import annotations

import numpy as np

__all__ = ["relative_error"]


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
