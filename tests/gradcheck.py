"""The central-finite-difference gradient checker the autodiff tests share."""

from __future__ import annotations

from typing import Callable

import numpy as np

from qgen.tensor import Parameter, ShapeError, Tensor, backward, no_grad


def check_gradients(f: Callable[[], Tensor], p: Parameter, step: float = 1e-5) -> float:
    """Compare backward() against central finite differences for one Parameter.

    f must be a deterministic closure over p returning a scalar Tensor.
    Returns the maximum relative error
    |analytic - numeric| / max(|analytic|, |numeric|, 1e-12) over all entries.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    probe1, probe2 = f(), f()
    if probe1.shape != probe2.shape or not np.array_equal(probe1.data, probe2.data):
        raise ValueError("check_gradients: f is not deterministic across evaluations")
    if probe1.data.size != 1:
        raise ShapeError(f"check_gradients: f must return a scalar, got {probe1.shape}")
    p.zero_grad()
    backward(f())
    analytic = p.grad.copy()
    numeric = np.zeros_like(analytic)
    flat_value = p.data.ravel()
    flat_numeric = numeric.ravel()
    with no_grad():
        for i in range(flat_value.size):
            saved = flat_value[i]
            flat_value[i] = saved + step
            f_plus = f().item()
            flat_value[i] = saved - step
            f_minus = f().item()
            flat_value[i] = saved
            flat_numeric[i] = (f_plus - f_minus) / (2.0 * step)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-12)
    return float(np.max(np.abs(analytic - numeric) / denom))
