"""Finite-difference oracle for the taped gradients.

The tests check every primitive's backward, the full model's and the
acceptance criterion's against central differences through gradient_check.
weighted_sum turns a tensor into the scalar those checks differentiate.
"""

from typing import Callable, Sequence

import numpy as np

from rallycast import autodiff as ad
from rallycast.autodiff import Tensor, backward, grad_of


def weighted_sum(t: Tensor, w) -> Tensor:
    """sum(t * w) for a constant array w of t's shape (or a scalar), as one taped node."""
    w = np.asarray(w, dtype=np.float64)
    return ad._make((t.data * w).sum(), (t,), lambda g: ad._accumulate(t, g * w), "weighted_sum")


def gradient_check(
    f: Callable[[list[Tensor]], Tensor],
    arrays: Sequence[np.ndarray],
    eps: float = 1e-5,
) -> float:
    """Max relative error between taped gradients and central differences.

    f maps a list of leaf tensors to a scalar tensor and must be pure: the
    numeric side re-evaluates it at perturbed copies of the inputs. The
    relative error of each element is |analytic - numeric| divided by
    max(|analytic|, |numeric|, 1e-8).
    """
    leaves = [Tensor(np.array(a, dtype=np.float64)) for a in arrays]
    backward(f(leaves))
    analytic = [grad_of(t) for t in leaves]

    worst = 0.0
    for i, base in enumerate(arrays):
        base = np.array(base, dtype=np.float64)
        numeric = np.zeros_like(base)
        flat = base.reshape(-1)
        num_flat = numeric.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            hi = float(f([Tensor(a) for a in _replace(arrays, i, base)]).data)
            flat[j] = orig - eps
            lo = float(f([Tensor(a) for a in _replace(arrays, i, base)]).data)
            flat[j] = orig
            num_flat[j] = (hi - lo) / (2.0 * eps)
        denom = np.maximum(np.maximum(np.abs(analytic[i]), np.abs(numeric)), 1e-8)
        err = float(np.max(np.abs(analytic[i] - numeric) / denom)) if base.size else 0.0
        worst = max(worst, err)
    return worst


def _replace(arrays: Sequence[np.ndarray], i: int, new: np.ndarray) -> list[np.ndarray]:
    out = [np.array(a, dtype=np.float64) for a in arrays]
    out[i] = new
    return out
