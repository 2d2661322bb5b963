"""Per-parameter Adam: the oracle for training.Adam, which updates every parameter as one flat array.

It loops over the parameters, keeping one m and one v array for each, and
adds up the gradient norm parameter by parameter, as the flat optimizer
must; the tests check that the two give the same bits.
"""

import math

import numpy as np

from rallycast import autodiff as ad
from rallycast.autodiff import Tensor
from rallycast.training import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, TrainConfig


class ReferenceAdam:
    """Adam with bias correction and global-norm gradient clipping, one parameter at a time."""

    def __init__(self, params: dict[str, Tensor], config: TrainConfig):
        self.params = params
        self.config = config
        self.m = {k: np.zeros_like(t.data) for k, t in params.items()}
        self.v = {k: np.zeros_like(t.data) for k, t in params.items()}
        self.t = 0

    def step(self) -> None:
        c = self.config
        grads = {k: ad.grad_of(t) for k, t in self.params.items()}
        if c.clip_norm > 0:
            norm = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
            if norm > c.clip_norm:
                factor = c.clip_norm / norm
                grads = {k: g * factor for k, g in grads.items()}
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1**self.t
        bc2 = 1.0 - ADAM_BETA2**self.t
        for k, tensor in self.params.items():
            g = grads[k]
            self.m[k] = ADAM_BETA1 * self.m[k] + (1.0 - ADAM_BETA1) * g
            self.v[k] = ADAM_BETA2 * self.v[k] + (1.0 - ADAM_BETA2) * g * g
            update = (self.m[k] / bc1) / (np.sqrt(self.v[k] / bc2) + ADAM_EPS)
            tensor.data -= c.learning_rate * update
