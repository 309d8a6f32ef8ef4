"""Parameter update rules: plain SGD and bias-corrected Adam.

Adam's beta1, beta2 and eps are fixed at 0.9, 0.999 and 1e-8, the values
BERT trains with; the learning rate is the only setting.
"""

import math

import numpy as np

from .errors import ConfigError, ContractError
from .tensor import Tensor

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class SGD:
    """params is a name -> Tensor mapping; updates happen in place."""

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-3):
        self.params = dict(params)
        self.lr = lr

    def step(self) -> None:
        for name, p in self.params.items():
            if p.grad is None:
                raise ContractError(f"optimizer step: missing gradient for parameter {name!r}")
        for p in self.params.values():
            p.data -= self.lr * p.grad
            p.grad = None


class Adam:
    """Adam with bias correction; first-step update magnitude is ~lr per coordinate."""

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-3):
        self.params = dict(params)
        self.lr = lr
        self.t = 0
        self._m = {name: np.zeros_like(p.data) for name, p in self.params.items()}
        self._v = {name: np.zeros_like(p.data) for name, p in self.params.items()}

    def step(self) -> None:
        for name, p in self.params.items():
            if p.grad is None:
                raise ContractError(f"optimizer step: missing gradient for parameter {name!r}")
        self.t += 1
        bias1 = 1.0 - BETA1**self.t
        bias2 = 1.0 - BETA2**self.t
        for name, p in self.params.items():
            g = p.grad
            m = self._m[name]
            v = self._v[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            p.data -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + EPS)
            p.grad = None


OPTIMIZERS = {"adam": Adam, "sgd": SGD}


def check_optimizer(algorithm: str, lr: float) -> None:
    """ConfigError unless algorithm names an OPTIMIZERS entry and lr is a
    finite nonnegative number; an int past the float range is not finite."""
    if algorithm not in OPTIMIZERS:
        raise ConfigError(f"unknown optimizer algorithm {algorithm!r} (expected one of {tuple(OPTIMIZERS)})")
    try:
        finite = math.isfinite(float(lr))
    except OverflowError:
        finite = False
    if not (finite and lr >= 0.0):
        raise ConfigError(f"lr must be a finite nonnegative number, got {lr}")
