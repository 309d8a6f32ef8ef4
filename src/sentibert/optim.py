"""Parameter update rules: plain SGD and bias-corrected Adam."""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, check_field_types
from .tensor import Tensor

ALGORITHMS = ("adam", "sgd")


@dataclass
class OptimizerConfig:
    algorithm: str = "adam"  # "adam" or "sgd"
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        check_field_types(self)
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"unknown optimizer algorithm {self.algorithm!r} (expected one of {ALGORITHMS})")
        if not self.lr >= 0.0:
            raise ConfigError(f"lr must be nonnegative, got {self.lr}")


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

    def __init__(
        self,
        params: dict[str, Tensor],
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.params = dict(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m = {name: np.zeros_like(p.data) for name, p in self.params.items()}
        self._v = {name: np.zeros_like(p.data) for name, p in self.params.items()}

    def step(self) -> None:
        for name, p in self.params.items():
            if p.grad is None:
                raise ContractError(f"optimizer step: missing gradient for parameter {name!r}")
        self.t += 1
        bias1 = 1.0 - self.beta1**self.t
        bias2 = 1.0 - self.beta2**self.t
        for name, p in self.params.items():
            g = p.grad
            m = self._m[name]
            v = self._v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p.data -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)
            p.grad = None


def make_optimizer(params: dict[str, Tensor], config: OptimizerConfig):
    if config.algorithm == "adam":
        return Adam(params, lr=config.lr, beta1=config.beta1, beta2=config.beta2, eps=config.eps)
    if config.algorithm == "sgd":
        return SGD(params, lr=config.lr)
    raise ConfigError(f"unknown optimizer algorithm {config.algorithm!r} (expected one of {ALGORITHMS})")
