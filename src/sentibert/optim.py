"""Parameter update rules (plain SGD and bias-corrected Adam) and the one
training loop both tasks run: run_epochs drives the epochs and batches,
descend takes each optimization step.

Adam's beta1, beta2 and eps are fixed at 0.9, 0.999 and 1e-8, the values
BERT trains with; the learning rate is the only setting.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, check_field_types, check_finite_loss
from .tensor import Graph, Tensor

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


def _check_gradients(params: dict[str, Tensor]) -> None:
    for name, p in params.items():
        if p.grad is None:
            raise ContractError(f"optimizer step: missing gradient for parameter {name!r}")


def _scratch_views(params: dict[str, Tensor]) -> dict[str, np.ndarray]:
    """Per tensor, a scratch view of its shape. Tensors step one at a time,
    so the views share one block the size of the largest."""
    block = np.empty(max((p.data.size for p in params.values()), default=0))
    return {name: block[: p.data.size].reshape(p.data.shape) for name, p in params.items()}


class SGD:
    """params is a name -> Tensor mapping; updates happen in place, the
    scaled gradient going through a scratch view, so a step allocates nothing."""

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-3):
        self.params = dict(params)
        self.lr = lr
        self._scratch = _scratch_views(self.params)

    def step(self) -> None:
        _check_gradients(self.params)
        for name, p in self.params.items():
            p.data -= np.multiply(self.lr, p.grad, out=self._scratch[name])
            p.grad = None


class Adam:
    """Adam with bias correction; first-step update magnitude is ~lr per coordinate.

    The moments are kept scaled, M = m / (1 - beta1) and V = v / (1 - beta2),
    and both bias corrections are folded into the step size and eps (Kingma &
    Ba 2015, section 2), so a step is ten in-place passes per tensor over a
    scratch buffer made here: nothing is allocated per step.
    """

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-3):
        self.params = dict(params)
        self.lr = lr
        self.t = 0
        self._m = {name: np.zeros_like(p.data) for name, p in self.params.items()}
        self._v = {name: np.zeros_like(p.data) for name, p in self.params.items()}
        self._scratch = _scratch_views(self.params)

    def step(self) -> None:
        _check_gradients(self.params)
        self.t += 1
        # lr * m_hat / (sqrt(v_hat) + EPS) == step * M / (sqrt(V) + eps)
        root = math.sqrt((1.0 - BETA2**self.t) / (1.0 - BETA2))
        step = self.lr * (1.0 - BETA1) / (1.0 - BETA1**self.t) * root
        eps = EPS * root
        for name, p in self.params.items():
            g, m, v, a = p.grad, self._m[name], self._v[name], self._scratch[name]
            m *= BETA1
            m += g
            v *= BETA2
            v += np.multiply(g, g, out=a)
            np.sqrt(v, out=a)
            a += eps
            np.divide(m, a, out=a)
            a *= step
            p.data -= a
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


@dataclass
class LoopConfig:
    """The settings run_epochs reads, checked on construction; each task's
    config extends it. algorithm is a class attribute, not a field: a task
    whose optimizer is a setting declares it as a field."""

    epochs: int = 5
    batch_size: int = 16
    lr: float = 1e-3
    seed: int = 0
    algorithm = "adam"

    def __post_init__(self):
        check_field_types(self)
        if self.epochs < 1:
            raise ConfigError(f"epochs must be at least 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be at least 1, got {self.batch_size}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        check_optimizer(self.algorithm, self.lr)


def descend(optimizer, where: str, loss_fn) -> float:
    """One optimization step on the sum of the scalar losses that loss_fn()
    records and returns as a tuple; returns the sum's value.

    A sum that is not finite raises ConfigError naming where before
    backward, so the weights do not take the step.
    """
    with Graph() as graph:
        losses = loss_fn()
        value = sum(loss.item() for loss in losses)
        check_finite_loss(where, value)
        graph.backward(*losses)
    optimizer.step()
    return value


def run_epochs(config: LoopConfig, n: int, rng: np.random.Generator, step, end_epoch) -> list[dict]:
    """config.epochs passes over n examples in shuffled batches; one record per epoch.

    Each epoch draws one permutation of range(n) from rng and cuts it into
    batch_size slices. step(where, idx) trains on the examples at idx and
    returns its loss; where names the epoch and step ("epoch 2, step 5").
    After the last step, end_epoch(where, step_losses) returns the epoch's
    record, where reading "epoch 2, after step 8"; "epoch" is put first.
    numpy's floating-point warnings are off inside: a diverging run fails
    on its non-finite loss instead.
    """
    records = []
    with np.errstate(all="ignore"):
        for epoch in range(1, config.epochs + 1):
            order = rng.permutation(n)
            losses = []
            for start in range(0, n, config.batch_size):
                losses.append(step(f"epoch {epoch}, step {len(losses) + 1}", order[start : start + config.batch_size]))
            records.append({"epoch": epoch, **end_epoch(f"epoch {epoch}, after step {len(losses)}", losses)})
    return records
