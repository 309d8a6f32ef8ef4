"""Central finite-difference gradient checking shared by the test modules.

Tolerance rule: relative error within `rel` when the analytic value is at
least `small`, otherwise absolute error within `abs_tol` (tiny gradients
drown in relative noise).
"""

import numpy as np

from sentibert.tensor import Graph, Tensor, _accumulate, _record, _wants_grad


def numerical_grad(loss_fn, param: Tensor, flat_index: int, h: float = 1e-5) -> float:
    """Central difference d loss / d param[flat_index]; loss_fn() -> float."""
    original = param.data.flat[flat_index]
    param.data.flat[flat_index] = original + h
    up = loss_fn()
    param.data.flat[flat_index] = original - h
    down = loss_fn()
    param.data.flat[flat_index] = original
    return (up - down) / (2.0 * h)


def check_gradients(
    build_loss,
    params: dict[str, Tensor],
    rng: np.random.Generator,
    probes: int = 100,
    h: float = 1e-5,
    rel: float = 1e-4,
    abs_tol: float = 1e-7,
    small: float = 1e-4,
) -> int:
    """Compare analytic grads of build_loss() (a scalar Tensor) against
    central differences at `probes` random parameter coordinates.
    Returns the number of coordinates checked; raises AssertionError on mismatch.
    """
    for p in params.values():
        p.grad = None
    with Graph() as graph:
        loss = build_loss()
        graph.backward(loss)
    analytic = {
        name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
        for name, p in params.items()
    }
    for p in params.values():
        p.grad = None

    names = sorted(params)
    checked = 0
    for _ in range(probes):
        name = names[int(rng.integers(len(names)))]
        p = params[name]
        idx = int(rng.integers(p.data.size))
        a = float(analytic[name].flat[idx])
        n = numerical_grad(lambda: build_loss().item(), p, idx, h)
        if abs(a) < small:
            assert abs(a - n) <= abs_tol, (
                f"{name}[{idx}]: analytic {a!r} vs numerical {n!r} (abs err {abs(a - n):.3e})"
            )
        else:
            rel_err = abs(a - n) / max(abs(a), abs(n))
            assert rel_err <= rel, (
                f"{name}[{idx}]: analytic {a!r} vs numerical {n!r} (rel err {rel_err:.3e})"
            )
        checked += 1
    return checked


def sum_all(x: Tensor) -> Tensor:
    """Sum of every element, as a scalar tensor: the simplest loss to differentiate."""
    out = Tensor(x.data.sum())

    def backward(grad):
        if _wants_grad(x):
            _accumulate(x, np.full_like(x.data, float(grad)))

    _record(out, backward, x)
    return out
