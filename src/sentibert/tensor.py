"""Dense row-major float64 tensors with tape-based reverse-mode autodiff.

Operations compute eagerly with numpy. When a Graph is recording (one per
forward pass, discarded after backward), each op appends a backward closure
to the tape; Graph.backward walks the tape in exact reverse recording order
and accumulates gradients into leaves and intermediates. Without an active
graph the same functions are pure eager math, which keeps read-only
inference cheap and safe for concurrent use.
"""

import functools
import threading

import numpy as np

from .errors import ContractError, ShapeError

NEG_INF_MASK = -1e9  # additive pre-softmax penalty for masked attention slots


class Tensor:
    """Shaped float64 array with an optional gradient slot."""

    __slots__ = ("data", "grad", "requires_grad", "name", "_on_tape")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = np.asarray(data, dtype=np.float64, order="C")  # row-major; 0-d stays 0-d
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.name = name
        self._on_tape = False  # set when produced by a recorded op

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a scalar tensor, got shape {self.data.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"Tensor{label}(shape={self.data.shape}, requires_grad={self.requires_grad})"


def parameter(data, name: str | None = None) -> Tensor:
    """Trainable leaf tensor."""
    return Tensor(data, requires_grad=True, name=name)


_active = threading.local()


def _current_graph():
    return getattr(_active, "graph", None)


class Graph:
    """Tape of recorded ops; recording order is the topological order.

    Use as a context manager around one forward pass:

        with Graph() as g:
            loss = ...
        g.backward(loss)
    """

    def __init__(self):
        self._nodes: list[tuple[Tensor, object]] = []

    def __enter__(self) -> "Graph":
        if _current_graph() is not None:
            raise ContractError("a Graph is already recording on this thread")
        _active.graph = self
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        _active.graph = None
        return False

    def __len__(self) -> int:
        return len(self._nodes)

    def backward(self, loss: Tensor) -> None:
        """Populate .grad on every tensor the scalar loss depends on."""
        if loss.data.size != 1:
            raise ContractError(f"backward needs a scalar loss, got shape {loss.data.shape}")
        _accumulate(loss, np.ones_like(loss.data))
        for out, backward_fn in reversed(self._nodes):
            if out.grad is None:
                continue
            backward_fn(out.grad)
            if not out.requires_grad:  # intermediates are not kept
                out.grad = None


def _wants_grad(t: Tensor) -> bool:
    return t.requires_grad or t._on_tape


def _accumulate(t: Tensor, grad: np.ndarray) -> None:
    # No copy and no +=: add's backward hands one array to both inputs, so a
    # stored gradient may be shared and is never written in place.
    if t.grad is None:
        t.grad = grad
    else:
        t.grad = t.grad + grad


def _record(out: Tensor, backward_fn, *inputs: Tensor) -> None:
    graph = _current_graph()
    if graph is None:
        return
    if not any(_wants_grad(t) for t in inputs):
        return  # pure constants: nothing downstream to differentiate
    out._on_tape = True
    graph._nodes.append((out, backward_fn))


def _require_2d(t: Tensor, op: str) -> None:
    if t.data.ndim != 2:
        raise ShapeError(f"{op} expects a 2-D tensor, got shape {t.data.shape}")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """C = A @ B; gradients dA = dC @ B^T, dB = A^T @ dC."""
    _require_2d(a, "matmul")
    _require_2d(b, "matmul")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul: inner dimensions disagree for shapes {a.data.shape} and {b.data.shape}")
    out = Tensor(a.data @ b.data)

    def backward(grad):
        if _wants_grad(a):
            _accumulate(a, grad @ b.data.T)
        if _wants_grad(b):
            _accumulate(b, a.data.T @ grad)

    _record(out, backward, a, b)
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two same-shape tensors."""
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add: shapes {a.data.shape} and {b.data.shape} differ")
    out = Tensor(a.data + b.data)

    def backward(grad):
        if _wants_grad(a):
            _accumulate(a, grad)
        if _wants_grad(b):
            _accumulate(b, grad)

    _record(out, backward, a, b)
    return out


def add_bias(x: Tensor, bias: Tensor) -> Tensor:
    """Add a length-d bias vector to every row of x[m x d]."""
    _require_2d(x, "add_bias")
    if bias.data.ndim != 1 or bias.data.shape[0] != x.data.shape[1]:
        raise ShapeError(f"add_bias: bias shape {bias.data.shape} does not fit rows of {x.data.shape}")
    out = Tensor(x.data + bias.data[None, :])

    def backward(grad):
        if _wants_grad(x):
            _accumulate(x, grad)
        if _wants_grad(bias):
            _accumulate(bias, grad.sum(axis=0))

    _record(out, backward, x, bias)
    return out


def ffn(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """Position-wise feed-forward block max(0, x W1 + b1) W2 + b2 as one op.

    The backward keeps only the activated hidden rows h and takes the ReLU
    mask from h > 0, so the subgradient at the kink is 0.
    """
    for t, op in ((x, "ffn x"), (w1, "ffn w1"), (w2, "ffn w2")):
        _require_2d(t, op)
    d_ff = w1.data.shape[1]
    if x.data.shape[1] != w1.data.shape[0] or w2.data.shape[0] != d_ff:
        raise ShapeError(f"ffn: shapes {x.data.shape}, {w1.data.shape} and {w2.data.shape} do not chain")
    if b1.data.shape != (d_ff,) or b2.data.shape != (w2.data.shape[1],):
        raise ShapeError(f"ffn: bias shapes {b1.data.shape}/{b2.data.shape} do not fit {w1.data.shape}/{w2.data.shape}")
    h = x.data @ w1.data
    h += b1.data
    np.maximum(h, 0.0, out=h)
    out = h @ w2.data
    out += b2.data
    out = Tensor(out)

    def backward(grad):
        if _wants_grad(b2):
            _accumulate(b2, grad.sum(axis=0))
        if _wants_grad(w2):
            _accumulate(w2, h.T @ grad)
        if not (_wants_grad(x) or _wants_grad(w1) or _wants_grad(b1)):
            return
        d_h = grad @ w2.data.T
        d_h *= h > 0.0
        if _wants_grad(b1):
            _accumulate(b1, d_h.sum(axis=0))
        if _wants_grad(x):
            _accumulate(x, d_h @ w1.data.T)
        if _wants_grad(w1):
            _accumulate(w1, x.data.T @ d_h)

    _record(out, backward, x, w1, b1, w2, b2)
    return out


def transpose(x: Tensor) -> Tensor:
    _require_2d(x, "transpose")
    out = Tensor(x.data.T)

    def backward(grad):
        if _wants_grad(x):
            _accumulate(x, grad.T)

    _record(out, backward, x)
    return out


def layer_norm(
    x: Tensor, sub: Tensor, gamma: Tensor, beta: Tensor, keep: np.ndarray | None = None, eps: float = 1e-5
) -> Tensor:
    """Post-norm residual: per-row normalization over the feature axis
    (population variance) of z = x + sub * keep, or of x + sub when keep is
    None. keep is a constant array such as a dropout mask."""
    _require_2d(x, "layer_norm")
    if sub.data.shape != x.data.shape:
        raise ShapeError(f"layer_norm: residual shapes {x.data.shape} and {sub.data.shape} differ")
    d = x.data.shape[1]
    if gamma.data.shape != (d,) or beta.data.shape != (d,):
        raise ShapeError(
            f"layer_norm: gamma/beta shapes {gamma.data.shape}/{beta.data.shape} do not fit width {d}"
        )
    if eps <= 0.0:
        raise ContractError(f"layer_norm: eps must be positive, got {eps}")
    z = x.data + (sub.data if keep is None else sub.data * keep)
    # sum / d is exactly what .mean computes (add.reduce, then true_divide)
    x_hat = z - z.sum(axis=1, keepdims=True) / d
    inv_std = 1.0 / np.sqrt((x_hat**2).sum(axis=1, keepdims=True) / d + eps)
    x_hat *= inv_std
    out = x_hat * gamma.data
    out += beta.data
    out = Tensor(out)

    def backward(grad):
        if _wants_grad(gamma):
            _accumulate(gamma, (grad * x_hat).sum(axis=0))
        if _wants_grad(beta):
            _accumulate(beta, grad.sum(axis=0))
        if _wants_grad(x) or _wants_grad(sub):
            d_z = grad * gamma.data
            term_mean = d_z.sum(axis=1, keepdims=True) / d
            term_proj = (d_z * x_hat).sum(axis=1, keepdims=True) / d
            d_z -= term_mean
            d_z -= x_hat * term_proj
            d_z *= inv_std
            if _wants_grad(x):
                _accumulate(x, d_z)
            if _wants_grad(sub):
                _accumulate(sub, d_z if keep is None else d_z * keep)

    _record(out, backward, x, sub, gamma, beta)
    return out


def softmax(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of a plain array, stabilized by subtracting each row's maximum."""
    out = x - x.max(axis=-1, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


def _query_slots(rows, slots: np.ndarray, length: int) -> tuple[np.ndarray, int]:
    """Slots of the checked query rows in a grid of Q_max positions per
    sequence (sequence * Q_max + position), and Q_max: one past the furthest
    position any query row holds."""
    queries = np.asarray(rows, dtype=np.int64)
    if queries.ndim != 1:
        raise ShapeError(f"attention: rows must be a list of row indices, got shape {queries.shape}")
    if queries.size and (queries.min() < 0 or queries.max() >= slots.size):
        raise IndexError(f"attention: query row out of range [0, {slots.size})")
    if queries.size > 1 and np.unique(queries).size != queries.size:
        raise ShapeError("attention: query rows repeat")
    seq, position = np.divmod(slots[queries], length)
    q_length = int(position.max(initial=0)) + 1
    return seq * q_length + position, q_length


@functools.lru_cache(maxsize=64)
def _padding_layout(lengths: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Read-only padding layout of checked lengths, computed once per distinct
    tuple: the grid slot of each packed row (position p of sequence s sits at
    s * L_max + p) and the [B, 1, 1, L_max] additive key mask."""
    lens = np.array(lengths, dtype=np.int64)
    b, length = lens.size, int(lens.max())
    slots = np.arange(lens.sum()) + np.repeat(np.arange(b) * length - (np.cumsum(lens) - lens), lens)
    key_bias = np.where(np.arange(length) < lens[:, None], 0.0, NEG_INF_MASK)[:, None, None, :]
    slots.flags.writeable = key_bias.flags.writeable = False
    return slots, key_bias


def attention(qkv: Tensor, lengths, num_heads: int, rows=None) -> Tensor:
    """Multi-head softmax(Q K^T / sqrt(d_k)) V over sequences packed back to back.

    qkv is [N x 3d]: per real row, the query heads, then the key heads, then
    the value heads, d_k = d / num_heads columns each. lengths are the row
    counts of the sequences and sum to N. rows, when given, are the distinct
    packed rows whose outputs are wanted, in any order; by default every row.
    Rows are scattered into a [B, H, L_max, d_k] grid, and keys past a
    sequence's length get the additive -1e9 mask. Queries run over each
    sequence's first Q_max positions only, Q_max being one past the furthest
    position of a wanted row, so the [CLS] rows alone cost a 1 x L_max score
    grid. The result holds each wanted row's heads side by side, in the order
    of rows. Padding exists only inside this op, and its layout is computed
    once per distinct lengths (_padding_layout); the backward keeps the
    probability grid and rebuilds q/k/v from qkv.
    """
    _require_2d(qkv, "attention")
    n, width = qkv.data.shape
    if num_heads < 1 or width % (3 * num_heads):
        raise ShapeError(f"attention: width {width} does not split into q/k/v for {num_heads} heads")
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.ndim != 1 or lengths.size == 0 or lengths.min() < 1 or lengths.sum() != n:
        raise ShapeError(f"attention: lengths {lengths.tolist()} do not partition {n} rows")
    slots, key_bias = _padding_layout(tuple(lengths.tolist()))
    b, length = key_bias.shape[0], key_bias.shape[-1]
    d = width // 3
    d_k = d // num_heads
    if rows is None:
        q_slots, q_length = slots, length
    else:
        q_slots, q_length = _query_slots(rows, slots, length)
    factor = 1.0 / np.sqrt(d_k)

    def grid(grid_length: int, parts: int) -> tuple[np.ndarray, np.ndarray]:
        """Zeroed [B*grid_length x parts*d] slot rows and their [parts, B, H, grid_length, d_k] view."""
        flat = np.zeros((b * grid_length, parts * d))
        return flat, flat.reshape(b, grid_length, parts, num_heads, d_k).transpose(2, 0, 3, 1, 4)

    def qkv_grid() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """q of each sequence's first Q_max positions; k and v of every position."""
        flat, (q, k, v) = grid(length, 3)
        flat[slots] = qkv.data
        return q[:, :, :q_length], k, v

    q, k, v = qkv_grid()
    scores = q @ k.transpose(0, 1, 3, 2)
    scores *= factor
    scores += key_bias
    probs = softmax(scores)
    flat, (context,) = grid(q_length, 1)
    np.matmul(probs, v, out=context)
    out = Tensor(flat[q_slots])

    def backward(grad):
        if _wants_grad(qkv):
            q, k, v = qkv_grid()
            flat_g, (g,) = grid(q_length, 1)
            flat_g[q_slots] = grad  # positions not wanted get zero gradient
            d_scores = g @ v.transpose(0, 1, 3, 2)  # d probs, turned into d scores in place
            d_scores -= (d_scores * probs).sum(axis=-1, keepdims=True)
            d_scores *= probs
            d_scores *= factor
            d_flat, (grad_q, grad_k, grad_v) = grid(length, 3)
            np.matmul(d_scores, k, out=grad_q[:, :, :q_length])
            np.matmul(d_scores.transpose(0, 1, 3, 2), q, out=grad_k)
            np.matmul(probs.transpose(0, 1, 3, 2), g, out=grad_v)
            _accumulate(qkv, d_flat[slots])

    _record(out, backward, qkv)
    return out


def cross_entropy(logits: Tensor, targets, weights=None) -> Tensor:
    """Mean over the batch of -w_y * log softmax(logits)_y, via log-sum-exp.

    targets are integer class indices; weights, when given, is one positive
    scalar per class (a plain sequence, not a trainable tensor).
    """
    _require_2d(logits, "cross_entropy")
    b, c = logits.data.shape
    if b == 0:
        raise ContractError("cross_entropy: empty batch")
    idx = np.asarray(targets, dtype=np.int64)
    if idx.ndim != 1 or idx.shape[0] != b:
        raise ContractError(f"cross_entropy: expected {b} targets, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= c):
        raise IndexError(f"cross_entropy: target out of range [0, {c})")
    if weights is None:
        w = np.ones(b)
    else:
        w_per_class = np.asarray(weights, dtype=np.float64)
        if w_per_class.shape != (c,):
            raise ContractError(f"cross_entropy: need {c} class weights, got shape {w_per_class.shape}")
        if np.any(w_per_class <= 0.0):
            raise ContractError("cross_entropy: class weights must be positive")
        w = w_per_class[idx]

    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_norm
    rows = np.arange(b)
    out = Tensor((w * -log_probs[rows, idx]).mean())

    def backward(grad):
        if _wants_grad(logits):
            probs = np.exp(log_probs)
            d_logits = probs * w[:, None]
            d_logits[rows, idx] -= w
            _accumulate(logits, d_logits * (float(grad) / b))

    _record(out, backward, logits)
    return out


def gather_rows(*pairs) -> Tensor:
    """Sum of the rows table[ids] over one or more (table, ids) pairs, added
    left to right; the gradient scatter-adds back into each table. Every
    table has the first one's width and every ids list its length."""
    tables = [table for table, _ in pairs]
    idxs = [np.asarray(ids, dtype=np.int64) for _, ids in pairs]
    for table, idx in zip(tables, idxs):
        _require_2d(table, "gather_rows")
        if idx.ndim != 1 or idx.size != idxs[0].size or table.data.shape[1] != tables[0].data.shape[1]:
            raise ShapeError(f"gather_rows: ids of shape {idx.shape} into table {table.data.shape} do not line up")
        if idx.size and (idx.min() < 0 or idx.max() >= table.data.shape[0]):
            raise IndexError(f"gather_rows: id out of range [0, {table.data.shape[0]})")
    out = tables[0].data[idxs[0]]
    for table, idx in zip(tables[1:], idxs[1:]):
        out += table.data[idx]
    out = Tensor(out)

    def backward(grad):
        for table, idx in zip(reversed(tables), reversed(idxs)):  # last pair first, in reverse recording order
            if _wants_grad(table):
                scattered = np.zeros_like(table.data)
                np.add.at(scattered, idx, grad)
                _accumulate(table, scattered)

    _record(out, backward, *tables)
    return out


def dropout(x: Tensor, rate: float, rng: np.random.Generator, training: bool) -> np.ndarray | None:
    """Inverted-dropout keep mask for x, 0 with probability rate and else
    1/(1-rate), as layer_norm's keep. None when not training or rate == 0;
    rng is consumed only when active."""
    if not 0.0 <= rate < 1.0:
        raise ContractError(f"dropout: rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return None
    return (rng.random(x.data.shape) >= rate) / (1.0 - rate)
