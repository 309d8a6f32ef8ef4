"""Dense row-major float64 tensors with tape-based reverse-mode autodiff.

Operations compute eagerly with numpy. When a Graph is recording (one per
forward pass, discarded after backward), each op appends a backward closure
to the tape; Graph.backward walks the tape in exact reverse recording order
and accumulates gradients into leaves and intermediates. Without an active
graph the same functions are pure eager math, which keeps read-only
inference cheap and safe for concurrent use.
"""

import ctypes
import functools
import math
import operator
import threading
from typing import NamedTuple

import numpy as np

from .errors import ContractError, ShapeError

NEG_INF_MASK = -1e9  # additive pre-softmax penalty for masked attention slots
EVAL_SLOTS = 512  # padded token slots (sequences x longest length) per attention grid and per eval-mode forward
# glibc trims freed pages off the heap top and maps large arrays fresh, so every training step faults
HEAP_TOP_PAD = 64 << 20  # its ~13 MB of temporaries back in; a padded top keeps them (address space, not RSS)


def _pad_heap_top() -> bool:
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # a libc with no mallopt (macOS, Windows): left as it is
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return mallopt(-2, HEAP_TOP_PAD) == 1  # -2 is M_TOP_PAD; glibc returns 1 on success


_pad_heap_top()


class Tensor:
    """Shaped float64 array with an optional gradient slot."""

    __slots__ = ("data", "grad", "requires_grad", "name")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = np.asarray(data, np.float64, "C")  # row-major; 0-d stays 0-d
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad  # a parameter, or the output of a recorded op
        self.name = name

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


class _Active(threading.local):
    graph = None  # each thread's recording Graph; the class default spares a missing-attribute lookup


_active = _Active()


class Graph:
    """Tape of recorded ops; recording order is the topological order.

    Use as a context manager around one forward pass:

        with Graph() as g:
            loss = ...
        g.backward(loss)  # or g.backward(loss_a, loss_b): the gradient of their sum
    """

    def __init__(self):
        self._nodes: list[tuple[Tensor, object]] = []

    def __enter__(self) -> "Graph":
        if _active.graph is not None:
            raise ContractError("a Graph is already recording on this thread")
        _active.graph = self
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        _active.graph = None
        return False

    def __len__(self) -> int:
        return len(self._nodes)

    def backward(self, *losses: Tensor) -> None:
        """Populate .grad on every tensor the scalar losses depend on with the
        gradient of their sum: each loss is seeded with ones, then the tape is
        walked once. A loss that no recorded op produced is a constant and gets no .grad."""
        for loss in losses:
            if loss.data.size != 1:
                raise ContractError(f"backward needs a scalar loss, got shape {loss.data.shape}")
        for loss in losses:
            _accumulate(loss, np.ones_like(loss.data))
        for out, backward_fn in reversed(self._nodes):
            if out.grad is None:
                continue
            backward_fn(out.grad)
            out.grad = None  # a recorded output is an intermediate, never a parameter: its gradient is not kept


def _accumulate(t: Tensor, grad: np.ndarray) -> None:
    # The one gradient gate: a tensor without requires_grad drops its gradient, so no backward branches on it.
    # No copy and no +=: layer_norm's backward hands one d_z to both x and sub
    # when keep and rows are None, so a stored gradient may be shared and is never written in place.
    if t.requires_grad:
        t.grad = grad if t.grad is None else t.grad + grad


def _record(out: Tensor, backward_fn, *inputs: Tensor) -> None:
    if not any(t.requires_grad for t in inputs):
        return  # pure constants: nothing downstream to differentiate
    out.requires_grad = True
    _active.graph._nodes.append((out, backward_fn))


def _require_2d(t: Tensor, op: str) -> None:
    if t.data.ndim != 2:
        raise ShapeError(f"{op} expects a 2-D tensor, got shape {t.data.shape}")


def linear(x: Tensor, w: Tensor, b: Tensor | None = None, rows=None, transposed: bool = False) -> Tensor:
    """Y = x[rows] @ W (+ b) as one tape node, W being w, or w^T when
    transposed (a tied embedding table); rows are what gather_rows takes as
    ids, every row by default. dW = x[rows]^T @ dY, db = dY summed over
    rows, and dx = dY @ W^T summed back into x's rows as gather_rows' does."""
    xs, idx = (x.data, None) if rows is None else _take(x, rows, "linear")
    wt = w.data.T if transposed else w.data
    if xs.ndim != 2 or wt.ndim != 2 or xs.shape[1] != wt.shape[0]:
        raise ShapeError(f"linear: shapes {xs.shape} and {wt.shape} are not 2-D with equal inner sizes")
    if b is not None and b.data.shape != (wt.shape[1],):
        raise ShapeError(f"linear: bias shape {b.data.shape} does not fit rows of width {wt.shape[1]}")
    out = Tensor(xs @ wt if b is None else xs @ wt + b.data)
    if _active.graph is None:  # not recording: no backward to build
        return out

    def backward(grad):
        if b is not None:
            _accumulate(b, grad.sum(axis=0))
        d_x = grad @ wt.T
        _accumulate(x, d_x if idx is None else _segment_sum(d_x, idx, x.data.shape[0]))
        d_w = xs.T @ grad
        _accumulate(w, d_w.T if transposed else d_w)

    _record(out, backward, *((x, w) if b is None else (x, w, b)))
    return out


def ffn(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """Position-wise feed-forward block max(0, x W1 + b1) W2 + b2 as one op.

    The backward keeps only the activated hidden rows h and takes the ReLU
    mask from h > 0, so the subgradient at the kink is 0.
    """
    if (x.data.ndim, w1.data.ndim, w2.data.ndim) != (2, 2, 2) or w1.data.shape != (x.data.shape[1], w2.data.shape[0]):
        raise ShapeError(f"ffn: shapes {x.data.shape}, {w1.data.shape} and {w2.data.shape} are not chaining matrices")
    d_ff = w1.data.shape[1]
    if b1.data.shape != (d_ff,) or b2.data.shape != (w2.data.shape[1],):
        raise ShapeError(f"ffn: bias shapes {b1.data.shape}/{b2.data.shape} do not fit {w1.data.shape}/{w2.data.shape}")
    h = x.data @ w1.data
    h += b1.data
    np.maximum(h, 0.0, out=h)
    out = h @ w2.data
    out += b2.data
    out = Tensor(out)
    if _active.graph is None:  # not recording: no backward to build
        return out

    def backward(grad):
        _accumulate(b2, grad.sum(axis=0))
        _accumulate(w2, h.T @ grad)
        d_h = grad @ w2.data.T
        d_h *= h > 0.0
        _accumulate(b1, d_h.sum(axis=0))
        _accumulate(x, d_h @ w1.data.T)
        _accumulate(w1, x.data.T @ d_h)

    _record(out, backward, x, w1, b1, w2, b2)
    return out


def layer_norm(
    x: Tensor, sub: Tensor, gamma: Tensor, beta: Tensor, keep: np.ndarray | None = None, eps: float = 1e-5, rows=None
) -> Tensor:
    """Post-norm residual: per-row normalization over the feature axis
    (population variance) of z = x[rows] + sub * keep, or of x[rows] + sub
    when keep is None. keep is a constant array such as a dropout mask; rows
    are what linear takes, every row by default, and x's gradient sums back as linear's does."""
    xs, idx = (x.data, None) if rows is None else _take(x, rows, "layer_norm")
    if xs.ndim != 2 or sub.data.shape != xs.shape:
        raise ShapeError(f"layer_norm: x and residual shapes {xs.shape} and {sub.data.shape} differ or are not 2-D")
    d = xs.shape[1]
    if gamma.data.shape != (d,) or beta.data.shape != (d,):
        raise ShapeError(
            f"layer_norm: gamma/beta shapes {gamma.data.shape}/{beta.data.shape} do not fit width {d}"
        )
    if eps <= 0.0:
        raise ContractError(f"layer_norm: eps must be positive, got {eps}")
    z = xs + (sub.data if keep is None else sub.data * keep)
    # sum / d is exactly what .mean computes (add.reduce, then true_divide)
    x_hat = np.subtract(z, z.sum(axis=1, keepdims=True) / d, out=z)  # z is a temporary: centred in place
    inv_std = 1.0 / np.sqrt((x_hat**2).sum(axis=1, keepdims=True) / d + eps)
    x_hat *= inv_std
    out = x_hat * gamma.data
    out += beta.data
    out = Tensor(out)
    if _active.graph is None:  # not recording: no backward to build
        return out

    def backward(grad):
        _accumulate(gamma, (grad * x_hat).sum(axis=0))
        _accumulate(beta, grad.sum(axis=0))
        d_z = grad * gamma.data
        term_mean = d_z.sum(axis=1, keepdims=True) / d
        term_proj = (d_z * x_hat).sum(axis=1, keepdims=True) / d
        d_z -= term_mean
        d_z -= x_hat * term_proj
        d_z *= inv_std
        _accumulate(x, d_z if idx is None else _segment_sum(d_z, idx, x.data.shape[0]))
        _accumulate(sub, d_z if keep is None else d_z * keep)

    _record(out, backward, x, sub, gamma, beta)
    return out


def softmax(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Softmax over the last axis of a plain array, stabilized by subtracting
    each row's maximum; written into out when given, which may be x itself."""
    out = np.subtract(x, x.max(axis=-1, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


def length_groups(lengths) -> list[np.ndarray]:
    """Indices of lengths, stably sorted by length, cut into groups: a group
    ends where one more length would make its count times its longest exceed
    EVAL_SLOTS, so a length over the budget stands alone."""
    order = sorted(range(len(lengths)), key=lengths.__getitem__)  # stable, on Python ints
    groups, start = [], 0
    for end, i in enumerate(order):
        if end > start and (end - start + 1) * lengths[i] > EVAL_SLOTS:
            groups.append(order[start:end])
            start = end
    return [np.array(group, dtype=np.intp) for group in groups + [order[start:]]] if order else []


class _Layout(NamedTuple):
    """Plan of a batch: everything that depends only on its lengths. Its
    grids lie end to end in one slot buffer, grid g holding B_g sequences of
    L_g slots each. slots holds each packed row's slot: its grid's offset,
    plus its sequence within the grid times L_g, plus its position. A
    one-sequence plan gives its contiguous positions and [CLS] slot as
    slices, which index without a gather."""

    key_bias: tuple[np.ndarray, ...]  # per grid, its [B_g, 1, 1, L_g] additive key mask
    grids: tuple[slice, ...]  # per grid, its B_g * L_g slots
    slots: np.ndarray
    start: np.ndarray  # per sequence, its first packed row
    group: np.ndarray  # per sequence, its grid
    positions: np.ndarray | slice  # per packed row, its position in its sequence
    cls: np.ndarray | slice  # per sequence, the slot of its first row


@functools.lru_cache(maxsize=64)
def _padding_layout(lengths: tuple[int, ...]) -> _Layout:
    """Read-only plan of lengths, computed once per distinct tuple. The
    sequences are cut into grids by length_groups; a batch that fits one grid
    keeps its packed order."""
    lens = np.array(lengths, dtype=np.int64)
    starts = np.cumsum(lens) - lens
    cut = length_groups(lengths)
    if len(cut) == 1:
        cut = [np.arange(lens.size)]
    group_of, first_slot = np.empty_like(lens), np.empty_like(lens)
    key_bias, grids, offset = [], [], 0
    for g, members in enumerate(cut):
        group_lens = lens[members]
        b, length = members.size, int(group_lens.max())
        group_of[members], first_slot[members] = g, offset + np.arange(b) * length
        key_bias.append(np.where(np.arange(length) < group_lens[:, None], 0.0, NEG_INF_MASK)[:, None, None, :])
        grids.append(slice(offset, offset + b * length))
        offset += b * length
    positions = np.arange(sum(lengths)) - np.repeat(starts, lens)
    slots = positions + np.repeat(first_slot, lens)
    for array in (*key_bias, slots, starts, group_of, positions, first_slot):
        array.flags.writeable = False
    if len(lengths) == 1:
        positions, first_slot = slice(0, lengths[0]), slice(0, 1)
    return _Layout(tuple(key_bias), tuple(grids), slots, starts, group_of, positions, first_slot)


@functools.lru_cache(maxsize=256)
def _sequence_layout(length: int) -> _Layout:
    """_padding_layout of one sequence, memoized by its length apart from
    batches, so that a pass over many lengths does not flush it."""
    return _padding_layout.__wrapped__((length,))


def batch_layout(lengths: tuple[int, ...]) -> _Layout:
    """The memoized plan of lengths, a tuple of ints; one sequence's comes
    from the memo keyed by its length."""
    return _sequence_layout(lengths[0]) if len(lengths) == 1 else _padding_layout(lengths)


def _query_plan(layout: _Layout, rows, n: int) -> tuple[list[int], np.ndarray]:
    """Per grid of layout, Q_max: one past the furthest wanted position in it,
    0 for a grid holding no wanted row; and each wanted row's slot. rows, the
    distinct packed query rows, are checked here."""
    queries = np.asarray(rows, dtype=np.int64)
    if queries.ndim != 1:
        raise ShapeError(f"attention: rows must be a list of row indices, got shape {queries.shape}")
    if queries.size and (queries.min() < 0 or queries.max() >= n):
        raise IndexError(f"attention: query row out of range [0, {n})")
    if queries.size > 1:
        seen = np.zeros(n, dtype=bool)
        seen[queries] = True
        if np.count_nonzero(seen) != queries.size:
            raise ShapeError("attention: query rows repeat")
    seq = np.searchsorted(layout.start, queries, side="right") - 1
    q_lengths = np.zeros(len(layout.grids), dtype=np.int64)
    np.maximum.at(q_lengths, layout.group[seq], queries - layout.start[seq] + 1)
    return q_lengths.tolist(), layout.slots[queries]


def attention(qkv: Tensor, lengths, num_heads: int, rows=None) -> Tensor:
    """Multi-head softmax(Q K^T / sqrt(d_k)) V over sequences packed back to back.

    qkv is [N x 3d]: per real row, the query heads, then the key heads, then
    the value heads, d_k = d / num_heads columns each. lengths are the row
    counts of the sequences and sum to N. rows, when given, are the distinct
    packed rows whose outputs are wanted, in any order; by default every row.
    The result holds each wanted row's heads side by side, in the order of
    rows. Padding exists only inside this op: the sequences, stably sorted by
    length, are cut into grids of at most EVAL_SLOTS padded slots each
    (length_groups; a longer sequence gets a grid of its own), and each grid
    is padded to its own longest length, with the additive -1e9 mask on keys
    past a sequence's length. The grids lie end to end in one slot buffer,
    which the rows enter with one scatter; a batch that fits one grid keeps
    its packed order, so when it has no padding slot (one sequence, or equal
    lengths) qkv itself is the buffer. Queries run over each sequence's first
    Q_max positions only, Q_max being one past the furthest wanted position
    in that grid, so the [CLS] rows alone cost a 1 x L score grid, and a grid
    holding no wanted row runs no query. The context lands in a buffer of the
    same slots, which the outputs leave with one gather. The plan is computed
    once per distinct lengths (batch_layout), and rows that are its own start
    array (batch_layout(lengths).start) take its [CLS] slots unchecked; the
    backward reuses the forward's q/k/v and probability grids.
    """
    _require_2d(qkv, "attention")
    n, width = qkv.data.shape
    if num_heads < 1 or width % (3 * num_heads):
        raise ShapeError(f"attention: width {width} does not split into q/k/v for {num_heads} heads")
    try:
        key = tuple(map(operator.index, lengths))  # Python ints from a list, tuple or 1-D integer array
    except TypeError:
        key = ()
    if not key or min(key) < 1 or sum(key) != n:
        raise ShapeError(f"attention: lengths {lengths!r} do not partition {n} rows")
    layout = batch_layout(key)
    if rows is None:
        q_lengths, q_slots = [bias.shape[-1] for bias in layout.key_bias], layout.slots
    elif rows is layout.start:
        q_lengths, q_slots = [1] * len(layout.grids), layout.cls  # each sequence's [CLS] row, in order
    else:
        q_lengths, q_slots = _query_plan(layout, rows, n)
    dense = len(layout.grids) == 1 and layout.grids[0].stop == n  # no padding slot: slot i holds row i
    d = width // 3
    d_k = d // num_heads
    factor = 1.0 / math.sqrt(d_k)

    def heads(flat: np.ndarray, grid_length: int, parts: int):
        """Per part (q, k, v when 3), the [B, H, grid_length, d_k] view of [B*grid_length x parts*d]
        slot rows; [H, grid_length, d_k] for one sequence, which matmul runs with less overhead."""
        view = (flat.reshape(grid_length, parts, num_heads, d_k).transpose(1, 2, 0, 3) if flat.shape[0] == grid_length
                else flat.reshape(-1, grid_length, parts, num_heads, d_k).transpose(2, 0, 3, 1, 4))
        return (view[0], view[1], view[2]) if parts == 3 else view[0]  # indexing beats unpacking an array

    if dense:
        flat = qkv.data
    else:
        flat = np.zeros((layout.grids[-1].stop, width))
        flat[layout.slots] = qkv.data
    context = np.empty((flat.shape[0], d))  # each sequence's first Q_max slots are written
    kept = []  # per grid: its slots and its probabilities
    for key_bias, kv, q_length in zip(layout.key_bias, layout.grids, q_lengths):
        length = key_bias.shape[-1]
        q, k, v = heads(flat[kv], length, 3)
        scores = q[..., :q_length, :] @ k.swapaxes(-1, -2)
        scores *= factor
        if not dense and scores.ndim == 4:  # one sequence's grid, or a batch with no padded slot, has a zero
            scores += key_bias  # mask: adding it would only turn -0.0 scores into +0.0, which exp does not tell apart
        probs = softmax(scores, out=scores)
        np.matmul(probs, v, out=heads(context[kv], length, 1)[..., :q_length, :])
        kept.append((kv, probs))
    out = Tensor(context if dense and rows is None else context[q_slots])
    if _active.graph is None:  # not recording: no backward to build
        return out

    def backward(grad):
        if dense and rows is None:
            flat_g = np.ascontiguousarray(grad)
        else:
            flat_g = np.zeros_like(context)
            flat_g[q_slots] = grad  # positions not wanted get zero gradient
        d_flat = np.empty_like(flat)
        for kv, probs in kept:
            q_length, length = probs.shape[-2:]
            q, k, v = heads(flat[kv], length, 3)
            q = q[..., :q_length, :]
            g = heads(flat_g[kv], length, 1)[..., :q_length, :]
            d_scores = g @ v.swapaxes(-1, -2)  # d probs, turned into d scores in place
            d_scores -= (d_scores * probs).sum(axis=-1, keepdims=True)
            d_scores *= probs
            d_scores *= factor
            grad_q, grad_k, grad_v = heads(d_flat[kv], length, 3)
            np.matmul(d_scores, k, out=grad_q[..., :q_length, :])
            grad_q[..., q_length:, :] = 0.0
            np.matmul(d_scores.swapaxes(-1, -2), q, out=grad_k)
            np.matmul(probs.swapaxes(-1, -2), g, out=grad_v)
        _accumulate(qkv, d_flat if dense else d_flat[layout.slots])

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
    if _active.graph is None:  # not recording: no backward to build
        return out

    def backward(grad):
        d_logits = np.exp(log_probs)
        d_logits *= w[:, None]
        d_logits[rows, idx] -= w
        _accumulate(logits, d_logits * (float(grad) / b))

    _record(out, backward, logits)
    return out


def gather_rows(*pairs) -> Tensor:
    """Sum of the rows table[ids] over one or more (table, ids) pairs, added
    left to right; the gradient sums back into each table (_segment_sum). ids
    are row ids, or slice(start, stop) with 0 <= start <= stop for contiguous
    rows, such as a one-sequence plan's positions. Every table is 2-D, every
    ids 1-D within its table, and every pair gathers the first one's shape."""
    tables, idxs, out = [], [], None
    for table, ids in pairs:
        rows, idx = _take(table, ids, "gather_rows")
        if out is None:
            out = rows.copy() if isinstance(idx, slice) else rows  # take copies; a slice is a view
        elif rows.shape == out.shape:
            out += rows
        else:
            raise ShapeError(f"gather_rows: rows of shape {rows.shape} do not line up with the first pair's")
        tables.append(table)
        idxs.append(idx)
    out = Tensor(out)
    if _active.graph is None:  # not recording: no backward to build
        return out

    def backward(grad):
        for table, idx in zip(reversed(tables), reversed(idxs)):  # last pair first, in reverse recording order
            _accumulate(table, _segment_sum(grad, idx, table.data.shape[0]))

    _record(out, backward, *tables)
    return out


def _take(table: Tensor, ids, op: str) -> tuple[np.ndarray, np.ndarray | slice]:
    """table[ids] (a view for a slice) and the index _segment_sum scatters its
    gradient back with; ids are checked for op."""
    idx = ids if isinstance(ids, slice) else np.asarray(ids, dtype=np.int64)
    _require_2d(table, op)
    if getattr(idx, "ndim", 1) != 1:
        raise ShapeError(f"{op}: ids must be a list of row indices, got shape {idx.shape}")
    if isinstance(ids, slice):
        low, high = ids.start, ids.stop - 1
    elif isinstance(ids, list):  # builtins: a numpy reduction costs more on a short list
        low, high = (min(ids), max(ids)) if ids else (0, -1)
    else:
        low, high = 0, idx.view(np.uint64).max() if idx.size else -1  # a negative id reads as over 2**63
    if low < 0 or high >= table.data.shape[0]:
        raise IndexError(f"{op}: id out of range [0, {table.data.shape[0]})")
    return (table.data[idx] if isinstance(idx, slice) else table.data.take(idx, axis=0)), idx


def _segment_sum(grad: np.ndarray, idx, size: int) -> np.ndarray:
    """[size x width] rows holding, at each id, the sum of the grad rows that
    name it: one reduceat over the rows stably sorted by id, in place of a
    scatter-add; sums agree with the scatter-add within rounding. A slice
    names each row once, so its rows are the grad rows as they are."""
    summed = np.zeros((size, grad.shape[1]))
    if isinstance(idx, slice):
        summed[idx] = grad
    elif idx.size:
        order = np.argsort(idx, kind="stable")
        ids = idx[order]
        starts = np.flatnonzero(np.concatenate(([True], ids[1:] != ids[:-1])))
        summed[ids[starts]] = np.add.reduceat(grad[order], starts, axis=0)
    return summed


def check_dropout_rate(rate: float) -> None:
    if not 0.0 <= rate < 1.0:
        raise ContractError(f"dropout: rate must be in [0, 1), got {rate}")


def dropout(x: Tensor, rate: float, rng: np.random.Generator, training: bool) -> np.ndarray | None:
    """Inverted-dropout keep mask for x, 0 with probability rate and else
    1/(1-rate), as layer_norm's keep. None when not training or rate == 0;
    rng is consumed only when active."""
    check_dropout_rate(rate)
    if not training or rate == 0.0:
        return None
    return (rng.random(x.data.shape) >= rate) * (1.0 / (1.0 - rate))  # equals the division bit for bit
