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
import threading
from typing import NamedTuple

import numpy as np

from .errors import ContractError, ShapeError

NEG_INF_MASK = -1e9  # additive pre-softmax penalty for masked attention slots
SHORT_IDS = 16  # an id array up to this long is bounds-checked with Python's min and max, as a list is
INT64 = np.dtype(np.int64)  # the dtype of row ids, compared by identity
EVAL_SLOTS = 512  # padded token slots (sequences x longest length) per attention grid and per eval-mode forward
# glibc trims freed pages off the heap top and maps large arrays fresh, so every training step faults
HEAP_TOP_PAD = 64 << 20  # its ~13 MB of temporaries back in; a padded top keeps them (address space, not RSS)
BLAS_THREAD_FUNCTIONS = (  # (set, get) thread-count functions: numpy's scipy-openblas wheels, other OpenBLAS builds
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def _tune_malloc() -> bool:
    """Pad the heap top and keep one malloc arena, so that eval-mode worker
    threads reuse the pages the main heap keeps instead of growing arenas of
    their own; False where libc has no mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # a libc with no mallopt (macOS, Windows): left as it is
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return [mallopt(-2, HEAP_TOP_PAD), mallopt(-8, 1)] == [1, 1]  # M_TOP_PAD, M_ARENA_MAX; glibc returns 1 on success


def _one_blas_thread() -> bool:
    """Pin numpy's OpenBLAS to one thread for the whole process: at these
    matrix sizes a second BLAS thread adds no speed and spins after each call,
    taking the core an eval-mode worker would use. OpenBLAS also splits the
    summed dimension of a product over a few hundred rows between threads,
    so the pin makes float64 training bits independent of
    OPENBLAS_NUM_THREADS and the core count. True if the count then reads
    1; False where numpy's BLAS has no OpenBLAS thread functions."""
    try:  # a handle on numpy's LAPACK extension also finds the symbols of the BLAS it links
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (AttributeError, OSError, TypeError):
        return False
    for set_name, get_name in BLAS_THREAD_FUNCTIONS:
        set_threads, get_threads = getattr(lib, set_name, None), getattr(lib, get_name, None)
        if set_threads is not None and get_threads is not None:
            set_threads.argtypes, set_threads.restype = (ctypes.c_int,), None
            get_threads.argtypes, get_threads.restype = (), ctypes.c_int
            set_threads(1)
            return get_threads() == 1
    return False


_tune_malloc()
BLAS_ONE_THREAD = _one_blas_thread()


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
            _accumulate(b, np.add.reduce(grad, 0))
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
        _accumulate(b2, np.add.reduce(grad, 0))
        _accumulate(w2, h.T @ grad)
        d_h = grad @ w2.data.T
        d_h *= h > 0.0
        _accumulate(b1, np.add.reduce(d_h, 0))
        _accumulate(x, d_h @ w1.data.T)
        _accumulate(w1, x.data.T @ d_h)

    _record(out, backward, x, w1, b1, w2, b2)
    return out


def layer_norm(
    x: Tensor, sub: Tensor, gamma: Tensor, beta: Tensor, keep: np.ndarray | None = None, *, rate: float = 0.0,
    eps: float = 1e-5, rows=None,
) -> Tensor:
    """Post-norm residual: per-row normalization over the feature axis
    (population variance) of z = x[rows] + sub * keep / (1 - rate), or of
    x[rows] + sub when keep is None. keep is a constant boolean mask, such as
    dropout's (_masked); rows are what linear takes, every row by default,
    and x's gradient sums back as linear's does. rate, eps and rows are
    keyword-only: a value meant for eps never lands on rate."""
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
    if keep is not None and not 0.0 < rate < 1.0:  # dropout gives no mask at rate 0: a mask with it lost its rate
        raise ContractError(f"layer_norm: a keep mask needs its dropout rate in (0, 1), got {rate}")
    z = xs + (sub.data if keep is None else _masked(sub.data, keep, rate))
    # add.reduce, then / d, is exactly what .mean computes
    x_hat = np.subtract(z, np.add.reduce(z, 1, keepdims=True) / d, out=z)  # z is a temporary: centred in place
    square = np.square(x_hat)
    # [N x 1] statistics out of place: numpy's in-place path costs twice as much on [1 x 1]
    inv_std = 1.0 / np.sqrt(np.add.reduce(square, 1, keepdims=True) / d + eps)
    x_hat *= inv_std
    out = np.multiply(x_hat, gamma.data, out=square)  # the squares' buffer, read already
    out += beta.data
    out = Tensor(out)
    if _active.graph is None:  # not recording: no backward to build
        return out

    def backward(grad):
        _accumulate(gamma, np.add.reduce(grad * x_hat, 0))
        _accumulate(beta, np.add.reduce(grad, 0))
        d_z = grad * gamma.data
        term_mean = np.add.reduce(d_z, 1, keepdims=True) / d
        term_proj = np.add.reduce(d_z * x_hat, 1, keepdims=True) / d
        d_z -= term_mean
        d_z -= x_hat * term_proj
        d_z *= inv_std
        _accumulate(x, d_z if idx is None else _segment_sum(d_z, idx, x.data.shape[0]))
        _accumulate(sub, d_z if keep is None else _masked(d_z, keep, rate))

    _record(out, backward, x, sub, gamma, beta)
    return out


def _masked(a: np.ndarray, keep: np.ndarray, rate: float) -> np.ndarray:
    """a * keep / (1 - rate) for a boolean keep, as a * keep, then times
    1 / (1 - rate): for finite a, bit for bit a times the float mask
    keep / (1 - rate), which took eight bytes a slot where keep takes one."""
    out = a * keep
    out *= 1.0 / (1.0 - rate)
    return out


def softmax(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Softmax over the last axis of a plain array, stabilized by subtracting
    each row's maximum; written into out when given, which may be x itself."""
    out = np.subtract(x, np.maximum.reduce(x, -1, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= np.add.reduce(out, -1, keepdims=True)
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
    one-sequence plan gives its contiguous positions as a slice, which
    indexes without a gather."""

    key_bias: tuple[np.ndarray, ...]  # per grid, its [B_g, 1, 1, L_g] additive key mask
    grids: tuple[slice, ...]  # per grid, its B_g * L_g slots
    slots: np.ndarray
    start: np.ndarray  # per sequence, its first packed row
    group: np.ndarray  # per sequence, its grid
    positions: np.ndarray | slice  # per packed row, its position in its sequence


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
    for array in (*key_bias, slots, starts, group_of, positions):
        array.flags.writeable = False
    if len(lengths) == 1:
        positions = slice(0, lengths[0])
    return _Layout(tuple(key_bias), tuple(grids), slots, starts, group_of, positions)


@functools.lru_cache(maxsize=256)
def _sequence_layout(length: int) -> _Layout:
    """_padding_layout of one sequence, memoized by its length apart from
    batches, so that a pass over many lengths does not flush it."""
    return _padding_layout.__wrapped__((length,))


def batch_layout(lengths: tuple[int, ...]) -> _Layout:
    """The memoized plan of lengths, the one batch-shape argument of the
    attention ops and the embedding; one sequence's comes from the memo keyed
    by its length. lengths are checked here, before either memo is touched:
    a nonempty tuple of positive ints, else a ShapeError naming them."""
    if lengths.__class__ is not tuple or not lengths or not all([n.__class__ is int and n > 0 for n in lengths]):
        raise ShapeError(f"batch_layout: lengths {lengths!r} are not a nonempty tuple of positive ints")
    return _sequence_layout(lengths[0]) if len(lengths) == 1 else _padding_layout(lengths)


def _slot_buffer(rows: np.ndarray, plan: _Layout, op: str) -> tuple[np.ndarray, bool]:
    """The slot buffer holding the packed rows under plan, zero in every
    padding slot, and whether that buffer is dense: a batch that fits one
    grid with no padding slot (one sequence, or equal lengths) has slot i
    holding row i, and the rows themselves are the buffer. plan is the
    batch_layout of the rows' sequences, else a ShapeError for op."""
    n = rows.shape[0]
    if plan.__class__ is not _Layout or plan.slots.shape[0] != n:
        got = f"a plan of {plan.slots.shape[0]} rows" if plan.__class__ is _Layout else plan.__class__.__name__
        raise ShapeError(f"{op}: needs the batch_layout plan of its {n} rows, got {got}")
    if len(plan.grids) == 1 and plan.grids[0].stop == n:
        return rows, True
    flat = np.zeros((plan.grids[-1].stop, rows.shape[1]))
    flat[plan.slots] = rows
    return flat, False


def _sublayer_width(x: Tensor, wqkv: Tensor, wo: Tensor, num_heads: int, op: str) -> int:
    """x's width d, once x is 2-D, wqkv [d x 3d], wo [d x d] and d splits into num_heads heads."""
    _require_2d(x, op)
    d = x.data.shape[1]
    if wqkv.data.shape != (d, 3 * d) or wo.data.shape != (d, d) or num_heads < 1 or d % num_heads:
        raise ShapeError(
            f"{op}: weights of shapes {wqkv.data.shape}/{wo.data.shape} do not split width {d} into {num_heads} heads"
        )
    return d


def attention(x: Tensor, wqkv: Tensor, wo: Tensor, plan: _Layout, num_heads: int) -> Tensor:
    """The multi-head attention sublayer Concat(heads) W_O over sequences
    packed back to back, each head softmax(Q K^T / sqrt(d_k)) V, as one op.

    x is [N x d]; x wqkv holds per row the query heads, then the key heads,
    then the value heads, d_k = d / num_heads columns each; wo is [d x d].
    plan is the batch_layout of the sequences' row counts, which sum to N;
    a forward looks it up once and hands it to every layer. Padding exists
    only inside this op: the sequences, stably sorted by length, are cut
    into grids of at most EVAL_SLOTS padded slots each (length_groups; a
    longer sequence gets a grid of its own), and each grid is padded to its
    own longest length, with the additive -1e9 mask on keys past a
    sequence's length. The grids lie end to end in one slot buffer
    (_slot_buffer), which the projected rows enter with one scatter, the
    projection itself being a temporary; the context lands in a buffer of
    the same slots, which the rows leave with one gather before W_O. The
    backward reuses the forward's q/k/v and probability grids, and takes the
    projections' gradients as linear does.
    """
    d = _sublayer_width(x, wqkv, wo, num_heads, "attention")
    flat, dense = _slot_buffer(x.data @ wqkv.data, plan, "attention")
    factor = 1.0 / math.sqrt(d // num_heads)
    context = np.empty((flat.shape[0], d))
    kept = []  # per grid: its slots and its probabilities
    for key_bias, kv in zip(plan.key_bias, plan.grids):
        length = key_bias.shape[-1]
        q, k, v = _heads(flat[kv], length, 3, num_heads)
        scores = q @ k.swapaxes(-1, -2)
        scores *= factor
        if not dense and scores.ndim == 4:  # one sequence's grid, or a batch with no padded slot, has a zero
            scores += key_bias  # mask: adding it would only turn -0.0 scores into +0.0, which exp does not tell apart
        probs = softmax(scores, out=scores)
        np.matmul(probs, v, out=_heads(context[kv], length, 1, num_heads))
        kept.append((kv, probs))
    concat = context if dense else context[plan.slots]  # each row's heads side by side
    out = Tensor(concat @ wo.data)
    if _active.graph is None:  # not recording: no backward to build
        return out

    def backward(grad):
        d_concat = grad @ wo.data.T
        _accumulate(wo, concat.T @ grad)
        if dense:
            flat_g = d_concat
        else:
            flat_g = np.zeros((flat.shape[0], d))
            flat_g[plan.slots] = d_concat
        d_flat = np.empty_like(flat)
        for kv, probs in kept:
            length = probs.shape[-1]
            q, k, v = _heads(flat[kv], length, 3, num_heads)
            g = _heads(flat_g[kv], length, 1, num_heads)
            d_scores = g @ v.swapaxes(-1, -2)  # d probs, turned into d scores in place
            d_scores -= np.add.reduce(d_scores * probs, -1, keepdims=True)
            d_scores *= probs
            d_scores *= factor
            grad_q, grad_k, grad_v = _heads(d_flat[kv], length, 3, num_heads)
            np.matmul(d_scores, k, out=grad_q)
            np.matmul(d_scores.swapaxes(-1, -2), q, out=grad_k)
            np.matmul(probs.swapaxes(-1, -2), g, out=grad_v)
        d_qkv = d_flat if dense else d_flat[plan.slots]
        _accumulate(x, d_qkv @ wqkv.data.T)
        _accumulate(wqkv, x.data.T @ d_qkv)

    _record(out, backward, x, wqkv, wo)
    return out


def _heads(rows: np.ndarray, length: int, parts: int, num_heads: int):
    """Per part (q, k, v when 3), the [B, H, length, d_k] view of a grid's
    [B*length x parts*d] slot rows; [H, length, d_k] for one sequence, which
    matmul runs with less overhead."""
    d_k = rows.shape[1] // (parts * num_heads)
    if rows.shape[0] == length:
        view = rows.reshape(length, parts, num_heads, d_k).transpose(1, 2, 0, 3)
    else:
        view = rows.reshape(-1, length, parts, num_heads, d_k).transpose(2, 0, 3, 1, 4)
    return (view[0], view[1], view[2]) if parts == 3 else view[0]  # indexing beats unpacking an array


def _query_slots(plan: _Layout, picks: np.ndarray | slice) -> tuple[np.ndarray, list[int], int]:
    """Each wanted row's slot in a query buffer, the Q_g, and the buffer's
    size. The buffer holds, grid after grid, a [B_g, Q_g] block: the grid's
    sequences in its order, each with a slot for each of its wanted rows in
    the order given, Q_g being the most wanted rows of any one of them (0 for
    a grid holding none). picks are packed row ids as _take returns them,
    checked here only for repeats."""
    if isinstance(picks, slice):  # contiguous rows: distinct
        picks = np.arange(picks.start, picks.stop)
    elif picks.size > 1:
        seen = np.zeros(plan.slots.shape[0], dtype=bool)
        seen[picks] = True
        if np.count_nonzero(seen) != picks.size:
            raise ShapeError("attend: query rows repeat")
    seq = np.searchsorted(plan.start, picks, side="right") - 1
    by_seq = np.argsort(seq, kind="stable")
    grouped = seq[by_seq]
    rank = np.empty_like(picks)  # among its sequence's wanted rows
    rank[by_seq] = np.arange(picks.size) - np.searchsorted(grouped, grouped)
    grid = plan.group[seq]
    q_lengths = np.zeros(len(plan.grids), dtype=np.int64)
    np.maximum.at(q_lengths, grid, rank + 1)
    sizes, lengths = np.array([bias.shape[::3] for bias in plan.key_bias]).T  # B_g and L_g
    blocks = sizes * q_lengths
    ordinal = (plan.slots[plan.start[seq]] - np.array([kv.start for kv in plan.grids])[grid]) // lengths[grid]
    slots = (np.cumsum(blocks) - blocks)[grid] + ordinal * q_lengths[grid] + rank
    return slots, q_lengths.tolist(), int(blocks.sum())


def attend(x: Tensor, wqkv: Tensor, wo: Tensor, plan: _Layout, num_heads: int, rows) -> Tensor:
    """attention(x, wqkv, wo, plan, num_heads) at the wanted packed rows
    only: rows are distinct ids, as gather_rows takes them, in any order, and
    the result holds one row per wanted row, in the order of rows.

    wqkv has no bias and nothing acts between the projections and the
    softmax, so the key projection folds into the query and the value
    projection moves past the softmax (as DeepSeek-V2 absorbs its key
    up-projection): for a wanted row r of sequence s and head h, with X_s
    the rows of s, u = W_K^h (x_r W_Q^h) / sqrt(d_k), p = softmax(X_s u plus
    the key mask) and the output is (p X_s) W_V^h. So the rows enter the
    slot buffer d wide (_slot_buffer), only the wanted rows are projected,
    and no row is projected to a key or a value. Each grid runs its queries
    as a [B_g, Q_g] block of a query buffer (_query_slots), Q_g being the
    most wanted rows of one of its sequences, and runs nothing when it holds
    none. Rows that are the plan's own start array of a one-grid batch are
    its [CLS] rows in the grid's order, one per sequence: they need no query
    plan, scatter or gather, and go unchecked.
    """
    d = _sublayer_width(x, wqkv, wo, num_heads, "attend")
    flat, dense = _slot_buffer(x.data, plan, "attend")
    if rows is plan.start and len(plan.grids) == 1:
        x_q, picks, q_slots, q_lengths = x.data.take(rows, axis=0), rows, None, (1,)
    else:
        x_q, picks = _take(x, rows, "attend")
        q_slots, q_lengths, size = _query_slots(plan, picks)
    r, d_k = x_q.shape[0], d // num_heads
    factor = 1.0 / math.sqrt(d_k)
    w = wqkv.data.reshape(d, 3, num_heads, d_k).transpose(1, 2, 0, 3)  # q, k, v: each [H, d, d_k], a view
    w_q, w_k, w_v = w[0], w[1], w[2]
    q_h = np.matmul(x_q, w_q)  # [H, R, d_k]
    q_h *= factor
    u = np.matmul(q_h, w_k.swapaxes(-1, -2)).swapaxes(0, 1)  # [R, H, d]: per wanted row, its heads' u
    if q_slots is None:
        queries = u
    else:
        queries = np.zeros((size, num_heads, d))  # a slot no row fills holds a zero query
        queries[q_slots] = u
    mixed_shape = (len(queries), num_heads, d)
    mixed = np.empty(mixed_shape)  # per query slot and head, p X_s
    kept, offset = [], 0  # per grid that runs: its slots, keys, query slots and their shape, and its probabilities
    for key_bias, kv, q_length in zip(plan.key_bias, plan.grids, q_lengths):
        b, length = key_bias.shape[::3]
        block, offset = slice(offset, offset + b * q_length), offset + b * q_length
        if not q_length:
            continue
        shape = (b, -1, d) if b > 1 else (-1, d)  # one sequence: no batch axis, which matmul runs with less overhead
        keys = flat[kv].reshape(b, length, d) if b > 1 else flat[kv]
        scores = queries[block].reshape(shape) @ keys.swapaxes(-1, -2)
        if not dense and b > 1:  # a dense batch's mask is zero, and so is a one-sequence grid's (see attention)
            scores += key_bias[:, 0]
        probs = softmax(scores, out=scores)
        np.matmul(probs, keys, out=mixed[block].reshape(shape))
        kept.append((kv, keys, block, shape, probs))
    m_h = (mixed if q_slots is None else mixed[q_slots]).swapaxes(0, 1)  # [H, R, d]
    concat = np.matmul(m_h, w_v).swapaxes(0, 1).reshape(r, d)  # each row's heads side by side
    out = Tensor(concat @ wo.data)
    if _active.graph is None:  # not recording: no backward to build
        return out

    def backward(grad):
        _accumulate(wo, concat.T @ grad)
        g = (grad @ wo.data.T).reshape(r, num_heads, d_k).swapaxes(0, 1)  # [H, R, d_k]
        d_w = np.empty_like(wqkv.data)
        d_parts = d_w.reshape(d, 3, num_heads, d_k).transpose(1, 2, 0, 3)
        np.matmul(m_h.swapaxes(-1, -2), g, out=d_parts[2])
        d_m = np.matmul(g, w_v.swapaxes(-1, -2)).swapaxes(0, 1)  # [R, H, d]
        if q_slots is None:
            d_mixed = d_m
        else:
            d_mixed = np.zeros(mixed_shape)  # a slot no row fills gets no gradient
            d_mixed[q_slots] = d_m
        d_queries = np.empty(mixed_shape)
        d_flat = np.empty_like(flat) if len(kept) == len(plan.grids) else np.zeros_like(flat)
        for kv, keys, block, shape, probs in kept:
            g_m = d_mixed[block].reshape(shape)
            d_scores = g_m @ keys.swapaxes(-1, -2)  # d probs, turned into d scores in place
            d_scores -= np.add.reduce(d_scores * probs, -1, keepdims=True)
            d_scores *= probs
            np.matmul(d_scores, keys, out=d_queries[block].reshape(shape))
            d_keys = d_flat[kv].reshape(keys.shape)
            np.matmul(probs.swapaxes(-1, -2), g_m, out=d_keys)
            d_keys += d_scores.swapaxes(-1, -2) @ queries[block].reshape(shape)
        d_u = (d_queries if q_slots is None else d_queries[q_slots]).swapaxes(0, 1)  # [H, R, d]
        np.matmul(d_u.swapaxes(-1, -2), q_h, out=d_parts[1])
        d_q = np.matmul(d_u, w_k)  # [H, R, d_k]
        d_q *= factor
        np.matmul(x_q.T, d_q, out=d_parts[0])
        d_x = d_flat if dense else d_flat[plan.slots]
        d_x[picks] += d_q.swapaxes(0, 1).reshape(r, d) @ wqkv.data[:, :d].T  # distinct rows: no two updates meet
        _accumulate(wqkv, d_w)
        _accumulate(x, d_x)

    _record(out, backward, x, wqkv, wo)
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
    idx = _integers(targets, "cross_entropy")
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

    shifted = logits.data - np.maximum.reduce(logits.data, 1, keepdims=True)
    log_norm = np.log(np.add.reduce(np.exp(shifted), 1, keepdims=True))
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
    idx = ids if isinstance(ids, slice) else _integers(ids, op)
    _require_2d(table, op)
    if getattr(idx, "ndim", 1) != 1:
        raise ShapeError(f"{op}: ids must be a list of row indices, got shape {idx.shape}")
    if isinstance(ids, slice):
        low, high = ids.start, ids.stop - 1
    elif isinstance(ids, list) or idx.size <= SHORT_IDS:  # builtins: a numpy reduction costs more on a few ids
        short = ids if isinstance(ids, list) else idx.tolist()
        low, high = (min(short), max(short)) if short else (0, -1)
    else:
        low, high = 0, np.maximum.reduce(idx.view(np.uint64))  # a negative id reads as over 2**63
    if low < 0 or high >= table.data.shape[0]:
        raise IndexError(f"{op}: id out of range [0, {table.data.shape[0]})")
    return (table.data[idx] if isinstance(idx, slice) else table.data.take(idx, axis=0)), idx


def _integers(ids, op: str) -> np.ndarray:
    """ids as an int64 array; a ContractError for op unless they are integers
    (a float, bool or string is no row id or class), or empty."""
    idx = np.asarray(ids)
    if idx.dtype is not INT64:  # an int64 array, or what a list of Python ints becomes, needs no cast
        if idx.dtype.kind not in "iu" and idx.size:
            raise ContractError(f"{op}: expected integer ids, got {idx.dtype}")
        idx = idx.astype(np.int64)
    return idx


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
    """Inverted-dropout keep mask for x, one byte per slot: False with
    probability rate, as layer_norm's keep, which scales the kept slots by
    1/(1-rate). None when not training or rate == 0; rng is consumed only when active."""
    check_dropout_rate(rate)
    if not training or rate == 0.0:
        return None
    return rng.random(x.data.shape) >= rate
