import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradcheck import check_gradients, plan, weighted_sum
from sentibert import tensor
from sentibert.encoder import (
    EncoderConfig,
    attention,
    encode,
    encoder_layer,
    feed_forward,
    layer_weights,
    multi_head,
    stack_weights,
)
from sentibert.errors import ConfigError, ContractError, ShapeError
from sentibert.model import initial_array, parameter_shapes
from sentibert.tensor import (
    EVAL_SLOTS,
    NEG_INF_MASK,
    Graph,
    Tensor,
    _accumulate,
    _padding_layout,
    _record,
    attend,
    cross_entropy,
    linear,
    parameter,
    softmax,
)
from sentibert.tokenizer import NUM_SPECIALS


def _config(**kw):
    defaults = dict(num_layers=1, num_heads=2, d_model=8, d_ff=16, max_len=8, dropout_rate=0.0)
    defaults.update(kw)
    return EncoderConfig(**defaults)


def init_layer_params(config, rng, layer=0) -> dict:
    """The encoder.0 parameters SentimentModel.init draws for config, drawn
    from rng and named as layer `layer`."""
    shapes = parameter_shapes(NUM_SPECIALS, config)
    return {
        n.replace("encoder.0.", f"encoder.{layer}.", 1): parameter(initial_array(n, s, config, rng))
        for n, s in shapes.items()
        if n.startswith("encoder.0.")
    }


def init_stack(config, rng) -> dict:
    """init_layer_params for each of config's layers in turn, all in one dict."""
    return {n: t for i in range(config.num_layers) for n, t in init_layer_params(config, rng, i).items()}


def _multi_head(x, params, lengths, num_heads):
    return multi_head(x, params["encoder.0.wqkv"], params["encoder.0.wo"], plan(*lengths), num_heads)


def _weights(rng, d):
    """A random [d x 3d] wqkv and [d x d] wo."""
    return rng.normal(size=(d, 3 * d)), rng.normal(size=(d, d))


@pytest.fixture
def slot_budget(monkeypatch):
    """Sets tensor.EVAL_SLOTS for one test, clearing the layout memo around it."""

    def set_budget(slots):
        monkeypatch.setattr(tensor, "EVAL_SLOTS", slots)
        _padding_layout.cache_clear()

    yield set_budget
    _padding_layout.cache_clear()


def _reference_attention(qkv: np.ndarray, lengths, num_heads: int) -> np.ndarray:
    """Per sequence, per head softmax(Q K^T / sqrt(d_k)) V on its own rows, heads side by side."""
    d = qkv.shape[1] // 3
    dk = d // num_heads
    out, start = [], 0
    for n in lengths:
        rows = qkv[start : start + n]
        heads = []
        for h in range(num_heads):
            q, k, v = (rows[:, p * d + h * dk : p * d + (h + 1) * dk] for p in range(3))
            heads.append(softmax(q @ k.T / np.sqrt(dk)) @ v)
        out.append(np.hstack(heads))
        start += n
    return np.vstack(out)


class TestAttention:
    def test_singleton_returns_value(self):
        rng = np.random.default_rng(0)
        x, (wqkv, wo) = rng.normal(size=(1, 4)), _weights(rng, 4)
        out = attention(Tensor(x), Tensor(wqkv), Tensor(wo), plan(1), 1)
        np.testing.assert_allclose(out.data, x @ wqkv[:, 8:] @ wo, atol=1e-12)

    def test_identical_keys_average_values(self):
        rng = np.random.default_rng(1)
        x, (wqkv, wo) = rng.normal(size=(3, 4)), _weights(rng, 4)
        wqkv[:, 4:8] = 0.0  # every row has the same (zero) key
        out = attention(Tensor(x), Tensor(wqkv), Tensor(wo), plan(3), 1)
        mean_value = (x @ wqkv[:, 8:]).mean(axis=0)
        np.testing.assert_allclose(out.data, np.broadcast_to(mean_value @ wo, (3, 4)), atol=1e-12)

    def test_masked_key_equals_exclusion(self):
        # the short sequence sits in a grid padded to its neighbour's length
        rng = np.random.default_rng(2)
        x, (wqkv, wo) = rng.normal(size=(5, 8)), map(Tensor, _weights(rng, 8))
        together = attention(Tensor(x), wqkv, wo, plan(2, 3), 2).data
        np.testing.assert_allclose(together[:2], attention(Tensor(x[:2]), wqkv, wo, plan(2), 2).data, atol=1e-12)
        np.testing.assert_allclose(together[2:], attention(Tensor(x[2:]), wqkv, wo, plan(3), 2).data, atol=1e-12)

    def test_attention_weights_sum_to_one_and_mask_kills_weight(self):
        # one head, d_k = 4, W_V = W_O = I and one-hot rows: each output row is that query's weight row
        rng = np.random.default_rng(3)
        x = np.vstack([np.eye(4)[:3], rng.normal(size=(4, 4))])
        wqkv = np.hstack([rng.normal(size=(4, 8)), np.eye(4)])
        out = attention(Tensor(x), Tensor(wqkv), Tensor(np.eye(4)), plan(3, 4), 1).data
        weights = out[:3]  # the 3-row sequence, padded to 4 keys
        np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-12)  # nothing left for the pad key
        q, k = x[:3] @ wqkv[:, :4], x[:3] @ wqkv[:, 4:8]
        np.testing.assert_allclose(weights[:, :3], softmax(q @ k.T / 2.0), atol=1e-12)

    def test_shape_errors(self):
        t = lambda *s: Tensor(np.zeros(s))
        weights = r"^attention: weights of shapes \(\d+, \d+\)/\(\d+, \d+\) do not split width \d+ into \d+ heads$"
        for w_shape, o_shape, heads in (((4, 12), (4, 4), 3), ((4, 8), (4, 4), 1), ((4, 12), (4, 2), 1)):
            with pytest.raises(ShapeError, match=weights):
                attention(t(2, 4), t(*w_shape), t(*o_shape), plan(2), heads)
        for n, other in ((3, plan(1, 1)), (1, plan(2))):  # a plan that does not cover the rows
            with pytest.raises(ShapeError, match=f"^attention: needs the batch_layout plan of its {n} rows, got a plan"):
                attention(t(n, 4), t(4, 12), t(4, 4), other, 1)
        with pytest.raises(ShapeError, match="^attention expects a 2-D tensor"):
            attention(t(4), t(4, 12), t(4, 4), plan(1), 1)
        with pytest.raises(ShapeError, match=r"^attention: weights of shapes \(4, 12\)/\(4, 4\) do not split width 8"):
            multi_head(t(2, 8), t(4, 12), t(4, 4), plan(2), 1)  # input wider than the layer's d_model

    def test_matches_per_sequence_reference(self):
        rng = np.random.default_rng(12)
        x, (wqkv, wo) = rng.normal(size=(9, 8)), _weights(rng, 8)
        got = attention(Tensor(x), Tensor(wqkv), Tensor(wo), plan(4, 1, 4), 2).data
        np.testing.assert_allclose(got, _reference_attention(x @ wqkv, [4, 1, 4], 2) @ wo, atol=1e-12)

    def test_gradcheck_ragged_lengths(self):
        rng = np.random.default_rng(13)
        x, (wqkv, wo) = parameter(rng.normal(size=(9, 4))), map(parameter, _weights(rng, 4))
        weights = rng.normal(size=(9, 4))
        checked = check_gradients(
            lambda: weighted_sum(attention(x, wqkv, wo, plan(1, 3, 5), 2), weights),
            {"x": x, "wqkv": wqkv, "wo": wo}, rng, probes=90, rel=1e-4,
        )
        assert checked == 90

    def test_query_rows_match_the_full_output(self):
        rng = np.random.default_rng(14)
        x, (wqkv, wo) = rng.normal(size=(9, 8)), map(Tensor, _weights(rng, 8))
        full = attention(Tensor(x), wqkv, wo, plan(3, 1, 5), 2).data
        for rows in ([8, 0, 5, 2, 6], slice(2, 7)):  # any order, the 1-row sequence with no query; or a slice
            got = attend(Tensor(x), wqkv, wo, plan(3, 1, 5), 2, rows).data
            np.testing.assert_allclose(got, full[rows], atol=1e-12, rtol=0)

    def test_query_rows_gradient_matches_the_full_path(self):
        # the full output under a loss that ignores every other row
        rng = np.random.default_rng(15)
        rows = [8, 0, 5, 2, 6]
        x, (wqkv, wo) = rng.normal(size=(9, 8)), _weights(rng, 8)
        upstream = rng.normal(size=(5, 8))
        got = _attend_and_grad(x, wqkv, wo, [3, 1, 5], rows, upstream)
        full = _full_path(x, wqkv, wo, [3, 1, 5], rows, upstream)
        for mine, theirs in zip(got, full):
            np.testing.assert_allclose(mine, theirs, atol=1e-12, rtol=0)

    def test_gradcheck_query_rows(self):
        rng = np.random.default_rng(16)
        x, (wqkv, wo) = parameter(rng.normal(size=(9, 4))), map(parameter, _weights(rng, 4))
        rows = [8, 0, 5, 2, 6]  # several queries in two sequences, none in the 1-row one
        weights = rng.normal(size=(5, 4))
        checked = check_gradients(
            lambda: weighted_sum(attend(x, wqkv, wo, plan(3, 1, 5), 2, rows), weights),
            {"x": x, "wqkv": wqkv, "wo": wo}, rng, 90,
        )
        assert checked == 90

    def test_bad_query_rows(self):
        x, wqkv, wo = Tensor(np.zeros((5, 4))), Tensor(np.zeros((4, 12))), Tensor(np.zeros((4, 4)))
        out_of_range = r"^attend: id out of range \[0, 5\)$"
        for rows, error, message in (
            ([5], IndexError, out_of_range),
            ([0, -1], IndexError, out_of_range),
            ([1, 4, 1], ShapeError, "^attend: query rows repeat$"),
            ([[0, 1]], ShapeError, r"^attend: ids must be a list of row indices, got shape \(1, 2\)$"),
        ):
            with pytest.raises(error, match=message):
                attend(x, wqkv, wo, plan(2, 3), 1, rows)
        for rows in ([np.array([0])], [np.array([0, 1])], 0):  # not a flat list of ints, even where it equals the starts
            with pytest.raises(ShapeError):
                attend(x, wqkv, wo, plan(5), 1, rows)


class TestPaddingLayout:
    """attention's padding layout, computed once per distinct lengths."""

    def test_layout_arrays_are_read_only(self):
        layout = _padding_layout((3, 1, 5))
        (key_bias,) = layout.key_bias  # 3 x 5 slots fit one grid, in packed order
        assert layout.grids == (slice(0, 15),)
        np.testing.assert_array_equal(layout.slots, [0, 1, 2, 5, 10, 11, 12, 13, 14])
        np.testing.assert_array_equal(key_bias[:, 0, 0, :] == 0.0, np.arange(5) < np.array([[3], [1], [5]]))
        np.testing.assert_array_equal(np.unique(key_bias), [NEG_INF_MASK, 0.0])
        np.testing.assert_array_equal(layout.start, [0, 3, 4])
        np.testing.assert_array_equal(layout.group, [0, 0, 0])
        for array in (key_bias, *layout[2:]):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1

    def test_bad_lengths_raise_before_the_cache(self):
        # batch_layout is where lengths are checked: no lookup, so hits, misses and size all stay in both memos
        memos = lambda: (_padding_layout.cache_info(), tensor._sequence_layout.cache_info())
        before = memos()
        bad = ((), (0,), (-1, 3), (2.0,), (2, 0), (1.5, 1.5), (True,), (np.int64(3),), [2], np.array([2]), None)
        for lengths in bad:
            with pytest.raises(ShapeError, match=r"^batch_layout: lengths .* are not a nonempty tuple of positive ints"):
                tensor.batch_layout(lengths)
        assert memos() == before

    def test_one_sequence_has_a_memo_of_its_own(self):
        before = _padding_layout.cache_info()
        layout = tensor.batch_layout((7,))
        assert layout is tensor._sequence_layout(7) and _padding_layout.cache_info() == before
        general = _padding_layout.__wrapped__((7,))
        assert layout.grids == general.grids == (slice(0, 7),)
        assert layout.positions == slice(0, 7)  # contiguous: no gather
        for mine, theirs in zip((*layout.key_bias, *layout[2:]), (*general.key_bias, *general[2:])):
            np.testing.assert_array_equal(mine, theirs)

    @pytest.mark.parametrize("budget", [None, 8])
    def test_cls_plan_is_the_general_plan_of_the_starts(self, slot_budget, monkeypatch, budget):
        # attend takes a one-grid batch's [CLS] rows unplanned when rows are the
        # plan's own start array; it must be exactly what _query_slots works out
        if budget is not None:
            slot_budget(budget)  # lengths over 8 stand alone: many grids
        rng = np.random.default_rng(23)
        cases, split = [], 0
        for _ in range(60):
            lengths = tuple(rng.integers(1, 24, size=int(rng.integers(1, 14))).tolist())
            layout = tensor.batch_layout(lengths)
            starts = [sum(lengths[:i]) for i in range(len(lengths))]
            slots, q_lengths, size = tensor._query_slots(layout, np.array(starts))
            assert q_lengths == [1] * len(layout.grids) and size == len(lengths)
            if len(layout.grids) == 1:  # one query per sequence, in packed order
                np.testing.assert_array_equal(slots, np.arange(len(lengths)))
            np.testing.assert_array_equal(np.sort(slots), np.arange(len(lengths)))
            np.testing.assert_array_equal(layout.start, starts)
            split += len(layout.grids) > 1
            cases.append((lengths, starts, len(layout.grids)))
        assert split >= (20 if budget else 0)
        asked = []
        general = tensor._query_slots
        monkeypatch.setattr(tensor, "_query_slots", lambda *args: asked.append(args) or general(*args))
        for lengths, starts, grids in cases[:10]:
            x, (wqkv, wo) = rng.normal(size=(sum(lengths), 4)), _weights(rng, 4)
            upstream = rng.normal(size=(len(lengths), 4))
            cls = _attend_and_grad(x, wqkv, wo, lengths, tensor.batch_layout(lengths).start, upstream)
            assert len(asked) == (grids > 1)  # the plan's own start of one grid: no query plan
            asked.clear()
            for rows in (starts, tuple(starts), np.array(starts, dtype=np.int32)):  # equal, but not the plan's
                got = _attend_and_grad(x, wqkv, wo, lengths, rows, upstream)
                assert len(asked) == 1
                asked.clear()
                assert all(np.array_equal(mine, theirs) for mine, theirs in zip(got, cls))


def _attention_and_grad(x, wqkv, wo, lengths, upstream, num_heads=2):
    """attention's output under the plan of lengths and the x, wqkv and wo
    gradients of sum(out * upstream)."""
    return _run(lambda *t: attention(*t, plan(*lengths), num_heads), x, wqkv, wo, upstream)


def _attend_and_grad(x, wqkv, wo, lengths, rows, upstream, num_heads=2):
    """attend's output at rows under the plan of lengths and the x, wqkv and
    wo gradients of sum(out * upstream)."""
    return _run(lambda *t: attend(*t, plan(*lengths), num_heads, rows), x, wqkv, wo, upstream)


def _run(op, x, wqkv, wo, upstream):
    """op on fresh leaves of the three arrays: its output and their gradients
    of sum(out * upstream), a gradient being zero where none arrived."""
    leaves = [parameter(a) for a in (x, wqkv, wo)]
    with Graph() as graph:
        out = op(*leaves)
        graph.backward(weighted_sum(out, upstream))
    return (out.data, *(np.zeros_like(t.data) if t.grad is None else t.grad for t in leaves))


def _either_and_grad(x, wqkv, wo, lengths, rows, upstream):
    """_attention_and_grad at every row when rows is None, else _attend_and_grad."""
    if rows is None:
        return _attention_and_grad(x, wqkv, wo, lengths, upstream)
    return _attend_and_grad(x, wqkv, wo, lengths, rows, upstream)


def _full_path(x, wqkv, wo, lengths, rows, upstream, num_heads=2):
    """_attend_and_grad's four arrays through attention at every row, read at
    rows, under an upstream that is zero at every other row."""
    padded = np.zeros((x.shape[0], upstream.shape[1]))
    padded[rows] = upstream
    out, *grads = _attention_and_grad(x, wqkv, wo, lengths, padded, num_heads)
    return (out[rows], *grads)


def _one_grid_reference(qkv, lengths, num_heads, upstream):
    """Output and qkv gradient of sum(out * upstream) with every row a query,
    all sequences padded into one grid to the longest length."""
    width, b, length = qkv.shape[1], len(lengths), max(lengths)
    d = width // 3
    d_k = d // num_heads
    factor = 1.0 / np.sqrt(d_k)
    slots = np.concatenate([s * length + np.arange(m) for s, m in enumerate(lengths)])
    key_bias = np.where(np.arange(length) < np.array(lengths)[:, None], 0.0, NEG_INF_MASK)[:, None, None, :]

    def heads(flat, parts):
        return flat.reshape(b, length, parts, num_heads, d_k).transpose(2, 0, 3, 1, 4)

    flat = np.zeros((b * length, width))
    flat[slots] = qkv
    q, k, v = heads(flat, 3)
    scores = q @ k.transpose(0, 1, 3, 2)
    scores *= factor
    scores += key_bias
    probs = softmax(scores)
    context = np.zeros((b * length, d))
    np.matmul(probs, v, out=heads(context, 1)[0])
    flat_g = np.zeros((b * length, d))
    flat_g[slots] = upstream
    (g,) = heads(flat_g, 1)
    d_scores = g @ v.transpose(0, 1, 3, 2)
    d_scores -= (d_scores * probs).sum(axis=-1, keepdims=True)
    d_scores *= probs
    d_scores *= factor
    d_flat = np.zeros((b * length, width))
    grad_q, grad_k, grad_v = heads(d_flat, 3)
    np.matmul(d_scores, k, out=grad_q)
    np.matmul(d_scores.transpose(0, 1, 3, 2), q, out=grad_k)
    np.matmul(probs.transpose(0, 1, 3, 2), g, out=grad_v)
    return context[slots], d_flat[slots]


class TestLengthGroups:
    """A batch over EVAL_SLOTS padded slots runs as several grids, each
    padded to its own longest length."""

    def test_split_layout(self, slot_budget):
        slot_budget(6)  # sorted lengths 1, 3 fill 2 x 3 slots; the 5 stands alone
        layout = _padding_layout((3, 1, 5))
        first, second = layout.key_bias
        # grid 0 holds the 1 then the 3 in slots 0-5; grid 1 the 5 in slots 6-10
        assert layout.grids == (slice(0, 6), slice(6, 11))
        np.testing.assert_array_equal(layout.slots, [3, 4, 5, 0, 6, 7, 8, 9, 10])
        np.testing.assert_array_equal(first[:, 0, 0, :] == 0.0, [[True, False, False], [True] * 3])
        assert second.shape == (1, 1, 1, 5) and not second.any()
        np.testing.assert_array_equal(layout.start, [0, 3, 4])
        np.testing.assert_array_equal(layout.group, [0, 0, 1])
        for array in (first, second, *layout[2:]):
            assert not array.flags.writeable

    @pytest.mark.parametrize("lengths", [(3, 1, 5, 2), (6, 1, 1, 4, 2, 3, 5), (2,) * 7])
    def test_split_slots_cover_each_grids_unmasked_keys(self, slot_budget, lengths):
        slot_budget(6)
        layout = _padding_layout(lengths)
        assert len(layout.key_bias) > 1
        slots = np.sort(layout.slots)
        assert np.unique(slots).size == slots.size
        # the grids tile the buffer end to end
        assert layout.grids[0].start == 0 and all(a.stop == b.start for a, b in zip(layout.grids, layout.grids[1:]))
        for key_bias, grid in zip(layout.key_bias, layout.grids):
            assert key_bias.size == grid.stop - grid.start
            unmasked = grid.start + np.flatnonzero(key_bias[:, 0, 0, :].ravel() == 0.0)
            np.testing.assert_array_equal(slots[(slots >= grid.start) & (slots < grid.stop)], unmasked)
        assert slots[-1] < layout.grids[-1].stop

    def test_one_grid_up_to_the_budget(self):
        assert len(_padding_layout((64,) * 8).key_bias) == 1  # exactly EVAL_SLOTS slots
        assert len(_padding_layout((1,) + (64,) * 8).key_bias) == 2
        assert len(_padding_layout((300,)).key_bias) == 1  # over the budget alone

    @pytest.mark.parametrize("budget, max_length, max_batch", [(None, 64, 32), (8, 6, 8)])
    def test_grids_match_one_grid(self, slot_budget, budget, max_length, max_batch):
        # random ragged batches; attention at every row, or attend at a random
        # subset or only the longest sequence's rows, so that other grids hold no wanted row
        if budget is not None:
            slot_budget(budget)
        rng = np.random.default_rng(18)
        cases, split, skipped = [], 0, 0
        for trial in range(30):
            lengths = rng.integers(1, max_length + 1, size=int(rng.integers(1, max_batch + 1))).tolist()
            n, longest = sum(lengths), int(np.argmax(lengths))
            start = sum(lengths[:longest])
            rows = [
                None,
                rng.permutation(n)[: int(rng.integers(1, n + 1))].tolist(),
                list(range(start + lengths[longest] - 1, start - 1, -1)),
            ][trial % 3]
            x, (wqkv, wo) = rng.normal(size=(n, 4)), _weights(rng, 4)
            upstream = rng.normal(size=(n if rows is None else len(rows), 4))
            layout = _padding_layout(tuple(lengths))
            split += len(layout.key_bias) > 1
            if rows is not None:  # the grids holding a wanted row, found from each row's sequence
                wanted = layout.group[np.searchsorted(layout.start, rows, side="right") - 1]
                skipped += len(set(wanted.tolist())) < len(layout.key_bias)
            case = (x, wqkv, wo, lengths, rows, upstream)
            cases.append((case, _either_and_grad(*case)))
        assert split >= 10 and skipped >= 3
        slot_budget(10**9)  # every batch in one grid
        for case, got in cases:
            assert len(_padding_layout(tuple(case[3])).key_bias) == 1
            for mine, one in zip(got, _either_and_grad(*case)):
                np.testing.assert_allclose(mine, one, atol=1e-12, rtol=0)

    @pytest.mark.parametrize("rows", [None, [10, 0, 6], [7, 5]])
    def test_gradcheck_across_a_forced_split(self, slot_budget, rows):
        slot_budget(6)  # lengths sorted 1, 2 | 3 | 5: three grids; rows [7, 5] want only the last
        lengths = [3, 1, 5, 2]
        assert len(_padding_layout(tuple(lengths)).key_bias) == 3
        rng = np.random.default_rng(19)
        x, (wqkv, wo) = parameter(rng.normal(size=(11, 4))), map(parameter, _weights(rng, 4))
        if rows is None:
            build = lambda: attention(x, wqkv, wo, plan(*lengths), 2)
        else:
            build = lambda: attend(x, wqkv, wo, plan(*lengths), 2, rows)
        weights = rng.normal(size=(11 if rows is None else len(rows), 4))
        params = {"x": x, "wqkv": wqkv, "wo": wo}
        checked = check_gradients(lambda: weighted_sum(build(), weights), params, rng, probes=90, rel=1e-4)
        assert checked == 90

    def test_grid_with_no_wanted_row_gives_exactly_zero_gradient(self, slot_budget):
        slot_budget(6)  # grids: lengths 1, 2 | 3 | 5; rows 7, 5 sit in the 5's grid
        lengths, rows = [3, 1, 5, 2], [7, 5]
        rng = np.random.default_rng(21)
        layout = _padding_layout(tuple(lengths))
        slots, q_lengths, size = tensor._query_slots(layout, np.array(rows))
        assert q_lengths == [0, 0, 2] and size == 2  # two queries for the 5's one sequence
        np.testing.assert_array_equal(slots, [0, 1])
        x, (wqkv, wo) = rng.normal(size=(11, 4)), _weights(rng, 4)
        _, grad, _, _ = _attend_and_grad(x, wqkv, wo, lengths, rows, rng.normal(size=(2, 4)))
        assert np.all(grad[[0, 1, 2, 3, 9, 10]] == 0.0)
        assert np.all(grad[4:9] != 0.0)  # the 5's rows

    def test_one_grid_path_is_the_single_grid_formula(self):
        # the single-grid formula on the projection, between the two projections written out as linear computes them
        rng = np.random.default_rng(20)
        for lengths in ([4, 1, 4], [7], [64] * 8, list(rng.integers(1, 33, size=15))):
            layout = _padding_layout(tuple(lengths))
            assert len(layout.key_bias) == 1  # packed order: sequence * L + position
            np.testing.assert_array_equal(
                layout.slots, np.concatenate([s * max(lengths) + np.arange(m) for s, m in enumerate(lengths)])
            )
            n = sum(lengths)
            x, (wqkv, wo), upstream = rng.normal(size=(n, 8)), _weights(rng, 8), rng.normal(size=(n, 8))
            out, d_x, d_wqkv, d_wo = _attention_and_grad(x, wqkv, wo, lengths, upstream)
            context, d_qkv = _one_grid_reference(x @ wqkv, lengths, 2, upstream @ wo.T)
            np.testing.assert_array_equal(out, context @ wo)
            np.testing.assert_array_equal(d_wo, context.T @ upstream)
            np.testing.assert_array_equal(d_x, d_qkv @ wqkv.T)
            np.testing.assert_array_equal(d_wqkv, x.T @ d_qkv)

    def test_bad_query_rows_in_a_split_batch(self, slot_budget):
        slot_budget(6)
        assert len(_padding_layout((3, 1, 5, 2)).key_bias) == 3
        x, wqkv, wo = Tensor(np.zeros((11, 4))), Tensor(np.zeros((4, 12))), Tensor(np.zeros((4, 4)))
        with pytest.raises(IndexError):
            attend(x, wqkv, wo, plan(3, 1, 5, 2), 1, [11])
        with pytest.raises(IndexError):
            attend(x, wqkv, wo, plan(3, 1, 5, 2), 1, [0, -1])
        with pytest.raises(ShapeError):
            attend(x, wqkv, wo, plan(3, 1, 5, 2), 1, [9, 4, 9])  # repeated
        with pytest.raises(ShapeError):
            attend(x, wqkv, wo, plan(3, 1, 5, 2), 1, [[0, 1]])


@st.composite
def _attend_cases(draw):
    """x, wqkv, wo, lengths, num_heads and rows for attend: up to eight random
    lengths, sometimes with one past EVAL_SLOTS so that the batch runs as
    several grids, and one sequence is a batch too; rows distinct, in any
    order and often several to a sequence, or the plan's own start array,
    or those starts followed by other rows, as in pretraining."""
    lengths = draw(st.lists(st.integers(1, 16), min_size=1, max_size=8))
    if draw(st.booleans()):
        lengths.insert(draw(st.integers(0, len(lengths))), draw(st.integers(EVAL_SLOTS + 1, EVAL_SLOTS + 3)))
    n, starts = sum(lengths), tensor.batch_layout(tuple(lengths)).start
    kind = draw(st.sampled_from(["random", "starts", "starts then others"]))
    if kind == "starts":
        rows = starts
    else:
        others = [r for r in range(n) if kind == "random" or r not in starts]
        picked = draw(st.lists(st.sampled_from(others), unique=True, max_size=16)) if others else []
        rows = picked if kind == "random" else np.concatenate((starts, np.array(picked, dtype=np.int64)))
    if not len(rows):
        rows = [draw(st.integers(0, n - 1))]
    num_heads = draw(st.sampled_from([1, 2, 4]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return (rng.normal(size=(n, 8)), *_weights(rng, 8), lengths, num_heads, rows, rng)


class TestAttend:
    """attend(x, wqkv, wo, plan, num_heads, rows) against attention at every row."""

    @settings(max_examples=40, deadline=None)
    @given(_attend_cases())
    def test_equals_attention_of_the_projection_at_the_rows(self, case):
        x, wqkv, wo, lengths, num_heads, rows, rng = case
        upstream = rng.normal(size=(len(rows), 8))
        got = _attend_and_grad(x, wqkv, wo, lengths, rows, upstream, num_heads)
        full = _full_path(x, wqkv, wo, lengths, rows, upstream, num_heads)
        for name, mine, theirs in zip(("output", "x gradient", "wqkv gradient", "wo gradient"), got, full):
            np.testing.assert_allclose(mine, theirs, rtol=0, atol=1e-12 * np.abs(theirs).max(), err_msg=name)

    @pytest.mark.parametrize("extra", [[], [2, 9, 7, 13, 10]], ids=["cls", "pretraining"])
    def test_gradcheck(self, extra):
        # the [CLS] rows alone, or the [CLS] rows and then masked-token rows
        rng = np.random.default_rng(26)
        lengths = [4, 1, 6, 4]
        rows = np.concatenate((tensor.batch_layout(tuple(lengths)).start, np.array(extra, dtype=np.int64)))
        x, (wqkv, wo) = parameter(rng.normal(size=(15, 8))), map(parameter, _weights(rng, 8))
        weights = rng.normal(size=(len(rows), 8))
        checked = check_gradients(
            lambda: weighted_sum(attend(x, wqkv, wo, plan(*lengths), 2, rows), weights),
            {"x": x, "wqkv": wqkv, "wo": wo}, rng, 150, rel=1e-4,
        )
        assert checked == 150

    @pytest.mark.parametrize("budget", [None, 6])
    def test_pad_isolation(self, slot_budget, budget):
        # a wanted row ignores whatever another sequence holds, in its grid or in another
        if budget is not None:
            slot_budget(budget)  # lengths sorted 2, 3 | 5 | 6
        lengths, rows = [3, 5, 2, 6], [0, 12, 2, 10, 9, 15]  # none in the 5-row sequence
        rng = np.random.default_rng(27)
        x, (wqkv, wo) = rng.normal(size=(16, 8)), map(Tensor, _weights(rng, 8))
        scrambled = x.copy()
        scrambled[3:8] = rng.normal(size=(5, 8)) * 10.0
        for wanted in (rows, tensor.batch_layout(tuple(lengths)).start):
            keep = [i for i, r in enumerate(wanted) if not 3 <= r < 8]
            out_a = attend(Tensor(x), wqkv, wo, plan(*lengths), 2, wanted).data
            out_b = attend(Tensor(scrambled), wqkv, wo, plan(*lengths), 2, wanted).data
            np.testing.assert_allclose(out_a[keep], out_b[keep], atol=1e-9, rtol=0)

    def test_no_rows_give_no_output_and_zero_gradients(self):
        rng = np.random.default_rng(28)
        x, (wqkv, wo) = rng.normal(size=(5, 4)), _weights(rng, 4)
        out, *grads = _attend_and_grad(x, wqkv, wo, [2, 3], [], np.zeros((0, 4)))
        assert out.shape == (0, 4) and not any(grad.any() for grad in grads)

    def test_shape_errors(self):
        t = lambda *s: Tensor(np.zeros(s))
        with pytest.raises(ShapeError, match="^attend expects a 2-D tensor"):
            attend(t(8), t(8, 24), t(8, 8), plan(1), 2, [0])
        cases = (((8, 16), (8, 8), 2), ((4, 24), (8, 8), 2), ((8, 24), (8, 8), 3), ((8, 24), (8, 8), 0))
        for w_shape, o_shape, heads in cases + (((8, 24), (8, 4), 2), ((8, 24), (4, 8), 2)):
            with pytest.raises(ShapeError, match=r"^attend: weights of shapes"):
                attend(t(2, 8), t(*w_shape), t(*o_shape), plan(2), heads, [0])
        with pytest.raises(ShapeError, match="^attend: needs the batch_layout plan of its 3 rows, got a plan of 2 rows"):
            attend(t(3, 8), t(8, 24), t(8, 8), plan(1, 1), 2, [0])

    def test_one_tape_node_for_the_whole_sublayer(self):
        x, wqkv, wo = parameter(np.ones((5, 4))), parameter(np.ones((4, 12))), parameter(np.ones((4, 4)))
        with Graph() as graph:
            attend(x, wqkv, wo, plan(2, 3), 2, [0, 2])
            attention(x, wqkv, wo, plan(2, 3), 2)
        assert len(graph) == 2


def _taped(fn, *inputs: Tensor) -> Tensor:
    """A tape node defined here: fn maps the inputs' arrays to the output
    array and a backward from its gradient to the inputs' gradients."""
    data, backward = fn(*(t.data for t in inputs))
    out = Tensor(data)

    def accumulate(grad):
        for t, g in zip(inputs, backward(grad)):
            _accumulate(t, g)

    _record(out, accumulate, *inputs)
    return out


def _grid_softmax_attention(qkv, lengths, num_heads):
    """Per grid of the batch plan, softmax(Q K^T / sqrt(d_k) plus the key mask) V
    of the [N x 3d] projected rows, and its backward: the attention core alone."""
    layout = plan(*lengths)
    flat, _ = tensor._slot_buffer(qkv, layout, "attention")
    d = qkv.shape[1] // 3
    factor = 1.0 / math.sqrt(d // num_heads)
    context, kept = np.zeros((flat.shape[0], d)), []
    for key_bias, kv in zip(layout.key_bias, layout.grids):
        length = key_bias.shape[-1]
        q, k, v = tensor._heads(flat[kv], length, 3, num_heads)
        scores = q @ k.swapaxes(-1, -2)
        scores *= factor
        scores += key_bias if scores.ndim == 4 else key_bias[0]
        probs = softmax(scores)
        np.matmul(probs, v, out=tensor._heads(context[kv], length, 1, num_heads))
        kept.append((kv, q, k, v, probs))

    def backward(grad):
        flat_g, d_flat = np.zeros((flat.shape[0], d)), np.zeros_like(flat)
        flat_g[layout.slots] = grad
        for kv, q, k, v, probs in kept:
            g = tensor._heads(flat_g[kv], probs.shape[-1], 1, num_heads)
            d_scores = g @ v.swapaxes(-1, -2)
            d_scores -= np.add.reduce(d_scores * probs, -1, keepdims=True)
            d_scores *= probs
            d_scores *= factor
            grad_q, grad_k, grad_v = tensor._heads(d_flat[kv], probs.shape[-1], 3, num_heads)
            np.matmul(d_scores, k, out=grad_q)
            np.matmul(d_scores.swapaxes(-1, -2), q, out=grad_k)
            np.matmul(probs.swapaxes(-1, -2), g, out=grad_v)
        return (d_flat[layout.slots],)

    return context[layout.slots], backward


def _folded_attention(x, wqkv, lengths, num_heads, rows):
    """attend's core before W_O at the wanted rows, and its backward: the key
    projection folded into each query, the value projection past the softmax."""
    d = x.shape[1]
    d_k = d // num_heads
    layout = plan(*lengths)
    flat, _ = tensor._slot_buffer(x, layout, "attend")
    picks = np.asarray(rows, dtype=np.int64)
    q_slots, q_lengths, size = tensor._query_slots(layout, picks)
    factor = 1.0 / math.sqrt(d_k)
    w_q, w_k, w_v = wqkv.reshape(d, 3, num_heads, d_k).transpose(1, 2, 0, 3)
    x_q = x.take(picks, axis=0)
    q_h = np.matmul(x_q, w_q)
    q_h *= factor
    queries = np.zeros((size, num_heads, d))
    queries[q_slots] = np.matmul(q_h, w_k.swapaxes(-1, -2)).swapaxes(0, 1)
    mixed, kept, offset = np.zeros((size, num_heads, d)), [], 0
    for key_bias, kv, q_length in zip(layout.key_bias, layout.grids, q_lengths):
        b, length = key_bias.shape[::3]
        block, offset = slice(offset, offset + b * q_length), offset + b * q_length
        if q_length:
            shape = (b, -1, d) if b > 1 else (-1, d)
            keys = flat[kv].reshape(b, length, d) if b > 1 else flat[kv]
            scores = queries[block].reshape(shape) @ keys.swapaxes(-1, -2)
            scores += key_bias[:, 0] if b > 1 else key_bias[0, 0]
            probs = softmax(scores)
            np.matmul(probs, keys, out=mixed[block].reshape(shape))
            kept.append((kv, keys, block, shape, probs))
    m_h = mixed[q_slots].swapaxes(0, 1)

    def backward(grad):
        g = grad.reshape(len(picks), num_heads, d_k).swapaxes(0, 1)
        d_w = np.zeros_like(wqkv)
        d_q_part, d_k_part, d_v_part = d_w.reshape(d, 3, num_heads, d_k).transpose(1, 2, 0, 3)
        np.matmul(m_h.swapaxes(-1, -2), g, out=d_v_part)
        d_mixed, d_queries, d_flat = np.zeros((size, num_heads, d)), np.zeros((size, num_heads, d)), np.zeros_like(flat)
        d_mixed[q_slots] = np.matmul(g, w_v.swapaxes(-1, -2)).swapaxes(0, 1)
        for kv, keys, block, shape, probs in kept:
            g_m = d_mixed[block].reshape(shape)
            d_scores = g_m @ keys.swapaxes(-1, -2)
            d_scores -= np.add.reduce(d_scores * probs, -1, keepdims=True)
            d_scores *= probs
            np.matmul(d_scores, keys, out=d_queries[block].reshape(shape))
            d_keys = d_flat[kv].reshape(keys.shape)
            np.matmul(probs.swapaxes(-1, -2), g_m, out=d_keys)
            d_keys += d_scores.swapaxes(-1, -2) @ queries[block].reshape(shape)
        d_u = d_queries[q_slots].swapaxes(0, 1)
        np.matmul(d_u.swapaxes(-1, -2), q_h, out=d_k_part)
        d_q = np.matmul(d_u, w_k)
        d_q *= factor
        np.matmul(x_q.T, d_q, out=d_q_part)
        d_x = d_flat[layout.slots]
        d_x[picks] += d_q.swapaxes(0, 1).reshape(len(picks), d) @ wqkv[:, :d].T
        return d_x, d_w

    return np.matmul(m_h, w_v).swapaxes(0, 1).reshape(len(picks), d), backward


def _unfused(lengths, num_heads, rows=None):
    """The sublayer as three nodes: linear to the projection, the core
    alone, then linear by W_O; or, given rows, attend's folded core, then
    linear by W_O."""

    def op(x, wqkv, wo):
        if rows is None:
            core = _taped(lambda qkv: _grid_softmax_attention(qkv, lengths, num_heads), linear(x, wqkv))
        else:
            core = _taped(lambda a, w: _folded_attention(a, w, lengths, num_heads, rows), x, wqkv)
        return linear(core, wo)

    return op


D = 12  # TestFusedSublayer's width
# lengths per case: dense (equal lengths, one grid, no padding slot), ragged in
# one grid, ragged across grids (EVAL_SLOTS 6), and one sequence (its one-sequence plan)
_FUSED_CASES = {
    "dense": ([4, 4, 4], None),
    "ragged": ([3, 1, 5, 2], None),
    "grids": ([3, 1, 5, 2, 6, 1], 6),
    "one-sequence": ([7], None),
}


class TestFusedSublayer:
    """attention and attend are each the whole sublayer, bit for bit the
    composition they replace: the projection, the core, then W_O. Two heads
    of width 6, so that 1/sqrt(d_k) is inexact and moving it moves bits."""

    @pytest.mark.parametrize("case", list(_FUSED_CASES))
    def test_attention_is_the_composition_bit_for_bit(self, slot_budget, case):
        lengths, budget = _FUSED_CASES[case]
        if budget is not None:
            slot_budget(budget)
        n = sum(lengths)
        rng = np.random.default_rng(50)
        x, (wqkv, wo), upstream = rng.normal(size=(n, D)), _weights(rng, D), rng.normal(size=(n, D))
        fused = _attention_and_grad(x, wqkv, wo, lengths, upstream)
        unfused = _run(_unfused(lengths, 2), x, wqkv, wo, upstream)
        for name, mine, theirs in zip(("output", "x gradient", "wqkv gradient", "wo gradient"), fused, unfused):
            assert np.array_equal(mine, theirs), name

    @pytest.mark.parametrize("case", list(_FUSED_CASES))
    @pytest.mark.parametrize("wanted", ["cls", "pretraining"])
    def test_attend_is_the_composition_bit_for_bit(self, slot_budget, case, wanted):
        # the [CLS] rows as the plan's own start, or the starts then rows several to a sequence
        lengths, budget = _FUSED_CASES[case]
        if budget is not None:
            slot_budget(budget)
        n, rows = sum(lengths), plan(*lengths).start
        if wanted == "pretraining":
            others = np.setdiff1d(np.arange(n), rows)
            rows = np.concatenate((rows, np.random.default_rng(51).permutation(others)[: min(6, others.size)]))
        rng = np.random.default_rng(52)
        x, (wqkv, wo), upstream = rng.normal(size=(n, D)), _weights(rng, D), rng.normal(size=(len(rows), D))
        fused = _attend_and_grad(x, wqkv, wo, lengths, rows, upstream)
        unfused = _run(_unfused(lengths, 2, rows), x, wqkv, wo, upstream)
        for name, mine, theirs in zip(("output", "x gradient", "wqkv gradient", "wo gradient"), fused, unfused):
            assert np.array_equal(mine, theirs), name

    @pytest.mark.parametrize("rows", [None, [0, 3, 4, 9]], ids=["attention", "attend"])
    def test_pad_isolation(self, rows):
        # rows 4-8 hold the 5-row sequence; nothing outside it moves when it is scrambled
        lengths = [3, 1, 5, 2]
        rng = np.random.default_rng(53)
        x, (wqkv, wo) = rng.normal(size=(11, 8)), map(Tensor, _weights(rng, 8))
        scrambled = x.copy()
        scrambled[4:9] = rng.normal(size=(5, 8)) * 10.0
        if rows is None:
            op = lambda a: attention(a, wqkv, wo, plan(*lengths), 2)
        else:
            op = lambda a: attend(a, wqkv, wo, plan(*lengths), 2, rows)
        outside = [i for i, r in enumerate(range(11) if rows is None else rows) if not 4 <= r < 9]
        np.testing.assert_allclose(op(Tensor(x)).data[outside], op(Tensor(scrambled)).data[outside], atol=1e-9, rtol=0)


class TestOneSequencePlan:
    """A single text's forward hands attention and attend its plan, one
    sequence wide, and attend its start as the [CLS] row: under a recording
    Graph the same code is the training code."""

    def test_attention_gradcheck(self):
        rng = np.random.default_rng(40)
        x, (wqkv, wo) = parameter(rng.normal(size=(6, 8))), map(parameter, _weights(rng, 8))
        weights = rng.normal(size=(6, 8))
        build = lambda: weighted_sum(attention(x, wqkv, wo, plan(6), 2), weights)
        assert check_gradients(build, {"x": x, "wqkv": wqkv, "wo": wo}, rng, probes=90, rel=1e-4) == 90

    def test_attend_at_the_plans_start_gradcheck(self, monkeypatch):
        asked = []
        general = tensor._query_slots
        monkeypatch.setattr(tensor, "_query_slots", lambda *args: asked.append(args) or general(*args))
        rng = np.random.default_rng(41)
        one = plan(6)
        x, (wqkv, wo) = parameter(rng.normal(size=(6, 8))), map(parameter, _weights(rng, 8))
        weights = rng.normal(size=(1, 8))
        build = lambda: weighted_sum(attend(x, wqkv, wo, one, 2, one.start), weights)
        assert check_gradients(build, {"x": x, "wqkv": wqkv, "wo": wo}, rng, probes=100, rel=1e-4) == 100
        assert not asked  # the plan's own start: the [CLS] path, with no query plan

    def test_a_plan_gives_what_its_lengths_give(self):
        # the memoized plan, and the [CLS] path at its start, against a plan of the same lengths worked out afresh
        rng = np.random.default_rng(42)
        for lengths in ([5], [3, 1, 5]):
            memo, fresh = plan(*lengths), _padding_layout.__wrapped__(tuple(lengths))
            assert memo is not fresh
            n = sum(lengths)
            x, (wqkv, wo), upstream = rng.normal(size=(n, 8)), _weights(rng, 8), rng.normal(size=(n, 8))
            by_memo = _run(lambda *t: attention(*t, memo, 2), x, wqkv, wo, upstream)
            for mine, theirs in zip(by_memo, _run(lambda *t: attention(*t, fresh, 2), x, wqkv, wo, upstream)):
                np.testing.assert_array_equal(mine, theirs)
            upstream = rng.normal(size=(len(lengths), 8))
            got = _run(lambda *t: attend(*t, memo, 2, memo.start), x, wqkv, wo, upstream)
            general = _run(lambda *t: attend(*t, fresh, 2, list(memo.start)), x, wqkv, wo, upstream)
            for mine, theirs in zip(got, general):
                np.testing.assert_array_equal(mine, theirs)

    def test_a_plan_of_other_rows_is_rejected(self):
        t = lambda *s: Tensor(np.zeros(s))
        with pytest.raises(ShapeError, match="^attention: needs the batch_layout plan of its 5 rows, got a plan of 6 rows"):
            attention(t(5, 4), t(4, 12), t(4, 4), plan(6), 1)
        with pytest.raises(ShapeError, match="^attend: needs the batch_layout plan of its 7 rows, got a plan of 6 rows"):
            attend(t(7, 4), t(4, 12), t(4, 4), plan(3, 3), 1, [0])


@pytest.mark.parametrize("lengths", [[2, 3], (2, 3), np.array([2, 3])], ids=["list", "tuple", "array"])
def test_row_counts_in_place_of_the_plan_are_a_shape_error(lengths):
    # the plan is the only batch-shape argument: batch_layout checks row counts once, the ops do not parse them
    x, wqkv, wo = Tensor(np.zeros((5, 4))), Tensor(np.zeros((4, 12))), Tensor(np.zeros((4, 4)))
    got = type(lengths).__name__
    with pytest.raises(ShapeError, match=f"^attention: needs the batch_layout plan of its 5 rows, got {got}$"):
        attention(x, wqkv, wo, lengths, 1)
    with pytest.raises(ShapeError, match=f"^attend: needs the batch_layout plan of its 5 rows, got {got}$"):
        attend(x, wqkv, wo, lengths, 1, [0])
    with pytest.raises(ShapeError, match=f"^attention: needs the batch_layout plan of its 5 rows, got {got}$"):
        multi_head(x, wqkv, wo, lengths, 1)


class TestMultiHead:
    def test_single_head_identity_projections(self):
        config = _config(num_heads=1, d_model=4)
        params = init_layer_params(config, np.random.default_rng(0))
        eye = np.eye(4)
        params["encoder.0.wqkv"].data = np.hstack([eye, eye, eye])
        params["encoder.0.wo"].data = eye.copy()
        x = np.random.default_rng(1).normal(size=(1, 4))
        out = _multi_head(Tensor(x), params, [1], 1)
        np.testing.assert_allclose(out.data, x, atol=1e-12)

    def test_zero_projections_zero_output(self):
        config = _config()
        params = init_layer_params(config, np.random.default_rng(0))
        params["encoder.0.wqkv"].data[:, 2 * config.d_model :] = 0.0  # every value head
        out = _multi_head(Tensor(np.random.default_rng(2).normal(size=(3, 8))), params, [3], config.num_heads)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_matches_hand_assembled_heads(self):
        config = _config(num_heads=2, d_model=6)
        rng = np.random.default_rng(4)
        params = init_layer_params(config, rng)
        x = rng.normal(size=(4, 6))
        lengths = [3, 1]
        out = _multi_head(Tensor(x), params, lengths, 2)
        expected = _reference_attention(x @ params["encoder.0.wqkv"].data, lengths, 2) @ params["encoder.0.wo"].data
        np.testing.assert_allclose(out.data, expected, atol=1e-12)


class TestEncoderLayer:
    def test_zero_sublayers_reduce_to_double_layer_norm(self):
        config = _config(num_heads=2, d_model=6, d_ff=12)
        params = init_layer_params(config, np.random.default_rng(0))
        for name in ("wqkv", "wo", "ffn.w1", "ffn.w2"):
            params[f"encoder.0.{name}"].data[:] = 0.0
        x = np.random.default_rng(5).normal(size=(3, 6))
        out = encoder_layer(Tensor(x), layer_weights(params, "encoder.0"), plan(3), 2).data
        mean = x.mean(axis=1, keepdims=True)
        var = x.var(axis=1, keepdims=True)
        once = (x - mean) / np.sqrt(var + 1e-5)
        mean2 = once.mean(axis=1, keepdims=True)
        var2 = once.var(axis=1, keepdims=True)
        twice = (once - mean2) / np.sqrt(var2 + 1e-5)
        np.testing.assert_allclose(out, twice, atol=1e-10)

    def test_eval_mode_ignores_rng(self):
        config = _config(dropout_rate=0.5)
        params = init_layer_params(config, np.random.default_rng(0))
        x = Tensor(np.random.default_rng(1).normal(size=(4, 8)))
        weights = layer_weights(params, "encoder.0")
        a = encoder_layer(x, weights, plan(4), 2, config.dropout_rate, np.random.default_rng(1), training=False)
        b = encoder_layer(x, weights, plan(4), 2, config.dropout_rate, np.random.default_rng(999), training=False)
        np.testing.assert_array_equal(a.data, b.data)

    def test_training_dropout_needs_rng(self):
        config = _config(dropout_rate=0.5)
        params = init_layer_params(config, np.random.default_rng(0))
        weights = layer_weights(params, "encoder.0")
        with pytest.raises(ConfigError):
            encoder_layer(Tensor(np.zeros((2, 8))), weights, plan(2), 2, 0.5, None, training=True)

    @pytest.mark.parametrize("training", [False, True], ids=["eval", "training"])
    @pytest.mark.parametrize("rate", [-0.1, 1.0, float("nan")])
    def test_bad_dropout_rate_is_rejected_in_either_mode(self, training, rate):
        params = init_layer_params(_config(), np.random.default_rng(0))
        with pytest.raises(ContractError, match=r"^dropout: rate must be in \[0, 1\), got"):
            weights = layer_weights(params, "encoder.0")
            encoder_layer(Tensor(np.zeros((2, 8))), weights, plan(2), 2, rate, np.random.default_rng(0), training)

    @pytest.mark.parametrize("rows", [None, [0, 2]], ids=["all-rows", "query-rows"])
    @pytest.mark.parametrize("training", [False, True], ids=["eval", "training"])
    def test_rng_gives_only_the_two_training_masks(self, training, rows):
        # a training layer draws its two masks at the full [N x d] shape, in
        # order; an eval-mode layer draws nothing
        params = init_layer_params(_config(), np.random.default_rng(0))
        x = Tensor(np.random.default_rng(1).normal(size=(5, 8)))
        rng, reference = np.random.default_rng(2), np.random.default_rng(2)
        encoder_layer(x, layer_weights(params, "encoder.0"), plan(2, 3), 2, 0.3, rng, training, rows)
        for _ in range(2 if training else 0):
            reference.random((5, 8))
        assert rng.bit_generator.state == reference.bit_generator.state

    def test_output_shape(self):
        config = _config()
        params = init_layer_params(config, np.random.default_rng(0))
        out = encoder_layer(Tensor(np.zeros((5, 8))), layer_weights(params, "encoder.0"), plan(2, 3), 2)
        assert out.data.shape == (5, 8)


class TestEncode:
    def test_empty_stack_is_identity(self):
        config = _config(num_layers=0)
        x = Tensor(np.random.default_rng(0).normal(size=(4, 8)))
        out = encode(x, config, {}, plan(4))
        assert out is x

    def test_two_layers_equal_manual_composition(self):
        config = _config(num_layers=2)
        rng = np.random.default_rng(6)
        params = init_stack(config, rng)
        x = Tensor(rng.normal(size=(4, 8)))
        batch = plan(1, 3)
        stacked = encode(x, config, stack_weights(params, config), batch)
        first, second = layer_weights(params, "encoder.0"), layer_weights(params, "encoder.1")
        manual = encoder_layer(encoder_layer(x, first, batch, 2), second, batch, 2)
        np.testing.assert_array_equal(stacked.data, manual.data)

    def test_layer_count_mismatch(self):
        # two layers configured, weights for one: the missing layer is named
        config = _config(num_layers=2)
        params = init_layer_params(config, np.random.default_rng(0))
        with pytest.raises(ConfigError, match=r"encoder\.1\.wqkv"):
            encode(Tensor(np.zeros((2, 8))), config, stack_weights(params, config), plan(2))

    def test_missing_layer_weight_is_config_error(self):
        config = _config(num_layers=1)
        params = init_layer_params(config, np.random.default_rng(0))
        del params["encoder.0.ln2.beta"]
        with pytest.raises(ConfigError, match=r"encoder\.0\.ln2\.beta"):
            encode(Tensor(np.zeros((2, 8))), config, stack_weights(params, config), plan(2))

    def test_pad_isolation(self):
        # a sequence's rows ignore whatever its batch neighbour holds
        config = _config(num_layers=2)
        rng = np.random.default_rng(7)
        params = init_stack(config, rng)
        x = rng.normal(size=(5, 8))
        scrambled = x.copy()
        scrambled[3:, :] = rng.normal(size=(2, 8)) * 10.0
        out_a = encode(Tensor(x), config, stack_weights(params, config), plan(3, 2)).data
        out_b = encode(Tensor(scrambled), config, stack_weights(params, config), plan(3, 2)).data
        np.testing.assert_allclose(out_a[:3], out_b[:3], atol=1e-9)

    def test_permutation_equivariance(self):
        config = _config(num_layers=2)
        rng = np.random.default_rng(8)
        params = init_stack(config, rng)
        x = rng.normal(size=(5, 8))
        perm = rng.permutation(5)
        out = encode(Tensor(x), config, stack_weights(params, config), plan(5)).data
        out_perm = encode(Tensor(x[perm]), config, stack_weights(params, config), plan(5)).data
        np.testing.assert_allclose(out_perm, out[perm], atol=1e-9)

    def test_eval_determinism_bitwise(self):
        config = _config(num_layers=2, dropout_rate=0.3)
        rng = np.random.default_rng(9)
        params = init_stack(config, rng)
        x = rng.normal(size=(4, 8))
        a = encode(Tensor(x), config, stack_weights(params, config), plan(4), training=False).data
        b = encode(Tensor(x), config, stack_weights(params, config), plan(4), training=False).data
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("num_layers", [0, 1, 2])
    def test_rows_match_the_full_output_in_training(self, num_layers):
        # both dropout masks are drawn at the full shape and then indexed, so
        # one rng seed gives the same masks and leaves the same stream behind
        config = _config(num_layers=num_layers, dropout_rate=0.3)
        rng = np.random.default_rng(17)
        params = init_stack(config, rng)
        x = Tensor(rng.normal(size=(9, 8)))
        rows = [3, 0, 8, 5]
        full_rng, cut_rng = np.random.default_rng(1), np.random.default_rng(1)
        full = encode(x, config, stack_weights(params, config), plan(3, 1, 5), True, full_rng).data[rows]
        cut = encode(x, config, stack_weights(params, config), plan(3, 1, 5), True, cut_rng, rows).data
        np.testing.assert_allclose(cut, full, atol=1e-12, rtol=0)
        assert full_rng.random() == cut_rng.random()


class TestEncoderGradients:
    def test_full_two_layer_encoder_gradcheck(self):
        config = _config(num_layers=2, num_heads=2, d_model=8, d_ff=16)
        rng = np.random.default_rng(10)
        layers = init_stack(config, rng)
        head = parameter(rng.normal(size=(8, 3)))
        x = parameter(rng.normal(size=(4, 8)))
        def build():
            hidden = encode(x, config, stack_weights(layers, config), plan(3, 1))
            return cross_entropy(linear(hidden, head, rows=[0]), [2])

        check_gradients(build, {"x": x, "head": head, **layers}, rng, probes=120)

    def test_feed_forward_matches_formula(self):
        config = _config(d_model=4, d_ff=6)
        rng = np.random.default_rng(11)
        params = init_layer_params(config, rng)
        x = rng.normal(size=(3, 4))
        w1, b1, w2, b2 = (params[f"encoder.0.ffn.{name}"] for name in ("w1", "b1", "w2", "b2"))
        expected = np.maximum(0.0, x @ w1.data + b1.data) @ w2.data + b2.data
        np.testing.assert_allclose(feed_forward(Tensor(x), w1, b1, w2, b2).data, expected, atol=1e-12)
