import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradcheck import check_gradients, weighted_sum
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
    _padding_layout,
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
    return multi_head(x, params["encoder.0.wqkv"], params["encoder.0.wo"], lengths, num_heads)


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
        qkv = rng.normal(size=(1, 12))
        out = attention(Tensor(qkv), [1], 1)
        np.testing.assert_allclose(out.data, qkv[:, 8:], atol=1e-12)

    def test_identical_keys_average_values(self):
        rng = np.random.default_rng(1)
        qkv = rng.normal(size=(3, 12))
        qkv[:, 4:8] = rng.normal(size=4)  # every row has the same key
        out = attention(Tensor(qkv), [3], 1)
        np.testing.assert_allclose(out.data, np.broadcast_to(qkv[:, 8:].mean(axis=0), (3, 4)), atol=1e-12)

    def test_masked_key_equals_exclusion(self):
        # the short sequence sits in a grid padded to its neighbour's length
        rng = np.random.default_rng(2)
        qkv = rng.normal(size=(5, 24))
        together = attention(Tensor(qkv), [2, 3], 2).data
        np.testing.assert_allclose(together[:2], attention(Tensor(qkv[:2]), [2], 2).data, atol=1e-12)
        np.testing.assert_allclose(together[2:], attention(Tensor(qkv[2:]), [3], 2).data, atol=1e-12)

    def test_attention_weights_sum_to_one_and_mask_kills_weight(self):
        # one head, d_k = 4, and one-hot values: each output row is that query's weight row
        rng = np.random.default_rng(3)
        qk = rng.normal(size=(7, 8))
        values = np.vstack([np.eye(4)[:3], rng.normal(size=(4, 4))])
        out = attention(Tensor(np.hstack([qk, values])), [3, 4], 1).data
        weights = out[:3]  # the 3-row sequence, padded to 4 keys
        np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-12)  # nothing left for the pad key
        np.testing.assert_allclose(weights[:, :3], softmax(qk[:3, :4] @ qk[:3, 4:].T / 2.0), atol=1e-12)

    def test_shape_errors(self):
        t = lambda *s: Tensor(np.zeros(s))
        with pytest.raises(ShapeError):
            attention(t(2, 12), [2], 5)  # width does not split into q/k/v heads
        with pytest.raises(ShapeError):
            attention(t(3, 12), [1, 1], 1)  # lengths do not cover the rows
        with pytest.raises(ShapeError):
            attention(t(2, 12), [2, 0], 1)
        with pytest.raises(ShapeError):
            attention(t(0, 12), [], 1)
        with pytest.raises(ShapeError):
            attention(Tensor(np.zeros(12)), [1], 1)
        with pytest.raises(ShapeError, match=r"^multi_head: input width 8 != d_model 4$"):
            multi_head(t(2, 8), t(4, 12), t(4, 4), [2], 1)

    def test_matches_per_sequence_reference(self):
        rng = np.random.default_rng(12)
        qkv = rng.normal(size=(9, 24))
        got = attention(Tensor(qkv), [4, 1, 4], 2).data
        np.testing.assert_allclose(got, _reference_attention(qkv, [4, 1, 4], 2), atol=1e-12)

    def test_gradcheck_ragged_lengths(self):
        rng = np.random.default_rng(13)
        qkv = parameter(rng.normal(size=(9, 12)))
        weights = rng.normal(size=(9, 4))
        checked = check_gradients(
            lambda: weighted_sum(attention(qkv, [1, 3, 5], 2), weights), {"qkv": qkv}, rng, probes=60, rel=1e-4
        )
        assert checked == 60

    def test_query_rows_match_the_full_output(self):
        rng = np.random.default_rng(14)
        x, wqkv = rng.normal(size=(9, 8)), rng.normal(size=(8, 24))
        rows = [8, 0, 5, 2, 6]  # any order; the 1-row sequence has no query
        got = attend(Tensor(x), Tensor(wqkv), [3, 1, 5], 2, rows).data
        np.testing.assert_allclose(got, attention(Tensor(x @ wqkv), [3, 1, 5], 2).data[rows], atol=1e-12, rtol=0)

    def test_query_rows_gradient_matches_the_full_path(self):
        # the full output under a loss that ignores every other row
        rng = np.random.default_rng(15)
        rows = [8, 0, 5, 2, 6]
        x, wqkv = rng.normal(size=(9, 8)), rng.normal(size=(8, 24))
        upstream = rng.normal(size=(5, 8))
        got, full = _attend_and_grad(x, wqkv, [3, 1, 5], rows, upstream), _full_path(x, wqkv, [3, 1, 5], rows, upstream)
        for mine, theirs in zip(got, full):
            np.testing.assert_allclose(mine, theirs, atol=1e-12, rtol=0)

    def test_gradcheck_query_rows(self):
        rng = np.random.default_rng(16)
        x, wqkv = parameter(rng.normal(size=(9, 4))), parameter(rng.normal(size=(4, 12)))
        rows = [8, 0, 5, 2, 6]  # several queries in two sequences, none in the 1-row one
        weights = rng.normal(size=(5, 4))
        checked = check_gradients(
            lambda: weighted_sum(attend(x, wqkv, [3, 1, 5], 2, rows), weights), {"x": x, "wqkv": wqkv}, rng, 80
        )
        assert checked == 80

    def test_bad_query_rows(self):
        x, wqkv = Tensor(np.zeros((5, 4))), Tensor(np.zeros((4, 12)))
        out_of_range = r"^attention: query row out of range \[0, 5\)$"
        for rows, error, message in (
            ([5], IndexError, out_of_range),
            ([0, -1], IndexError, out_of_range),
            ([1, 4, 1], ShapeError, "^attention: query rows repeat$"),
            ([[0, 1]], ShapeError, r"^attention: rows must be a list of row indices, got shape \(1, 2\)$"),
        ):
            with pytest.raises(error, match=message):
                attend(x, wqkv, [2, 3], 1, rows)
        for rows in ([np.array([0])], [np.array([0, 1])], 0):  # not a flat list of ints, even where it equals the starts
            with pytest.raises(ShapeError):
                attend(x, wqkv, [5], 1, rows)


class TestPaddingLayout:
    """attention's padding layout, computed once per distinct lengths."""

    def test_lengths_as_list_tuple_or_array_are_bit_identical(self):
        rng = np.random.default_rng(17)
        qkv, upstream = rng.normal(size=(9, 24)), rng.normal(size=(9, 8))

        def run(lengths):
            leaf = parameter(qkv)
            with Graph() as graph:
                out = attention(leaf, lengths, 2)
                graph.backward(weighted_sum(out, upstream))
            return out.data, leaf.grad

        ref_out, ref_grad = run([4, 1, 4])
        for lengths in ((4, 1, 4), np.array([4, 1, 4]), np.array([4, 1, 4], dtype=np.int32)):
            out, grad = run(lengths)
            np.testing.assert_array_equal(out, ref_out)
            np.testing.assert_array_equal(grad, ref_grad)

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
        before = _padding_layout.cache_info()  # no lookup: hits, misses and size all stay
        t = lambda *s: Tensor(np.zeros(s))
        bad = ((0, []), (2, [2, 0]), (3, [0, 3]), (3, [1, 1]), (3, (1, 3)), (3, np.array([4])), (3, [1.5, 1.5]))
        for n, lengths in bad:
            with pytest.raises(ShapeError, match="do not partition"):
                attention(t(n, 12), lengths, 1)
        assert _padding_layout.cache_info() == before

    def test_one_sequence_has_a_memo_of_its_own(self):
        memos = lambda: (_padding_layout.cache_info(), tensor._sequence_layout.cache_info())
        before = memos()
        with pytest.raises(ShapeError, match="do not partition"):
            attention(Tensor(np.zeros((3, 12))), [4], 1)  # checked before either memo
        assert memos() == before
        layout = tensor.batch_layout((7,))
        assert layout is tensor._sequence_layout(7) and _padding_layout.cache_info() == before[0]
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
            layout, n = tensor.batch_layout(lengths), sum(lengths)
            starts = [sum(lengths[:i]) for i in range(len(lengths))]
            _, slots, q_lengths, size = tensor._query_slots(layout, starts, n)
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
            x, wqkv = rng.normal(size=(sum(lengths), 4)), rng.normal(size=(4, 12))
            upstream = rng.normal(size=(len(lengths), 4))
            cls = _attend_and_grad(x, wqkv, lengths, tensor.batch_layout(lengths).start, upstream)
            assert len(asked) == (grids > 1)  # the plan's own start of one grid: no query plan
            asked.clear()
            for rows in (starts, tuple(starts), np.array(starts, dtype=np.int32)):  # equal, but not the plan's
                got = _attend_and_grad(x, wqkv, lengths, rows, upstream)
                assert len(asked) == 1
                asked.clear()
                assert all(np.array_equal(mine, theirs) for mine, theirs in zip(got, cls))


def _attention_and_grad(qkv, lengths, upstream, num_heads=2):
    leaf = parameter(qkv)
    with Graph() as graph:
        out = attention(leaf, lengths, num_heads)
        graph.backward(weighted_sum(out, upstream))
    return out.data, leaf.grad


def _attend_and_grad(x, wqkv, lengths, rows, upstream, num_heads=2):
    """attend's output at rows and the x and wqkv gradients of sum(out * upstream)."""
    x, wqkv = parameter(x), parameter(wqkv)
    with Graph() as graph:
        out = attend(x, wqkv, lengths, num_heads, rows)
        graph.backward(weighted_sum(out, upstream))
    return out.data, x.grad, wqkv.grad


def _either_and_grad(x, wqkv, lengths, rows, upstream):
    """_attention_and_grad of x wqkv at every row when rows is None, else _attend_and_grad."""
    if rows is None:
        return _attention_and_grad(x @ wqkv, lengths, upstream)
    return _attend_and_grad(x, wqkv, lengths, rows, upstream)


def _full_path(x, wqkv, lengths, rows, upstream, num_heads=2):
    """_attend_and_grad's three arrays through attention(linear(x, wqkv)) at
    every row, read at rows, under an upstream that is zero at every other row."""
    x, wqkv = parameter(x), parameter(wqkv)
    padded = np.zeros((x.data.shape[0], upstream.shape[1]))
    padded[rows] = upstream
    with Graph() as graph:
        out = attention(linear(x, wqkv), lengths, num_heads)
        graph.backward(weighted_sum(out, padded))
    return out.data[rows], x.grad, wqkv.grad


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
            x, wqkv = rng.normal(size=(n, 4)), rng.normal(size=(4, 12))
            upstream = rng.normal(size=(n if rows is None else len(rows), 4))
            layout = _padding_layout(tuple(lengths))
            split += len(layout.key_bias) > 1
            if rows is not None:  # the grids holding a wanted row, found from each row's sequence
                wanted = layout.group[np.searchsorted(layout.start, rows, side="right") - 1]
                skipped += len(set(wanted.tolist())) < len(layout.key_bias)
            cases.append((x, wqkv, lengths, rows, upstream, _either_and_grad(x, wqkv, lengths, rows, upstream)))
        assert split >= 10 and skipped >= 3
        slot_budget(10**9)  # every batch in one grid
        for x, wqkv, lengths, rows, upstream, got in cases:
            assert len(_padding_layout(tuple(lengths)).key_bias) == 1
            for mine, one in zip(got, _either_and_grad(x, wqkv, lengths, rows, upstream)):
                np.testing.assert_allclose(mine, one, atol=1e-12, rtol=0)

    @pytest.mark.parametrize("rows", [None, [10, 0, 6], [7, 5]])
    def test_gradcheck_across_a_forced_split(self, slot_budget, rows):
        slot_budget(6)  # lengths sorted 1, 2 | 3 | 5: three grids; rows [7, 5] want only the last
        lengths = [3, 1, 5, 2]
        assert len(_padding_layout(tuple(lengths)).key_bias) == 3
        rng = np.random.default_rng(19)
        if rows is None:
            qkv = parameter(rng.normal(size=(11, 12)))
            params, build = {"qkv": qkv}, lambda: attention(qkv, lengths, 2)
        else:
            x, wqkv = parameter(rng.normal(size=(11, 4))), parameter(rng.normal(size=(4, 12)))
            params, build = {"x": x, "wqkv": wqkv}, lambda: attend(x, wqkv, lengths, 2, rows)
        weights = rng.normal(size=(11 if rows is None else len(rows), 4))
        checked = check_gradients(lambda: weighted_sum(build(), weights), params, rng, probes=60, rel=1e-4)
        assert checked == 60

    def test_grid_with_no_wanted_row_gives_exactly_zero_gradient(self, slot_budget):
        slot_budget(6)  # grids: lengths 1, 2 | 3 | 5; rows 7, 5 sit in the 5's grid
        lengths, rows = [3, 1, 5, 2], [7, 5]
        rng = np.random.default_rng(21)
        layout = _padding_layout(tuple(lengths))
        _, slots, q_lengths, size = tensor._query_slots(layout, rows, 11)
        assert q_lengths == [0, 0, 2] and size == 2  # two queries for the 5's one sequence
        np.testing.assert_array_equal(slots, [0, 1])
        _, grad, _ = _attend_and_grad(rng.normal(size=(11, 4)), rng.normal(size=(4, 12)), lengths, rows,
                                      rng.normal(size=(2, 4)))
        assert np.all(grad[[0, 1, 2, 3, 9, 10]] == 0.0)
        assert np.all(grad[4:9] != 0.0)  # the 5's rows

    def test_one_grid_path_is_the_single_grid_formula(self):
        rng = np.random.default_rng(20)
        for lengths in ([4, 1, 4], [7], [64] * 8, list(rng.integers(1, 33, size=15))):
            layout = _padding_layout(tuple(lengths))
            assert len(layout.key_bias) == 1  # packed order: sequence * L + position
            np.testing.assert_array_equal(
                layout.slots, np.concatenate([s * max(lengths) + np.arange(m) for s, m in enumerate(lengths)])
            )
            n = sum(lengths)
            qkv, upstream = rng.normal(size=(n, 24)), rng.normal(size=(n, 8))
            out, grad = _attention_and_grad(qkv, lengths, upstream)
            ref_out, ref_grad = _one_grid_reference(qkv, lengths, 2, upstream)
            np.testing.assert_array_equal(out, ref_out)
            np.testing.assert_array_equal(grad, ref_grad)


    def test_bad_query_rows_in_a_split_batch(self, slot_budget):
        slot_budget(6)
        assert len(_padding_layout((3, 1, 5, 2)).key_bias) == 3
        x, wqkv = Tensor(np.zeros((11, 4))), Tensor(np.zeros((4, 12)))
        with pytest.raises(IndexError):
            attend(x, wqkv, [3, 1, 5, 2], 1, [11])
        with pytest.raises(IndexError):
            attend(x, wqkv, [3, 1, 5, 2], 1, [0, -1])
        with pytest.raises(ShapeError):
            attend(x, wqkv, [3, 1, 5, 2], 1, [9, 4, 9])  # repeated
        with pytest.raises(ShapeError):
            attend(x, wqkv, [3, 1, 5, 2], 1, [[0, 1]])


@st.composite
def _attend_cases(draw):
    """x, wqkv, lengths, num_heads and rows for attend: up to eight random
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
    return rng.normal(size=(n, 8)), rng.normal(size=(8, 24)), lengths, num_heads, rows, rng


class TestAttend:
    """attend(x, wqkv, lengths, num_heads, rows) against attention(linear(x, wqkv))."""

    @settings(max_examples=40, deadline=None)
    @given(_attend_cases())
    def test_equals_attention_of_the_projection_at_the_rows(self, case):
        x, wqkv, lengths, num_heads, rows, rng = case
        upstream = rng.normal(size=(len(rows), 8))
        got = _attend_and_grad(x, wqkv, lengths, rows, upstream, num_heads)
        full = _full_path(x, wqkv, lengths, rows, upstream, num_heads)
        for name, mine, theirs in zip(("output", "x gradient", "wqkv gradient"), got, full):
            np.testing.assert_allclose(mine, theirs, rtol=0, atol=1e-12 * np.abs(theirs).max(), err_msg=name)

    @pytest.mark.parametrize("extra", [[], [2, 9, 7, 13, 10]], ids=["cls", "pretraining"])
    def test_gradcheck(self, extra):
        # the [CLS] rows alone, or the [CLS] rows and then masked-token rows
        rng = np.random.default_rng(26)
        lengths = [4, 1, 6, 4]
        rows = np.concatenate((tensor.batch_layout(tuple(lengths)).start, np.array(extra, dtype=np.int64)))
        x, wqkv = parameter(rng.normal(size=(15, 8))), parameter(rng.normal(size=(8, 24)))
        weights = rng.normal(size=(len(rows), 8))
        checked = check_gradients(
            lambda: weighted_sum(attend(x, wqkv, lengths, 2, rows), weights), {"x": x, "wqkv": wqkv}, rng, 120, rel=1e-4
        )
        assert checked == 120

    @pytest.mark.parametrize("budget", [None, 6])
    def test_pad_isolation(self, slot_budget, budget):
        # a wanted row ignores whatever another sequence holds, in its grid or in another
        if budget is not None:
            slot_budget(budget)  # lengths sorted 2, 3 | 5 | 6
        lengths, rows = [3, 5, 2, 6], [0, 12, 2, 10, 9, 15]  # none in the 5-row sequence
        rng = np.random.default_rng(27)
        x, wqkv = rng.normal(size=(16, 8)), rng.normal(size=(8, 24))
        scrambled = x.copy()
        scrambled[3:8] = rng.normal(size=(5, 8)) * 10.0
        for wanted in (rows, tensor.batch_layout(tuple(lengths)).start):
            keep = [i for i, r in enumerate(wanted) if not 3 <= r < 8]
            out_a = attend(Tensor(x), Tensor(wqkv), lengths, 2, wanted).data
            out_b = attend(Tensor(scrambled), Tensor(wqkv), lengths, 2, wanted).data
            np.testing.assert_allclose(out_a[keep], out_b[keep], atol=1e-9, rtol=0)

    def test_no_rows_give_no_output_and_zero_gradients(self):
        rng = np.random.default_rng(28)
        out, d_x, d_w = _attend_and_grad(rng.normal(size=(5, 4)), rng.normal(size=(4, 12)), [2, 3], [], np.zeros((0, 4)))
        assert out.shape == (0, 4) and not d_x.any() and not d_w.any()

    def test_shape_errors(self):
        t = lambda *s: Tensor(np.zeros(s))
        with pytest.raises(ShapeError, match="^attend expects a 2-D tensor"):
            attend(t(8), t(8, 24), [1], 2, [0])
        for w_shape, heads in (((8, 16), 2), ((4, 24), 2), ((8, 24), 3), ((8, 24), 0)):
            with pytest.raises(ShapeError, match=r"^attend: weights of shape"):
                attend(t(2, 8), t(*w_shape), [2], heads, [0])
        with pytest.raises(ShapeError, match="do not partition"):
            attend(t(3, 8), t(8, 24), [1, 1], 2, [0])

    def test_one_tape_node_for_the_layer_before_its_output_projection(self):
        x, wqkv = parameter(np.ones((5, 4))), parameter(np.ones((4, 12)))
        with Graph() as graph:
            attend(x, wqkv, [2, 3], 2, [0, 2])
        assert len(graph) == 1


class TestOneSequencePlan:
    """A single text's forward hands attention and attend its plan, one
    sequence wide, and attend its start as the [CLS] row: under a recording
    Graph the same code is the training code."""

    @pytest.mark.parametrize("by_plan", [False, True], ids=["lengths", "plan"])
    def test_attention_gradcheck(self, by_plan):
        rng = np.random.default_rng(40)
        lengths = tensor.batch_layout((6,)) if by_plan else [6]
        qkv, weights = parameter(rng.normal(size=(6, 24))), rng.normal(size=(6, 8))
        build = lambda: weighted_sum(attention(qkv, lengths, 2), weights)
        assert check_gradients(build, {"qkv": qkv}, rng, probes=60, rel=1e-4) == 60

    @pytest.mark.parametrize("by_plan", [False, True], ids=["lengths", "plan"])
    def test_attend_at_the_plans_start_gradcheck(self, monkeypatch, by_plan):
        asked = []
        general = tensor._query_slots
        monkeypatch.setattr(tensor, "_query_slots", lambda *args: asked.append(args) or general(*args))
        rng = np.random.default_rng(41)
        plan = tensor.batch_layout((6,))
        x, wqkv = parameter(rng.normal(size=(6, 8))), parameter(rng.normal(size=(8, 24)))
        weights = rng.normal(size=(1, 8))
        build = lambda: weighted_sum(attend(x, wqkv, plan if by_plan else [6], 2, plan.start), weights)
        assert check_gradients(build, {"x": x, "wqkv": wqkv}, rng, probes=80, rel=1e-4) == 80
        assert not asked  # the plan's own start: the [CLS] path, with no query plan

    def test_a_plan_gives_what_its_lengths_give(self):
        rng = np.random.default_rng(42)
        for lengths in ([5], [3, 1, 5]):
            plan = tensor.batch_layout(tuple(lengths))
            n = sum(lengths)
            qkv, upstream = rng.normal(size=(n, 24)), rng.normal(size=(n, 8))
            by_plan, by_lengths = _attention_and_grad(qkv, plan, upstream), _attention_and_grad(qkv, lengths, upstream)
            for mine, theirs in zip(by_plan, by_lengths):
                np.testing.assert_array_equal(mine, theirs)
            x, wqkv, upstream = rng.normal(size=(n, 8)), rng.normal(size=(8, 24)), rng.normal(size=(len(lengths), 8))
            got = _attend_and_grad(x, wqkv, plan, plan.start, upstream)
            for mine, theirs in zip(got, _attend_and_grad(x, wqkv, lengths, list(plan.start), upstream)):
                np.testing.assert_array_equal(mine, theirs)

    def test_a_plan_of_other_rows_is_rejected(self):
        t = lambda *s: Tensor(np.zeros(s))
        with pytest.raises(ShapeError, match="does not partition 5 rows"):
            attention(t(5, 12), tensor.batch_layout((6,)), 1)
        with pytest.raises(ShapeError, match="does not partition 7 rows"):
            attend(t(7, 4), t(4, 12), tensor.batch_layout((3, 3)), 1, [0])


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
        out = encoder_layer(Tensor(x), layer_weights(params, "encoder.0"), [3], 2).data
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
        a = encoder_layer(x, weights, [4], 2, config.dropout_rate, np.random.default_rng(1), training=False)
        b = encoder_layer(x, weights, [4], 2, config.dropout_rate, np.random.default_rng(999), training=False)
        np.testing.assert_array_equal(a.data, b.data)

    def test_training_dropout_needs_rng(self):
        config = _config(dropout_rate=0.5)
        params = init_layer_params(config, np.random.default_rng(0))
        with pytest.raises(ConfigError):
            encoder_layer(Tensor(np.zeros((2, 8))), layer_weights(params, "encoder.0"), [2], 2, 0.5, None, training=True)

    @pytest.mark.parametrize("training", [False, True], ids=["eval", "training"])
    @pytest.mark.parametrize("rate", [-0.1, 1.0, float("nan")])
    def test_bad_dropout_rate_is_rejected_in_either_mode(self, training, rate):
        params = init_layer_params(_config(), np.random.default_rng(0))
        with pytest.raises(ContractError, match=r"^dropout: rate must be in \[0, 1\), got"):
            weights = layer_weights(params, "encoder.0")
            encoder_layer(Tensor(np.zeros((2, 8))), weights, [2], 2, rate, np.random.default_rng(0), training)

    @pytest.mark.parametrize("rows", [None, [0, 2]], ids=["all-rows", "query-rows"])
    @pytest.mark.parametrize("training", [False, True], ids=["eval", "training"])
    def test_rng_gives_only_the_two_training_masks(self, training, rows):
        # a training layer draws its two masks at the full [N x d] shape, in
        # order; an eval-mode layer draws nothing
        params = init_layer_params(_config(), np.random.default_rng(0))
        x = Tensor(np.random.default_rng(1).normal(size=(5, 8)))
        rng, reference = np.random.default_rng(2), np.random.default_rng(2)
        encoder_layer(x, layer_weights(params, "encoder.0"), [2, 3], 2, 0.3, rng, training, rows)
        for _ in range(2 if training else 0):
            reference.random((5, 8))
        assert rng.bit_generator.state == reference.bit_generator.state

    def test_output_shape(self):
        config = _config()
        params = init_layer_params(config, np.random.default_rng(0))
        out = encoder_layer(Tensor(np.zeros((5, 8))), layer_weights(params, "encoder.0"), [2, 3], 2)
        assert out.data.shape == (5, 8)


class TestEncode:
    def test_empty_stack_is_identity(self):
        config = _config(num_layers=0)
        x = Tensor(np.random.default_rng(0).normal(size=(4, 8)))
        out = encode(x, config, {}, [4])
        assert out is x

    def test_two_layers_equal_manual_composition(self):
        config = _config(num_layers=2)
        rng = np.random.default_rng(6)
        params = init_stack(config, rng)
        x = Tensor(rng.normal(size=(4, 8)))
        lengths = [1, 3]
        stacked = encode(x, config, stack_weights(params, config), lengths)
        first, second = layer_weights(params, "encoder.0"), layer_weights(params, "encoder.1")
        manual = encoder_layer(encoder_layer(x, first, lengths, 2), second, lengths, 2)
        np.testing.assert_array_equal(stacked.data, manual.data)

    def test_layer_count_mismatch(self):
        # two layers configured, weights for one: the missing layer is named
        config = _config(num_layers=2)
        params = init_layer_params(config, np.random.default_rng(0))
        with pytest.raises(ConfigError, match=r"encoder\.1\.wqkv"):
            encode(Tensor(np.zeros((2, 8))), config, stack_weights(params, config), [2])

    def test_missing_layer_weight_is_config_error(self):
        config = _config(num_layers=1)
        params = init_layer_params(config, np.random.default_rng(0))
        del params["encoder.0.ln2.beta"]
        with pytest.raises(ConfigError, match=r"encoder\.0\.ln2\.beta"):
            encode(Tensor(np.zeros((2, 8))), config, stack_weights(params, config), [2])

    def test_pad_isolation(self):
        # a sequence's rows ignore whatever its batch neighbour holds
        config = _config(num_layers=2)
        rng = np.random.default_rng(7)
        params = init_stack(config, rng)
        lengths = [3, 2]
        x = rng.normal(size=(5, 8))
        scrambled = x.copy()
        scrambled[3:, :] = rng.normal(size=(2, 8)) * 10.0
        out_a = encode(Tensor(x), config, stack_weights(params, config), lengths).data
        out_b = encode(Tensor(scrambled), config, stack_weights(params, config), lengths).data
        np.testing.assert_allclose(out_a[:3], out_b[:3], atol=1e-9)

    def test_permutation_equivariance(self):
        config = _config(num_layers=2)
        rng = np.random.default_rng(8)
        params = init_stack(config, rng)
        x = rng.normal(size=(5, 8))
        perm = rng.permutation(5)
        out = encode(Tensor(x), config, stack_weights(params, config), [5]).data
        out_perm = encode(Tensor(x[perm]), config, stack_weights(params, config), [5]).data
        np.testing.assert_allclose(out_perm, out[perm], atol=1e-9)

    def test_eval_determinism_bitwise(self):
        config = _config(num_layers=2, dropout_rate=0.3)
        rng = np.random.default_rng(9)
        params = init_stack(config, rng)
        x = rng.normal(size=(4, 8))
        a = encode(Tensor(x), config, stack_weights(params, config), [4], training=False).data
        b = encode(Tensor(x), config, stack_weights(params, config), [4], training=False).data
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
        full = encode(x, config, stack_weights(params, config), [3, 1, 5], True, full_rng).data[rows]
        cut = encode(x, config, stack_weights(params, config), [3, 1, 5], True, cut_rng, rows).data
        np.testing.assert_allclose(cut, full, atol=1e-12, rtol=0)
        assert full_rng.random() == cut_rng.random()


class TestEncoderGradients:
    def test_full_two_layer_encoder_gradcheck(self):
        config = _config(num_layers=2, num_heads=2, d_model=8, d_ff=16)
        rng = np.random.default_rng(10)
        layers = init_stack(config, rng)
        head = parameter(rng.normal(size=(8, 3)))
        x = parameter(rng.normal(size=(4, 8)))
        lengths = [3, 1]

        def build():
            hidden = encode(x, config, stack_weights(layers, config), lengths)
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
