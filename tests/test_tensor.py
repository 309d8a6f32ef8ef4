import ast
import concurrent.futures
import math
import re
import weakref
from pathlib import Path

import numpy as np
import pytest

from gradcheck import check_gradients, numerical_grad, plan, sum_all, weighted_sum
from sentibert import tensor
from sentibert.errors import ContractError, ShapeError
from sentibert.optim import OPTIMIZERS, SGD, Adam
from sentibert.tensor import (
    Graph,
    Tensor,
    attend,
    attention,
    cross_entropy,
    dropout,
    ffn,
    gather_rows,
    layer_norm,
    linear,
    parameter,
    softmax,
)


def naive_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for t in range(k):
                out[i, j] += a[i, t] * b[t, j]
    return out


class TestMatmul:
    """linear with no bias and every row: the plain matrix product."""

    def test_identity(self):
        b = Tensor([[3.0, 4.0], [5.0, 6.0]])
        out = linear(Tensor(np.eye(2)), b)
        assert np.array_equal(out.data, b.data)

    def test_hand_worked(self):
        out = linear(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[5.0, 6.0], [7.0, 8.0]]))
        assert np.array_equal(out.data, [[19.0, 22.0], [43.0, 50.0]])

    def test_zeros(self):
        out = linear(Tensor(np.zeros((2, 3))), Tensor(np.arange(6.0).reshape(3, 2)))
        assert np.array_equal(out.data, np.zeros((2, 2)))

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            m, k, n = rng.integers(1, 9, size=3)
            a = rng.normal(size=(m, k))
            b = rng.normal(size=(k, n))
            got = linear(Tensor(a), Tensor(b)).data
            np.testing.assert_allclose(got, naive_matmul(a, b), atol=1e-12)

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))


class TestLinear:
    def test_bias_rows_and_transposed_weight(self):
        rng = np.random.default_rng(8)
        x, w, b = rng.normal(size=(5, 4)), rng.normal(size=(4, 3)), rng.normal(size=3)
        ids = [4, 0, 4]
        np.testing.assert_array_equal(linear(Tensor(x), Tensor(w), Tensor(b)).data, x @ w + b)
        np.testing.assert_array_equal(linear(Tensor(x), Tensor(w), rows=ids).data, x[ids] @ w)
        np.testing.assert_array_equal(linear(Tensor(x), Tensor(w), rows=slice(1, 4)).data, x[1:4] @ w)
        tied = linear(Tensor(x), Tensor(w.T.copy()), Tensor(b), rows=ids, transposed=True).data
        np.testing.assert_array_equal(tied, x[ids] @ w + b)

    @pytest.mark.parametrize("transposed", [False, True], ids=["w", "w-transposed"])
    @pytest.mark.parametrize("rows", [[6, 1, 1, 3], slice(2, 6)], ids=["ids", "slice"])
    def test_equals_a_gather_then_a_product_bit_for_bit(self, rows, transposed):
        # the forward and every gradient of rows and of a transposed weight
        # equal those of the gather and the plain product they fold in
        rng = np.random.default_rng(9)
        x, b = parameter(rng.normal(size=(7, 5))), parameter(rng.normal(size=6))
        w = parameter(rng.normal(size=(6, 5) if transposed else (5, 6)))
        w_ref = parameter(w.data.T.copy() if transposed else w.data.copy())
        x_ref, b_ref = parameter(x.data.copy()), parameter(b.data.copy())
        upstream = rng.normal(size=(4, 6))
        with Graph() as fused:
            out = linear(x, w, b, rows=rows, transposed=transposed)
            fused.backward(weighted_sum(out, upstream))
        with Graph() as g:
            ref = linear(gather_rows((x_ref, rows)), w_ref, b_ref)
            g.backward(weighted_sum(ref, upstream))
        assert len(fused) == 2 and out.data.tobytes() == ref.data.tobytes()  # one linear node, then the loss
        assert x.grad.tobytes() == x_ref.grad.tobytes() and b.grad.tobytes() == b_ref.grad.tobytes()
        np.testing.assert_array_equal(w.grad, w_ref.grad.T if transposed else w_ref.grad)

    def test_transposed_table_agrees_with_a_copy_of_its_transpose(self):
        # a transposed weight is multiplied as the view w.T; at this width BLAS
        # rounds that product differently from one with a C-ordered copy
        rng = np.random.default_rng(9)
        x, w = parameter(rng.normal(size=(16, 64))), parameter(rng.normal(size=(100, 64)))
        x_ref, w_ref = parameter(x.data.copy()), parameter(w.data.T.copy())
        upstream = rng.normal(size=(16, 100))
        with Graph() as g:
            out = linear(x, w, transposed=True)
            g.backward(weighted_sum(out, upstream))
        with Graph() as g:
            ref = linear(x_ref, w_ref)
            g.backward(weighted_sum(ref, upstream))
        np.testing.assert_allclose(out.data, ref.data, rtol=0, atol=1e-12)
        np.testing.assert_allclose(x.grad, x_ref.grad, rtol=0, atol=1e-12)
        np.testing.assert_allclose(w.grad, w_ref.grad.T, rtol=0, atol=1e-12)

    def test_bias_shape_error(self):
        with pytest.raises(ShapeError, match=r"bias shape \(3,\)"):
            linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))), Tensor(np.zeros(3)))

    def test_transposed_shape_error_names_the_weight_it_multiplies(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 3\)"):
            linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 4))), transposed=True)

    @pytest.mark.parametrize("rows", [[0, 3], [-1], slice(2, 4), np.array([3])])
    def test_rows_past_the_input_raise_as_a_gather_does(self, rows):
        x, w = Tensor(np.zeros((3, 2))), Tensor(np.zeros((2, 2)))
        with pytest.raises(IndexError) as raised:
            linear(x, w, rows=rows)
        assert str(raised.value) == "linear: id out of range [0, 3)"
        with pytest.raises(ShapeError, match="linear: ids must be a list"):
            linear(x, w, rows=[[0]])


class TestSoftmaxRows:
    def test_symmetry(self):
        out = softmax(np.array([[0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(out, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-15)

    @pytest.mark.parametrize("c", [-5.0, 0.0, 100.0, 1e8])
    def test_exp_ratio(self, c):
        out = softmax(np.array([[c, c + math.log(2.0)]]))
        np.testing.assert_allclose(out, [[1 / 3, 2 / 3]], atol=1e-12)

    def test_masked_slot_weight_underflows(self):
        out = softmax(np.array([[0.5, -1e9, 0.1]]))
        assert out[0, 1] < 1e-300

    def test_rows_sum_to_one_and_shift_invariant(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = rng.normal(scale=5.0, size=(rng.integers(1, 6), rng.integers(1, 6)))
            y = softmax(x)
            np.testing.assert_allclose(y.sum(axis=1), 1.0, atol=1e-12)
            assert np.all(y >= 0.0)
            per_row_shift = rng.normal(scale=10.0, size=(x.shape[0], 1))
            shifted = softmax(x + per_row_shift)
            np.testing.assert_allclose(y, shifted, atol=1e-12)


def norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """layer_norm with a zero residual branch: the plain normalization of x."""
    return layer_norm(x, Tensor(np.zeros_like(x.data)), gamma, beta, eps=eps)


class TestLayerNorm:
    def test_constant_row_collapses_to_beta(self):
        x = Tensor([[4.0, 4.0, 4.0]])
        out = norm(x, Tensor(np.ones(3)), Tensor(np.zeros(3)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)
        out5 = norm(x, Tensor(np.ones(3)), Tensor([5.0, 5.0, 5.0]))
        np.testing.assert_allclose(out5.data, 5.0, atol=1e-12)

    def test_hand_mean_variance(self):
        out = norm(Tensor([[1.0, 3.0]]), Tensor(np.ones(2)), Tensor(np.zeros(2)), eps=1e-12)
        np.testing.assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-9)

    def test_normalizes_nonconstant_rows(self):
        rng = np.random.default_rng(11)
        x = rng.normal(scale=3.0, size=(8, 16))
        out = norm(Tensor(x), Tensor(np.ones(16)), Tensor(np.zeros(16)), eps=1e-10).data
        assert np.all(np.abs(out.mean(axis=1)) <= 1e-10)
        np.testing.assert_allclose(out.var(axis=1), 1.0, atol=1e-6)

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ContractError):
            norm(Tensor([[1.0, 2.0]]), Tensor(np.ones(2)), Tensor(np.zeros(2)), eps=0.0)

    @pytest.mark.parametrize("rate", [0.0, 1.0, float("nan")])
    def test_a_keep_mask_without_its_rate_is_rejected(self, rate):
        # the default rate 0 would apply the mask unscaled
        x, keep = Tensor(np.zeros((2, 3))), np.ones((2, 3), dtype=bool)
        with pytest.raises(ContractError, match=r"^layer_norm: a keep mask needs its dropout rate in \(0, 1\), got"):
            layer_norm(x, x, Tensor(np.ones(3)), Tensor(np.zeros(3)), keep, rate=rate)

    def test_rate_eps_and_rows_are_keyword_only(self):
        # a positional eps would otherwise land on rate, and be ignored with no mask
        x, gamma, beta = Tensor(np.zeros((2, 3))), Tensor(np.ones(3)), Tensor(np.zeros(3))
        with pytest.raises(TypeError):
            layer_norm(x, x, gamma, beta, None, 1e-12)

    def test_normalizes_the_residual_sum_bit_for_bit(self):
        # x + sub * keep / (1 - rate), in that order, then the plain normalization
        rng = np.random.default_rng(12)
        x, sub = rng.normal(size=(5, 6)), rng.normal(size=(5, 6))
        keep = dropout(Tensor(sub), 0.3, np.random.default_rng(4), True)
        gamma, beta = Tensor(rng.normal(size=6)), Tensor(rng.normal(size=6))
        masked = layer_norm(Tensor(x), Tensor(sub), gamma, beta, keep, rate=0.3).data
        np.testing.assert_array_equal(masked, norm(Tensor(x + sub * (keep / (1 - 0.3))), gamma, beta).data)
        unmasked = layer_norm(Tensor(x), Tensor(sub), gamma, beta).data
        np.testing.assert_array_equal(unmasked, norm(Tensor(x + sub), gamma, beta).data)

    def test_gamma_that_does_not_fit_the_width_rejected(self):
        with pytest.raises(ShapeError, match=re.escape("gamma/beta shapes (2,)/(3,) do not fit width 3")):
            layer_norm(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))), Tensor(np.ones(2)), Tensor(np.zeros(3)))

    def test_residual_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError, match="residual"):
            layer_norm(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 3))), Tensor(np.ones(3)), Tensor(np.zeros(3)))

    @pytest.mark.parametrize("rows", [[4, 0, 4], np.array([1, 3, 2]), slice(2, 5)], ids=["list", "array", "slice"])
    def test_rows_equal_a_gather_then_the_norm_bit_for_bit(self, rows):
        # the forward and the gradients of x and sub equal those of the gather it folds in
        rng = np.random.default_rng(13)
        x, sub = rng.normal(size=(6, 4)), rng.normal(size=(3, 4))
        gamma, beta = Tensor(rng.normal(size=4)), Tensor(rng.normal(size=4))
        upstream = rng.normal(size=(3, 4))

        def run(fused):
            inputs = parameter(x.copy()), parameter(sub.copy())
            with Graph() as g:
                if fused:
                    out = layer_norm(*inputs, gamma, beta, rows=rows)
                else:
                    out = layer_norm(gather_rows((inputs[0], rows)), inputs[1], gamma, beta)
                g.backward(weighted_sum(out, upstream))
            return out.data, *(t.grad for t in inputs)

        for got, expected in zip(run(True), run(False)):
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("rows", [[0, 3], [-1], slice(2, 4), np.array([3])])
    def test_rows_past_the_input_raise_as_a_gather_does(self, rows):
        with pytest.raises(IndexError) as raised:
            layer_norm(Tensor(np.zeros((3, 2))), Tensor(np.zeros((2, 2))), Tensor(np.ones(2)), Tensor(np.zeros(2)), rows=rows)
        assert str(raised.value) == "layer_norm: id out of range [0, 3)"


def relu(x: Tensor) -> Tensor:
    """ffn's activation alone: identity projections and zero biases around it."""
    eye, zeros = Tensor(np.eye(x.data.shape[1])), Tensor(np.zeros(x.data.shape[1]))
    return ffn(x, eye, zeros, eye, zeros)


class TestRelu:
    def test_definition(self):
        out = relu(Tensor([[-1.0, 0.0, 2.0]]))
        assert np.array_equal(out.data, [[0.0, 0.0, 2.0]])

    def test_all_negative_and_all_positive(self):
        assert np.array_equal(relu(Tensor([[-3.0, -0.5]])).data, [[0.0, 0.0]])
        x = np.array([[0.5, 3.0]])
        assert np.array_equal(relu(Tensor(x)).data, x)


def _ffn_inputs(rng, n, d=4, d_ff=6, d_out=3, margin=0.05):
    """x, w1, b1, w2, b2 whose pre-activations all lie at least margin from
    the ReLU kink, so finite differences never cross it."""
    while True:
        x, w1 = rng.normal(size=(n, d)), rng.normal(size=(d, d_ff))
        b1 = rng.normal(size=d_ff)
        if np.abs(x @ w1 + b1).min() >= margin:
            return x, w1, b1, rng.normal(size=(d_ff, d_out)), rng.normal(size=d_out)


class TestFfn:
    @pytest.mark.parametrize("n", [1, 3, 7])
    def test_gradcheck_all_five_inputs(self, n):
        rng = np.random.default_rng(100 + n)
        params = dict(zip(("x", "w1", "b1", "w2", "b2"), map(parameter, _ffn_inputs(rng, n))))
        weights = rng.normal(size=(n, 3))  # a non-uniform upstream gradient
        checked = check_gradients(lambda: weighted_sum(ffn(*params.values()), weights), params, rng, probes=60)
        assert checked == 60

    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_matches_plain_numpy(self, n):
        rng = np.random.default_rng(200 + n)
        x, w1, b1, w2, b2 = _ffn_inputs(rng, n)
        upstream = rng.normal(size=(n, 3))
        tensors = [parameter(a) for a in (x, w1, b1, w2, b2)]
        with Graph() as g:
            out = ffn(*tensors)
            g.backward(weighted_sum(out, upstream))
        pre = x @ w1 + b1
        hidden = np.where(pre > 0.0, pre, 0.0)
        d_pre = (upstream @ w2.T) * (pre > 0.0)
        expected = [d_pre @ w1.T, x.T @ d_pre, d_pre.sum(axis=0), hidden.T @ upstream, upstream.sum(axis=0)]
        np.testing.assert_allclose(out.data, hidden @ w2 + b2, rtol=0, atol=1e-12)
        for t, want in zip(tensors, expected):
            np.testing.assert_allclose(t.grad, want, rtol=0, atol=1e-12)

    def test_shape_mismatch_rejected(self):
        x, w1, b1, w2, b2 = (Tensor(a) for a in _ffn_inputs(np.random.default_rng(1), 2))
        with pytest.raises(ShapeError):
            ffn(x, w2, b1, w2, b2)
        with pytest.raises(ShapeError):
            ffn(x, w1, b2, w2, b2)


class TestCrossEntropy:
    def test_uniform_logits(self):
        loss = cross_entropy(Tensor([[1.0, 1.0, 1.0]]), [2])
        assert loss.item() == pytest.approx(math.log(3.0), abs=1e-12)

    def test_confident_logit(self):
        loss = cross_entropy(Tensor([[10.0, 0.0, 0.0]]), [0])
        assert loss.item() < 1e-4

    def test_weighted_single_sample(self):
        loss = cross_entropy(Tensor([[0.0, 0.0, 0.0]]), [0], weights=[2.0, 1.0, 1.0])
        assert loss.item() == pytest.approx(2.0 * math.log(3.0), abs=1e-12)

    def test_target_out_of_range(self):
        with pytest.raises(IndexError):
            cross_entropy(Tensor([[0.0, 0.0, 0.0]]), [3])

    @pytest.mark.parametrize(
        "batch, targets, weights, message",
        [
            (0, [], None, "empty batch"),
            (2, [0], None, "expected 2 targets"),
            (2, [[0, 1]], None, "expected 2 targets"),
            (2, [0, 1], [1.0, 1.0], "need 3 class weights"),
            (2, [0, 1], [1.0, 0.0, 1.0], "must be positive"),
            (2, [0, 1], [1.0, -2.0, 1.0], "must be positive"),
        ],
        ids=["empty-batch", "too-few-targets", "targets-not-1d", "two-weights", "zero-weight", "negative-weight"],
    )
    def test_rejects_a_batch_targets_or_weights_that_do_not_fit(self, batch, targets, weights, message):
        with pytest.raises(ContractError, match=message):
            cross_entropy(Tensor(np.zeros((batch, 3))), targets, weights)

    def test_mean_over_batch(self):
        logits = Tensor([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0]])
        loss = cross_entropy(logits, [1, 0])
        single = cross_entropy(Tensor([[0.0, 0.0, 0.0]]), [1]).item()
        other = cross_entropy(Tensor([[10.0, 0.0, 0.0]]), [0]).item()
        assert loss.item() == pytest.approx((single + other) / 2.0, rel=1e-12)

    def test_doubling_class_weight_doubles_its_logit_gradient(self):
        rng = np.random.default_rng(5)
        raw = rng.normal(size=(6, 3))
        targets = [0, 1, 2, 0, 1, 2]

        def grad_with(weights):
            logits = parameter(raw.copy())
            with Graph() as g:
                g.backward(cross_entropy(logits, targets, weights))
            return logits.grad

        base = grad_with([1.0, 1.0, 1.0])
        bumped = grad_with([2.0, 1.0, 1.0])
        class0 = [i for i, t in enumerate(targets) if t == 0]
        rest = [i for i, t in enumerate(targets) if t != 0]
        np.testing.assert_allclose(bumped[class0], 2.0 * base[class0], atol=1e-12)
        np.testing.assert_allclose(bumped[rest], base[rest], atol=1e-12)
        assert np.linalg.norm(bumped[class0]) > np.linalg.norm(base[class0])


class TestBackward:
    def test_sum_gradient_is_ones(self):
        w = parameter(np.arange(6.0).reshape(2, 3))
        with Graph() as g:
            g.backward(sum_all(w))
        assert np.array_equal(w.grad, np.ones((2, 3)))

    def test_quadratic_gradient(self):
        w = parameter([[1.0, 2.0]])
        with Graph() as g:
            g.backward(sum_all(linear(w, w, transposed=True)))  # w w^T = sum of squares
        assert np.array_equal(w.grad, [[2.0, 4.0]])

    def test_recorded_outputs_need_a_gradient_and_give_it_back(self):
        # requires_grad is the one flag: set on every recorded output, freed there by the walk
        w = parameter([[1.0, 2.0]])
        with Graph() as g:
            hidden = linear(w, w, transposed=True)
            loss = sum_all(hidden)
        assert hidden.requires_grad and loss.requires_grad
        g.backward(loss)
        assert hidden.grad is None and loss.grad is None
        assert np.array_equal(w.grad, [[2.0, 4.0]])

    def test_nonscalar_loss_rejected(self):
        # alone or among several, before any loss is seeded
        w = parameter([[1.0, 2.0]])
        with Graph() as g:
            scalar, out = sum_all(w), linear(w, Tensor(np.eye(2)))
            for losses in ((out,), (scalar, out), (out, scalar)):
                with pytest.raises(ContractError, match="scalar loss"):
                    g.backward(*losses)
        assert scalar.grad is None and w.grad is None

    def test_several_losses_backpropagate_their_sum(self):
        # one walk seeded at both losses against float64 central differences of l1 + l2
        rng = np.random.default_rng(17)
        a, b = parameter(rng.normal(size=(3, 4))), parameter(rng.normal(size=(4, 2)))
        upstream = rng.normal(size=(3, 2))

        def losses():  # a feeds both losses, b only the first
            return weighted_sum(linear(a, b), upstream), cross_entropy(a, [0, 1, 3])

        with Graph() as g:
            g.backward(*losses())
        for p in (a, b):
            for idx in range(p.data.size):
                analytic = float(p.grad.flat[idx])
                numeric = numerical_grad(lambda: sum(loss.item() for loss in losses()), p, idx)
                bound = 1e-4 * max(abs(analytic), abs(numeric)) if abs(analytic) >= 1e-4 else 1e-7
                assert abs(analytic - numeric) <= bound, (idx, analytic, numeric)

    def test_gradients_accumulate_across_uses(self):
        w = parameter([[3.0]])
        with Graph() as g:
            g.backward(sum_all(linear(w, w)))  # w is both the input and the weight
        assert np.array_equal(w.grad, [[6.0]])

    def test_gradient_arrays_are_not_shared(self):
        # layer_norm's backward hands one d_z to x and sub when keep is None;
        # what sub takes in afterwards must not reach x's gradient
        rng = np.random.default_rng(3)
        a, b = parameter(rng.normal(size=(2, 3))), parameter(rng.normal(size=(2, 3)))
        gamma, beta, w = Tensor(rng.normal(size=3)), Tensor(rng.normal(size=3)), Tensor(rng.normal(size=(3, 3)))
        upstream = rng.normal(size=(2, 3))

        def grads(*extra):
            a.grad = b.grad = None
            with Graph() as g:
                again = linear(b, w)  # recorded first: its backward adds to b's gradient after layer_norm's
                g.backward(weighted_sum(layer_norm(a, b, gamma, beta), upstream), *(sum_all(again) for _ in extra))
            return a.grad, b.grad

        a_alone, b_alone = grads()
        a_both, b_both = grads("again")
        assert np.array_equal(a_alone, b_alone) and np.array_equal(a_both, a_alone)
        assert not np.array_equal(b_both, b_alone)

    def test_no_recording_without_graph(self):
        w = parameter([[1.0, 2.0]])
        out = linear(w, w, transposed=True)
        assert not out.requires_grad and w.grad is None

    def test_a_graph_records_only_its_own_threads_ops(self):
        # a thread that never opened a Graph reads the class default, not another thread's
        w = parameter([[1.0, 2.0]])
        with Graph() as g:
            with concurrent.futures.ThreadPoolExecutor(max_workers=1) as pool:
                other = pool.submit(lambda: (tensor._active.graph, linear(w, w, transposed=True))).result()
            mine = linear(w, w, transposed=True)
        assert other[0] is None and not other[1].requires_grad
        assert mine.requires_grad and len(g) == 1 and tensor._active.graph is None

    def test_the_walk_frees_each_node_before_the_next_runs(self):
        # a walked node's closure, and the arrays it saved, are freed before the node recorded before it runs
        w = parameter([[1.0, 2.0]])
        saved, freed = [], []

        def total(x):  # x's sum, as a node whose backward reads an array that only its closure holds
            one = np.ones(1)
            saved.append(weakref.ref(one))
            out = Tensor(x.data.sum())

            def backward(grad):
                freed.append([ref() is None for ref in saved])
                tensor._accumulate(x, np.full_like(x.data, float(grad) * one[0]))

            tensor._record(out, backward, x)
            return out

        with Graph() as g:
            loss = total(total(total(w)))
        g.backward(loss)
        assert freed == [[False, False, False], [False, False, True], [False, True, True]]
        assert all(ref() is None for ref in saved) and len(g) == 3
        assert np.array_equal(w.grad, [[1.0, 1.0]])

    def test_a_walked_graph_is_not_walked_or_recorded_on_again(self):
        # recording ends with the walk; a second backward, or a second recording, names the reuse
        w = parameter([[1.0, 2.0]])
        with Graph() as g:
            loss = sum_all(linear(w, w, transposed=True))
            g.backward(loss)
            after = linear(w, w, transposed=True)  # computed eagerly, as outside the block
        assert not after.requires_grad and tensor._active.graph is None and len(g) == 2
        with pytest.raises(ContractError, match="walked already.*reuse needs a new Graph"):
            g.backward(loss)
        with pytest.raises(ContractError, match="walked by backward.*record on a new Graph"):
            with g:
                pass
        assert tensor._active.graph is None and np.array_equal(w.grad, [[2.0, 4.0]])


# per op: a function of its tensor inputs, and their arrays; each input in turn is made the constant
_OP_INPUTS = {
    "linear": (lambda x, w, b: linear(x, w, b, rows=[2, 0, 2]), ((3, 4), (4, 5), (5,))),
    "ffn": (ffn, ((3, 4), (4, 6), (6,), (6, 3), (3,))),
    "layer_norm": (
        lambda x, sub, gamma, beta: layer_norm(
            x, sub, gamma, beta, np.array([[True], [False], [True]]), rate=0.5, rows=[1, 2, 1]
        ),
        ((3, 4), (3, 4), (4,), (4,)),
    ),
    "attention": (lambda x, wqkv, wo: attention(x, wqkv, wo, plan(2, 1), 2), ((3, 4), (4, 12), (4, 4))),
    "attend": (lambda x, wqkv, wo: attend(x, wqkv, wo, plan(2, 1), 2, [2, 0, 1]), ((3, 4), (4, 12), (4, 4))),
    "cross_entropy": (lambda logits: cross_entropy(logits, [0, 2, 1]), ((3, 3),)),
    "gather_rows": (lambda a, e: gather_rows((a, [2, 0, 2]), (e, [1, 1, 0])), ((3, 4), (2, 4))),
}


@pytest.mark.parametrize(
    "op, constant", [(op, i) for op, (_, shapes) in _OP_INPUTS.items() for i in range(len(shapes))]
)
def test_a_constant_input_gets_no_gradient_and_changes_no_other(op, constant):
    # the gate in _accumulate: every backward computes all its inputs' gradients
    fn, shapes = _OP_INPUTS[op]
    rng = np.random.default_rng(37)
    arrays = [rng.normal(size=shape) for shape in shapes]
    upstream = rng.normal(size=fn(*map(Tensor, arrays)).data.shape)

    def grads(constant):
        inputs = [Tensor(a.copy()) if i == constant else parameter(a.copy()) for i, a in enumerate(arrays)]
        with Graph() as g:
            g.backward(weighted_sum(fn(*inputs), upstream))
        return [t.grad for t in inputs]

    reference, got = grads(None), grads(constant)
    assert got[constant] is None
    for i, (grad, expected) in enumerate(zip(got, reference)):
        assert i == constant or np.array_equal(grad, expected), i


# per op taking row ids or targets: a call on two of them
_ID_OPS = {
    "linear": lambda ids: linear(Tensor(np.ones((3, 2))), Tensor(np.ones((2, 2))), rows=ids),
    "layer_norm": lambda ids: layer_norm(
        Tensor(np.ones((3, 2))), Tensor(np.ones((2, 2))), Tensor(np.ones(2)), Tensor(np.zeros(2)), rows=ids
    ),
    "gather_rows": lambda ids: gather_rows((Tensor(np.ones((3, 2))), ids)),
    "attend": lambda ids: attend(
        Tensor(np.ones((3, 2))), Tensor(np.ones((2, 6))), Tensor(np.ones((2, 2))), plan(1, 2), 1, ids
    ),
    "cross_entropy": lambda ids: cross_entropy(Tensor(np.ones((2, 3))), ids),
}


@pytest.mark.parametrize(
    "ids", [[1.9, 0.2], np.array([0.7, 2.2]), [True, False], np.array([True, False]), ["1", "0"]],
    ids=["float-list", "float-array", "bool-list", "bool-array", "string"],
)
@pytest.mark.parametrize("op", list(_ID_OPS))
def test_row_ids_and_targets_that_are_not_integers_are_a_contract_error(op, ids):
    # numpy would cast a float or bool id to an integer and read that row
    with pytest.raises(ContractError, match=f"^{op}: expected integer ids, got "):
        _ID_OPS[op](ids)


@pytest.mark.parametrize("op", ["linear", "gather_rows", "attend"])
def test_an_empty_id_list_reads_no_row(op):
    assert _ID_OPS[op]([]).data.shape == (0, 2)


def test_a_loss_no_recorded_op_produced_gets_no_gradient():
    # backward seeds each loss through the gate: a constant loss is left as it is
    loss = Tensor(3.0)
    with Graph() as g:
        g.backward(loss)
    assert loss.grad is None and len(g) == 0


def test_only_the_tensor_core_reads_requires_grad():
    """The gradient flag is read where it is set (Tensor, parameter, _record)
    and at the one gate (_accumulate): no backward closure tests it."""
    allowed = {"Tensor", "parameter", "_record", "_accumulate"}
    package = Path(__file__).resolve().parents[1] / "src" / "sentibert"
    found = []
    for source in sorted(package.glob("*.py")):
        for top in ast.parse(source.read_text(encoding="utf-8")).body:
            owner = getattr(top, "name", "<module>")
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute) and node.attr == "requires_grad" and owner not in allowed:
                    found.append(f"{source.name}:{node.lineno}: in {owner}")
    assert not found, "\n".join(found)


class TestGradientsAgainstFiniteDifferences:
    def test_primitive_ops(self):
        rng = np.random.default_rng(42)
        a = parameter(rng.normal(size=(3, 4)))
        b = parameter(rng.normal(size=(4, 2)))
        c = parameter(rng.normal(size=(3, 2)))
        e = parameter(rng.normal(size=(3, 4)))
        bias = parameter(rng.normal(size=2))
        gamma = parameter(rng.normal(size=4) + 1.5)
        beta = parameter(rng.normal(size=4))
        w32, w34, w42 = (rng.normal(size=shape) for shape in ((3, 2), (3, 4), (4, 2)))
        gamma2, beta2 = parameter(rng.normal(size=2) + 1.5), parameter(rng.normal(size=2))
        cases = {
            "linear": (lambda: weighted_sum(linear(a, b), w32), {"a": a, "b": b}),
            "residual": (
                lambda: weighted_sum(layer_norm(c, linear(a, b), gamma2, beta2), w32),
                {"a": a, "b": b, "c": c, "gamma2": gamma2, "beta2": beta2},
            ),
            "linear_bias": (lambda: weighted_sum(linear(a, b, bias), w32), {"a": a, "b": b, "bias": bias}),
            "linear_ids": (lambda: weighted_sum(linear(a, b, bias, rows=[2, 0, 2]), w32), {"a": a, "b": b, "bias": bias}),
            "linear_slice": (lambda: weighted_sum(linear(a, b, rows=slice(1, 3)), w32[:2]), {"a": a, "b": b}),
            "linear_transposed": (lambda: weighted_sum(linear(c, b, rows=[1, 2], transposed=True), w34[:2]), {"b": b, "c": c}),
            "layer_norm": (lambda: weighted_sum(layer_norm(a, e, gamma, beta), w34), {"a": a, "e": e, "gamma": gamma, "beta": beta}),
            "layer_norm_rows": (
                lambda: weighted_sum(layer_norm(a, e, gamma, beta, rows=[2, 0, 2]), w34),
                {"a": a, "e": e, "gamma": gamma, "beta": beta},
            ),
            "cross_entropy": (lambda: cross_entropy(a, [0, 1, 0], weights=[1.5, 1.0, 0.5, 2.0]), {"a": a}),
            "gather": (lambda: weighted_sum(gather_rows((a, [2, 0, 2])), w34), {"a": a}),
        }
        for name, (build, params) in cases.items():
            checked = check_gradients(build, params, rng, probes=25)
            assert checked == 25, name

    def test_relu_away_from_kink(self):
        rng = np.random.default_rng(9)
        raw = rng.normal(size=(4, 5))
        raw[np.abs(raw) < 1e-3] = 0.3  # keep probes off the kink
        x = parameter(raw)
        upstream = rng.normal(size=(4, 5))
        check_gradients(lambda: weighted_sum(relu(x), upstream), {"x": x}, rng, probes=30)

    def test_dropout_with_fixed_mask(self):
        # the mask reaches the gradient through the residual layer norm: dropped
        # slots of the branch get exactly zero, kept ones d_z / (1 - rate)
        rng = np.random.default_rng(21)
        x, sub = parameter(rng.normal(size=(4, 6))), parameter(rng.normal(size=(4, 6)))
        gamma, beta = Tensor(rng.normal(size=6) + 1.5), Tensor(rng.normal(size=6))
        keep = dropout(sub, 0.4, np.random.default_rng(123), True)
        upstream = rng.normal(size=(4, 6))
        assert not keep.all()

        def build():
            return weighted_sum(layer_norm(x, sub, gamma, beta, keep, rate=0.4), upstream)

        check_gradients(build, {"x": x, "sub": sub}, rng, probes=25)
        with Graph() as g:
            g.backward(build())
        np.testing.assert_array_equal(sub.grad, x.grad * (keep / (1 - 0.4)))

    @pytest.mark.parametrize("masked", [False, True], ids=["keep-none", "fixed-mask"])
    @pytest.mark.parametrize("shared", [False, True], ids=["distinct", "x-is-sub"])
    def test_residual_layer_norm(self, masked, shared):
        rng = np.random.default_rng(31)
        x = parameter(rng.normal(size=(4, 6)))
        sub = x if shared else parameter(rng.normal(size=(4, 6)))
        gamma, beta = parameter(rng.normal(size=6) + 1.5), parameter(rng.normal(size=6))
        keep = dropout(x, 0.4, np.random.default_rng(123), True) if masked else None
        upstream = rng.normal(size=(4, 6))
        params = {"x": x, "gamma": gamma, "beta": beta}
        if not shared:
            params["sub"] = sub
        build = lambda: weighted_sum(layer_norm(x, sub, gamma, beta, keep, rate=0.4), upstream)
        assert check_gradients(build, params, rng, probes=40) == 40

    def test_multi_table_gather(self):
        # repeated ids within a table, and table a passed as the first and the third pair
        rng = np.random.default_rng(33)
        a, e = parameter(rng.normal(size=(3, 4))), parameter(rng.normal(size=(5, 4)))
        upstream = rng.normal(size=(4, 4))
        build = lambda: weighted_sum(gather_rows((a, [2, 0, 2, 2]), (e, [4, 4, 1, 0]), (a, [0, 0, 1, 2])), upstream)
        assert check_gradients(build, {"a": a, "e": e}, rng, probes=40) == 40
        with Graph() as g:
            g.backward(build())
        expected_a = np.zeros((3, 4))
        for ids in ([2, 0, 2, 2], [0, 0, 1, 2]):
            np.add.at(expected_a, ids, upstream)
        np.testing.assert_allclose(a.grad, expected_a, atol=1e-12, rtol=0)

    @pytest.mark.parametrize("kind", ["repeated", "random", "distinct", "empty"])
    def test_gather_backward_is_the_scatter_add_sum(self, kind):
        # the backward sums the grad rows of each id by a sorted segment sum;
        # an np.add.at scatter-add is the reference, within rounding
        rng = np.random.default_rng(34)
        ids = {
            "repeated": [5, 5, 0, 5, 60, 0, 5],
            "random": rng.integers(0, 61, size=480).tolist(),
            "distinct": rng.permutation(61)[:20].tolist(),
            "empty": [],
        }[kind]
        table = parameter(rng.normal(size=(61, 7)))
        upstream = rng.normal(size=(len(ids), 7))
        with Graph() as g:
            g.backward(weighted_sum(gather_rows((table, ids)), upstream))
        expected = np.zeros((61, 7))
        np.add.at(expected, np.asarray(ids, dtype=np.int64), upstream)
        np.testing.assert_allclose(table.grad, expected, atol=1e-12, rtol=0)


class TestGatherSlices:
    """A one-sequence plan hands gather_rows its contiguous rows as a slice."""

    @staticmethod
    def _run(pairs_of, upstream):
        # pairs_of(tables) -> the (table, ids) pairs; returns the output and each table's gradient
        rng = np.random.default_rng(35)
        tables = [parameter(rng.normal(size=(9, 5))), parameter(rng.normal(size=(2, 5)))]
        with Graph() as g:
            out = gather_rows(*pairs_of(tables))
            g.backward(weighted_sum(out, upstream))
        return out.data, [t.grad for t in tables]

    @pytest.mark.parametrize("start, stop", [(0, 4), (3, 7), (5, 9), (2, 2)])
    def test_slice_equals_the_index_array_bit_for_bit(self, start, stop):
        upstream = np.random.default_rng(36).normal(size=(stop - start, 5))
        segments = [i % 2 for i in range(stop - start)]
        for pairs_of in (
            lambda ids: lambda t: [(t[0], ids)],  # alone: the output must not be a view of the table
            lambda ids: lambda t: [(t[1], segments), (t[0], ids)],  # added to another pair, as embed does
        ):
            out, grads = self._run(pairs_of(slice(start, stop)), upstream)
            ref_out, ref_grads = self._run(pairs_of(np.arange(start, stop)), upstream)
            assert out.tobytes() == ref_out.tobytes()
            for grad, ref in zip(grads, ref_grads):
                assert (grad is None) == (ref is None) and (grad is None or grad.tobytes() == ref.tobytes())

    def test_output_does_not_alias_the_table(self):
        table = Tensor(np.arange(12.0).reshape(4, 3))
        out = gather_rows((table, slice(1, 3)))
        out.data[:] = -1.0
        np.testing.assert_array_equal(table.data, np.arange(12.0).reshape(4, 3))

    @pytest.mark.parametrize("start, stop", [(6, 10), (0, 10), (9, 10)])
    def test_slice_past_the_table_raises_as_the_ids_do(self, start, stop):
        table = Tensor(np.zeros((9, 5)))
        with pytest.raises(IndexError) as by_slice:
            gather_rows((table, slice(start, stop)))
        with pytest.raises(IndexError) as by_ids:
            gather_rows((table, list(range(start, stop))))
        assert str(by_slice.value) == str(by_ids.value) == "gather_rows: id out of range [0, 9)"


class TestDropout:
    def test_inactive_paths_identity(self):
        # no mask: the residual layer norm keeps the whole branch
        x = Tensor(np.ones((2, 2)))
        rng = np.random.default_rng(0)
        assert dropout(x, 0.0, rng, True) is None
        assert dropout(x, 0.5, rng, False) is None
        assert rng.random() == np.random.default_rng(0).random()  # no draw was taken

    def test_inverted_scaling_preserves_mean(self):
        # what the residual layer norm adds to x: the kept slots scaled by 1 / (1 - rate)
        keep = dropout(Tensor(np.ones((200, 200))), 0.25, np.random.default_rng(0), True)
        out = tensor._masked(np.ones((200, 200)), keep, 0.25)
        np.testing.assert_array_equal(np.unique(out), [0.0, 1.0 / 0.75])
        assert abs(out.mean() - 1.0) < 0.02

    def test_mask_is_one_uniform_draw_per_slot(self):
        keep = dropout(Tensor(np.zeros((3, 5))), 0.4, np.random.default_rng(8), True)
        expected = np.random.default_rng(8).random((3, 5)) >= 0.4
        assert keep.dtype == np.bool_ and keep.itemsize == 1
        np.testing.assert_array_equal(keep, expected)

    @pytest.mark.parametrize("rate", [0.05, 0.1, 0.2, 0.25, 1 / 3, 0.4, 0.5, 0.7, 0.9, 0.999])
    def test_mask_equals_the_division_form_bit_for_bit(self, rate):
        # layer_norm scales the one-byte mask's kept slots by 1 / (1 - rate): its
        # masked residual, and the gradient it hands sub, are bit for bit what
        # the float mask (u >= rate) / (1 - rate) gives
        rng = np.random.default_rng(10)
        x, sub = parameter(rng.normal(size=(535, 64))), parameter(rng.normal(size=(535, 64)))
        upstream = rng.normal(size=(535, 64))
        gamma, beta = Tensor(rng.normal(size=64)), Tensor(rng.normal(size=64))
        keep = dropout(sub, rate, np.random.default_rng(9), True)
        division = (np.random.default_rng(9).random((535, 64)) >= rate) / (1.0 - rate)
        with Graph() as g:
            out = layer_norm(x, sub, gamma, beta, keep, rate=rate)
            g.backward(weighted_sum(out, upstream))
        residual = Tensor(sub.data * division)
        assert layer_norm(x, residual, gamma, beta).data.tobytes() == out.data.tobytes()
        assert tensor._masked(sub.data, keep, rate).tobytes() == (sub.data * division).tobytes()
        assert sub.grad.tobytes() == (x.grad * division).tobytes()

    def test_bad_rate_rejected(self):
        with pytest.raises(ContractError):
            dropout(Tensor([[1.0]]), 1.0, np.random.default_rng(0), True)


class TestOptimizers:
    def test_sgd_definition(self):
        w = parameter([1.0])
        w.grad = np.array([2.0])
        SGD({"w": w}, lr=0.1).step()
        np.testing.assert_allclose(w.data, [0.8], atol=1e-15)
        assert w.grad is None

    @pytest.mark.parametrize("magnitude", [1e-4, 1.0, 1e4])
    def test_adam_first_step_magnitude_is_lr(self, magnitude):
        w = parameter([1.0])
        w.grad = np.array([magnitude])
        Adam({"w": w}, lr=1e-3).step()
        # bias-corrected first step: lr * g / (|g| + eps) ~ lr * sign(g)
        assert abs((1.0 - w.data[0]) - 1e-3) < 1e-6

    def test_zero_gradient_leaves_parameters_unchanged(self):
        w = parameter([3.0, -2.0])
        for opt in (SGD({"w": w}, lr=0.5), Adam({"w": w}, lr=0.5)):
            w.grad = np.zeros(2)
            opt.step()
            np.testing.assert_array_equal(w.data, [3.0, -2.0])

    def test_missing_gradient_is_contract_error(self):
        w = parameter([1.0])
        with pytest.raises(ContractError, match="'w'"):
            Adam({"w": w}).step()

    def test_adam_matches_hand_recurrence(self):
        w = parameter([1.0])
        opt = Adam({"w": w}, lr=0.01)
        m = v = 0.0
        x = 1.0
        for t in range(1, 6):
            g = 2.0 * x  # d/dx of x^2 evaluated at the tracked value
            w.grad = np.array([2.0 * w.data[0]])
            opt.step()
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            x -= 0.01 * (m / (1 - 0.9**t)) / (math.sqrt(v / (1 - 0.999**t)) + 1e-8)
            assert w.data[0] == pytest.approx(x, abs=1e-12)

    def test_adam_follows_the_textbook_recurrence(self):
        # unscaled moments and explicit bias corrections, one coordinate at a time;
        # gradients span 1e-6..1e3, even coordinates flip sign every step, odd ones at
        # random, and the last 8 coordinates never see a gradient
        rng = np.random.default_rng(11)
        magnitude = np.concatenate([np.logspace(-6, 3, 56), np.zeros(8)])
        start = np.linspace(1.0, 2.0, 64)
        w = parameter(start.copy())
        opt = Adam({"w": w}, lr=1e-3)
        m, v, x = [0.0] * 64, [0.0] * 64, list(start)
        for t in range(1, 201):
            sign = np.where(np.arange(64) % 2 == 0, (-1.0) ** t, rng.choice([-1.0, 1.0], size=64))
            g = magnitude * sign * rng.uniform(0.5, 1.5, size=64)
            w.grad = g.copy()
            opt.step()
            for i in range(64):
                m[i] = 0.9 * m[i] + 0.1 * g[i]
                v[i] = 0.999 * v[i] + 0.001 * g[i] * g[i]
                x[i] -= 1e-3 * (m[i] / (1 - 0.9**t)) / (math.sqrt(v[i] / (1 - 0.999**t)) + 1e-8)
            np.testing.assert_allclose(w.data, x, rtol=1e-10, atol=0)
        np.testing.assert_array_equal(w.data[56:], start[56:])  # M = V = 0: a zero update

    def test_algorithm_dispatch(self):
        w = parameter([1.0])
        assert isinstance(OPTIMIZERS["sgd"]({"w": w}, 1e-3), SGD)
        assert isinstance(OPTIMIZERS["adam"]({"w": w}, 1e-3), Adam)


class TestTensorBasics:
    def test_item_needs_a_scalar(self):
        assert Tensor([[2.5]]).item() == 2.5
        with pytest.raises(ContractError, match=re.escape("item() needs a scalar tensor, got shape (2,)")):
            Tensor([1.0, 2.0]).item()

    def test_repr_names_a_named_parameter(self):
        assert repr(tensor.parameter(np.zeros((2, 3)), name="wo")) == "Tensor 'wo'(shape=(2, 3), requires_grad=True)"
        assert repr(Tensor(np.zeros(4))) == "Tensor(shape=(4,), requires_grad=False)"


class TestDeterminismAndFiniteness:
    def test_identical_inputs_identical_outputs(self):
        def run():
            rng = np.random.default_rng(77)
            x = Tensor(rng.normal(size=(5, 8)))
            g = Tensor(np.ones(8))
            b = Tensor(np.zeros(8))
            return norm(Tensor(softmax(x.data)), g, b).data

        assert np.array_equal(run(), run())

    def test_outputs_finite_on_finite_inputs(self):
        rng = np.random.default_rng(13)
        x = Tensor(rng.normal(scale=50.0, size=(6, 6)))
        for out in (
            softmax(x.data),
            norm(x, Tensor(np.ones(6)), Tensor(np.zeros(6))).data,
            relu(x).data,
            linear(x, x).data,
        ):
            assert np.all(np.isfinite(out))


@pytest.mark.parametrize("error", [AttributeError, OSError, TypeError])
def test_heap_pad_is_a_no_op_where_libc_has_no_mallopt(monkeypatch, error):
    def no_mallopt(name):
        raise error("no mallopt here")

    monkeypatch.setattr(tensor.ctypes, "CDLL", no_mallopt)
    assert tensor._tune_malloc() is False
