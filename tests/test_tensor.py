import math

import numpy as np
import pytest

from gradcheck import check_gradients, sum_all, weighted_sum
from sentibert.errors import ContractError, ShapeError
from sentibert.optim import OPTIMIZERS, SGD, Adam
from sentibert.tensor import (
    Graph,
    Tensor,
    add,
    add_bias,
    cross_entropy,
    dropout,
    ffn,
    gather_rows,
    layer_norm,
    matmul,
    parameter,
    softmax,
    transpose,
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
    def test_identity(self):
        b = Tensor([[3.0, 4.0], [5.0, 6.0]])
        out = matmul(Tensor(np.eye(2)), b)
        assert np.array_equal(out.data, b.data)

    def test_hand_worked(self):
        out = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[5.0, 6.0], [7.0, 8.0]]))
        assert np.array_equal(out.data, [[19.0, 22.0], [43.0, 50.0]])

    def test_zeros(self):
        out = matmul(Tensor(np.zeros((2, 3))), Tensor(np.arange(6.0).reshape(3, 2)))
        assert np.array_equal(out.data, np.zeros((2, 2)))

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            m, k, n = rng.integers(1, 9, size=3)
            a = rng.normal(size=(m, k))
            b = rng.normal(size=(k, n))
            got = matmul(Tensor(a), Tensor(b)).data
            np.testing.assert_allclose(got, naive_matmul(a, b), atol=1e-12)

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))


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
    return layer_norm(x, Tensor(np.zeros_like(x.data)), gamma, beta, None, eps)


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

    def test_normalizes_the_residual_sum_bit_for_bit(self):
        # x + sub * keep, in that order, then the plain normalization
        rng = np.random.default_rng(12)
        x, sub = rng.normal(size=(5, 6)), rng.normal(size=(5, 6))
        keep = dropout(Tensor(sub), 0.3, np.random.default_rng(4), True)
        gamma, beta = Tensor(rng.normal(size=6)), Tensor(rng.normal(size=6))
        masked = layer_norm(Tensor(x), Tensor(sub), gamma, beta, keep).data
        np.testing.assert_array_equal(masked, norm(Tensor(x + sub * keep), gamma, beta).data)
        unmasked = layer_norm(Tensor(x), Tensor(sub), gamma, beta).data
        np.testing.assert_array_equal(unmasked, norm(Tensor(x + sub), gamma, beta).data)

    def test_residual_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError, match="residual"):
            layer_norm(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 3))), Tensor(np.ones(3)), Tensor(np.zeros(3)))


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
            g.backward(sum_all(matmul(w, transpose(w))))  # w w^T = sum of squares
        assert np.array_equal(w.grad, [[2.0, 4.0]])

    def test_nonscalar_loss_rejected(self):
        w = parameter([[1.0, 2.0]])
        with Graph() as g:
            out = add(w, w)
            with pytest.raises(ContractError):
                g.backward(out)

    def test_gradients_accumulate_across_uses(self):
        w = parameter([[3.0]])
        with Graph() as g:
            g.backward(sum_all(add(w, w)))
        assert np.array_equal(w.grad, [[2.0]])

    def test_gradient_arrays_are_not_shared(self):
        # add's backward hands one array to both inputs; each must keep its own
        a, b = parameter([[1.0]]), parameter([[2.0]])
        with Graph() as g:
            g.backward(sum_all(add(add(a, b), a)))
        assert np.array_equal(a.grad, [[2.0]]) and np.array_equal(b.grad, [[1.0]])

    def test_no_recording_without_graph(self):
        w = parameter([[1.0, 2.0]])
        out = add(w, w)
        assert not out._on_tape and w.grad is None


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
        cases = {
            "matmul": (lambda: weighted_sum(matmul(a, b), w32), {"a": a, "b": b}),
            "add": (lambda: weighted_sum(add(add(c, c), matmul(a, b)), w32), {"a": a, "c": c}),
            "add_bias": (lambda: weighted_sum(add_bias(matmul(a, b), bias), w32), {"a": a, "bias": bias}),
            "transpose": (lambda: weighted_sum(matmul(transpose(b), transpose(a)), w32.T), {"a": a, "b": b}),
            "layer_norm": (lambda: weighted_sum(layer_norm(a, e, gamma, beta), w34), {"a": a, "e": e, "gamma": gamma, "beta": beta}),
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
        assert np.any(keep == 0.0)

        def build():
            return weighted_sum(layer_norm(x, sub, gamma, beta, keep), upstream)

        check_gradients(build, {"x": x, "sub": sub}, rng, probes=25)
        with Graph() as g:
            g.backward(build())
        np.testing.assert_array_equal(sub.grad, x.grad * keep)

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
        build = lambda: weighted_sum(layer_norm(x, sub, gamma, beta, keep), upstream)
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


class TestDropout:
    def test_inactive_paths_identity(self):
        # no mask: the residual layer norm keeps the whole branch
        x = Tensor(np.ones((2, 2)))
        rng = np.random.default_rng(0)
        assert dropout(x, 0.0, rng, True) is None
        assert dropout(x, 0.5, rng, False) is None
        assert rng.random() == np.random.default_rng(0).random()  # no draw was taken

    def test_inverted_scaling_preserves_mean(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones((200, 200)))
        out = x.data * dropout(x, 0.25, rng, True)
        kept = out[out > 0]
        assert np.allclose(kept, 1.0 / 0.75)
        assert abs(out.mean() - 1.0) < 0.02

    def test_mask_is_one_uniform_draw_per_slot(self):
        keep = dropout(Tensor(np.zeros((3, 5))), 0.4, np.random.default_rng(8), True)
        expected = (np.random.default_rng(8).random((3, 5)) >= 0.4) / 0.6
        np.testing.assert_array_equal(keep, expected)

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

    def test_algorithm_dispatch(self):
        w = parameter([1.0])
        assert isinstance(OPTIMIZERS["sgd"]({"w": w}, 1e-3), SGD)
        assert isinstance(OPTIMIZERS["adam"]({"w": w}, 1e-3), Adam)


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
            matmul(x, x).data,
        ):
            assert np.all(np.isfinite(out))
