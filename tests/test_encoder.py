import numpy as np
import pytest

from gradcheck import check_gradients, sum_all
from sentibert.encoder import (
    EncoderConfig,
    EncoderLayerParams,
    attention,
    encode,
    encoder_layer,
    feed_forward,
    init_layer_params,
    multi_head,
)
from sentibert.errors import ConfigError, ShapeError
from sentibert.tensor import Graph, Tensor, cross_entropy, gather_rows, matmul, mul, parameter, softmax


def _config(**kw):
    defaults = dict(num_layers=1, num_heads=2, d_model=8, d_ff=16, max_len=8, dropout_rate=0.0)
    defaults.update(kw)
    return EncoderConfig(**defaults)


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

    def test_matches_per_sequence_reference(self):
        rng = np.random.default_rng(12)
        qkv = rng.normal(size=(9, 24))
        got = attention(Tensor(qkv), [4, 1, 4], 2).data
        np.testing.assert_allclose(got, _reference_attention(qkv, [4, 1, 4], 2), atol=1e-12)

    def test_gradcheck_ragged_lengths(self):
        rng = np.random.default_rng(13)
        qkv = parameter(rng.normal(size=(9, 12)))
        weights = Tensor(rng.normal(size=(9, 4)))
        checked = check_gradients(
            lambda: sum_all(mul(attention(qkv, [1, 3, 5], 2), weights)), {"qkv": qkv}, rng, probes=60, rel=1e-4
        )
        assert checked == 60


class TestMultiHead:
    def test_single_head_identity_projections(self):
        config = _config(num_heads=1, d_model=4)
        params = init_layer_params(config, np.random.default_rng(0))
        eye = np.eye(4)
        params.wqkv.data = np.hstack([eye, eye, eye])
        params.wo.data = eye.copy()
        x = np.random.default_rng(1).normal(size=(1, 4))
        out = multi_head(Tensor(x), params, [1], 1)
        np.testing.assert_allclose(out.data, x, atol=1e-12)

    def test_zero_projections_zero_output(self):
        config = _config()
        params = init_layer_params(config, np.random.default_rng(0))
        params.wqkv.data[:, 2 * config.d_model :] = 0.0  # every value head
        out = multi_head(Tensor(np.random.default_rng(2).normal(size=(3, 8))), params, [3], config.num_heads)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_matches_hand_assembled_heads(self):
        config = _config(num_heads=2, d_model=6)
        rng = np.random.default_rng(4)
        params = init_layer_params(config, rng)
        x = rng.normal(size=(4, 6))
        lengths = [3, 1]
        out = multi_head(Tensor(x), params, lengths, 2)
        expected = _reference_attention(x @ params.wqkv.data, lengths, 2) @ params.wo.data
        np.testing.assert_allclose(out.data, expected, atol=1e-12)


class TestEncoderLayer:
    def test_zero_sublayers_reduce_to_double_layer_norm(self):
        config = _config(num_heads=2, d_model=6, d_ff=12)
        params = init_layer_params(config, np.random.default_rng(0))
        params.wqkv.data[:] = 0.0
        params.wo.data[:] = 0.0
        params.w1.data[:] = 0.0
        params.w2.data[:] = 0.0
        x = np.random.default_rng(5).normal(size=(3, 6))
        out = encoder_layer(Tensor(x), params, [3], 2).data
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
        a = encoder_layer(x, params, [4], 2, config.dropout_rate, np.random.default_rng(1), training=False)
        b = encoder_layer(x, params, [4], 2, config.dropout_rate, np.random.default_rng(999), training=False)
        np.testing.assert_array_equal(a.data, b.data)

    def test_training_dropout_needs_rng(self):
        config = _config(dropout_rate=0.5)
        params = init_layer_params(config, np.random.default_rng(0))
        with pytest.raises(ConfigError):
            encoder_layer(Tensor(np.zeros((2, 8))), params, [2], 2, 0.5, None, training=True)

    def test_output_shape(self):
        config = _config()
        params = init_layer_params(config, np.random.default_rng(0))
        out = encoder_layer(Tensor(np.zeros((5, 8))), params, [2, 3], 2)
        assert out.data.shape == (5, 8)


class TestEncode:
    def test_empty_stack_is_identity(self):
        config = _config(num_layers=0)
        x = Tensor(np.random.default_rng(0).normal(size=(4, 8)))
        out = encode(x, config, [], [4])
        assert out is x

    def test_two_layers_equal_manual_composition(self):
        config = _config(num_layers=2)
        rng = np.random.default_rng(6)
        layers = [init_layer_params(config, rng) for _ in range(2)]
        x = Tensor(rng.normal(size=(4, 8)))
        lengths = [1, 3]
        stacked = encode(x, config, layers, lengths)
        manual = encoder_layer(encoder_layer(x, layers[0], lengths, 2), layers[1], lengths, 2)
        np.testing.assert_array_equal(stacked.data, manual.data)

    def test_layer_count_mismatch(self):
        config = _config(num_layers=2)
        layers = [init_layer_params(config, np.random.default_rng(0))]
        with pytest.raises(ConfigError):
            encode(Tensor(np.zeros((2, 8))), config, layers, [2])

    def test_pad_isolation(self):
        # a sequence's rows ignore whatever its batch neighbour holds
        config = _config(num_layers=2)
        rng = np.random.default_rng(7)
        layers = [init_layer_params(config, rng) for _ in range(2)]
        lengths = [3, 2]
        x = rng.normal(size=(5, 8))
        scrambled = x.copy()
        scrambled[3:, :] = rng.normal(size=(2, 8)) * 10.0
        out_a = encode(Tensor(x), config, layers, lengths).data
        out_b = encode(Tensor(scrambled), config, layers, lengths).data
        np.testing.assert_allclose(out_a[:3], out_b[:3], atol=1e-9)

    def test_permutation_equivariance(self):
        config = _config(num_layers=2)
        rng = np.random.default_rng(8)
        layers = [init_layer_params(config, rng) for _ in range(2)]
        x = rng.normal(size=(5, 8))
        perm = rng.permutation(5)
        out = encode(Tensor(x), config, layers, [5]).data
        out_perm = encode(Tensor(x[perm]), config, layers, [5]).data
        np.testing.assert_allclose(out_perm, out[perm], atol=1e-9)

    def test_eval_determinism_bitwise(self):
        config = _config(num_layers=2, dropout_rate=0.3)
        rng = np.random.default_rng(9)
        layers = [init_layer_params(config, rng) for _ in range(2)]
        x = rng.normal(size=(4, 8))
        a = encode(Tensor(x), config, layers, [4], training=False).data
        b = encode(Tensor(x), config, layers, [4], training=False).data
        assert np.array_equal(a, b)


class TestEncoderGradients:
    def test_full_two_layer_encoder_gradcheck(self):
        config = _config(num_layers=2, num_heads=2, d_model=8, d_ff=16)
        rng = np.random.default_rng(10)
        layers = [init_layer_params(config, rng) for _ in range(2)]
        head = parameter(rng.normal(size=(8, 3)))
        x = parameter(rng.normal(size=(4, 8)))
        lengths = [3, 1]

        def build():
            hidden = encode(x, config, layers, lengths)
            return cross_entropy(matmul(gather_rows(hidden, [0]), head), [2])

        params = {"x": x, "head": head}
        for i, layer in enumerate(layers):
            params.update(layer.named(f"layer{i}"))
        check_gradients(build, params, rng, probes=120)

    def test_feed_forward_matches_formula(self):
        config = _config(d_model=4, d_ff=6)
        rng = np.random.default_rng(11)
        params = init_layer_params(config, rng)
        x = rng.normal(size=(3, 4))
        expected = np.maximum(0.0, x @ params.w1.data + params.b1.data) @ params.w2.data + params.b2.data
        np.testing.assert_allclose(feed_forward(Tensor(x), params).data, expected, atol=1e-12)
