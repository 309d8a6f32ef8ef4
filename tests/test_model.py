import numpy as np
import pytest

from sentibert.encoder import EncoderConfig
from sentibert.errors import ConfigError
from sentibert.model import SentimentModel, parameter_shapes, row_starts
from sentibert.synthetic import generate_dataset
from sentibert.tensor import softmax
from sentibert.tokenizer import PAD_ID, SPECIAL_TOKENS, Vocab, encode_pair

CONFIG = EncoderConfig(num_layers=2, num_heads=2, d_model=16, d_ff=32, max_len=12, dropout_rate=0.1)


@pytest.fixture(scope="module")
def model():
    vocab = Vocab(list(SPECIAL_TOKENS) + [f"w{i}" for i in range(30)])
    return SentimentModel.init(vocab, CONFIG, seed=3)


def _layer_norm(x, gamma, beta):
    mean = x.mean(axis=1, keepdims=True)
    return (x - mean) / np.sqrt(x.var(axis=1, keepdims=True) + 1e-5) * gamma + beta


def _full_width_reference(model, seq) -> np.ndarray:
    """The sequence padded with [PAD] to max_len, all rows through a plain
    numpy encoder whose attention adds -1e9 at pad keys."""
    t, n, pad = model.tables, seq.real_length(), CONFIG.max_len - seq.real_length()
    ids, segments = seq.token_ids + [PAD_ID] * pad, seq.segment_ids + [0] * pad
    x = t.token.data[ids] + t.segment.data[segments] + t.position.data[: CONFIG.max_len]
    key_bias = np.where(np.arange(CONFIG.max_len) < n, 0.0, -1e9)
    d, dk = CONFIG.d_model, CONFIG.d_k
    for p in model.layers:
        qkv = x @ p.wqkv.data
        heads = []
        for h in range(CONFIG.num_heads):
            q, k, v = (qkv[:, part * d + h * dk : part * d + (h + 1) * dk] for part in range(3))
            heads.append(softmax(q @ k.T / np.sqrt(dk) + key_bias) @ v)
        y = _layer_norm(x + np.hstack(heads) @ p.wo.data, p.ln1_gamma.data, p.ln1_beta.data)
        ffn = np.maximum(0.0, y @ p.w1.data + p.b1.data) @ p.w2.data + p.b2.data
        x = _layer_norm(y + ffn, p.ln2_gamma.data, p.ln2_beta.data)
    return x


class TestTrimming:
    def test_trimmed_forward_matches_full_width(self, model):
        # one packed batch of 20 sequences against each one's padded full-width pass
        rng = np.random.default_rng(0)
        seqs = []
        for _ in range(20):
            n_words = int(rng.integers(1, 9))
            text = " ".join(f"w{int(rng.integers(30))}" for _ in range(n_words))
            seqs.append(encode_pair(text, None, model.vocab, CONFIG.max_len))
        packed = model.hidden_states(seqs).data
        full = np.vstack([_full_width_reference(model, s)[: s.real_length()] for s in seqs])
        assert packed.shape == (sum(s.real_length() for s in seqs), CONFIG.d_model)
        np.testing.assert_allclose(packed, full, atol=1e-12, rtol=0.0)


class TestParameters:
    def test_named_parameters_cover_everything(self, model):
        names = set(model.named_parameters())
        assert {"embeddings.token", "embeddings.segment", "embeddings.position"} <= names
        assert {"classifier.weight", "classifier.bias", "nsp.weight", "nsp.bias"} <= names
        for i in range(CONFIG.num_layers):
            assert f"encoder.{i}.wqkv" in names
            assert f"encoder.{i}.ffn.w1" in names
            assert f"encoder.{i}.ln2.beta" in names
        per_layer = 1 + 1 + 4 + 4  # fused qkv, wo, ffn, two norms
        assert len(names) == 3 + CONFIG.num_layers * per_layer + 4
        shapes = {name: t.data.shape for name, t in model.named_parameters().items()}
        assert shapes == parameter_shapes(len(model.vocab), CONFIG)

    def test_encoder_parameters_exclude_heads(self, model):
        names = set(model.encoder_parameters())
        assert not any(n.startswith(("classifier.", "nsp.")) for n in names)

    def test_init_deterministic(self, model):
        again = SentimentModel.init(model.vocab, CONFIG, seed=3)
        for name, t in model.named_parameters().items():
            np.testing.assert_array_equal(t.data, again.named_parameters()[name].data)

    def test_snapshot_round_trip(self, model):
        clone = model.clone()
        snap = model.snapshot()
        clone.cls_w.data += 1.0
        clone.load_snapshot(snap)
        np.testing.assert_array_equal(clone.cls_w.data, model.cls_w.data)

    def test_clone_copies_without_random_init(self, model, monkeypatch):
        def no_init(*args, **kwargs):
            raise AssertionError("clone ran a random initialization")

        monkeypatch.setattr(SentimentModel, "init", no_init)
        clone = model.clone()
        assert clone.labels == model.labels and clone.seed == model.seed
        for name, t in clone.named_parameters().items():
            original = model.named_parameters()[name].data
            np.testing.assert_array_equal(t.data, original)
            assert not np.shares_memory(t.data, original)

    def test_load_snapshot_rejects_shape_drift(self, model):
        snap = model.snapshot()
        snap["classifier.weight"] = np.zeros((2, 2))
        with pytest.raises(ConfigError):
            model.clone().load_snapshot(snap)


class TestHeads:
    def test_mlm_logits_use_tied_token_table(self, model):
        seq = encode_pair("w1 w2 w3", None, model.vocab, CONFIG.max_len)
        hidden = model.hidden_states([seq])
        logits = model.mlm_logits(hidden, [1, 2]).data
        expected = hidden.data[[1, 2]] @ model.tables.token.data.T
        np.testing.assert_allclose(logits, expected, atol=1e-12)
        assert logits.shape == (2, len(model.vocab))

    def test_class_logits_shape(self, model):
        seqs = [encode_pair(text, None, model.vocab, CONFIG.max_len) for text in ("w1", "w2 w3 w4")]
        assert model.class_logits(seqs).data.shape == (2, 3)
        assert row_starts(seqs) == [0, 3]

    def test_nsp_logits_shape(self, model):
        seq = encode_pair("w1", "w2", model.vocab, CONFIG.max_len)
        assert model.nsp_logits(model.hidden_states([seq]), [0]).data.shape == (1, 2)
