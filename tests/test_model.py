import math
import os
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sentibert.encoder import EncoderConfig
from sentibert.errors import ConfigError, ContractError, ShapeError
from sentibert.model import SentimentModel, eval_chunks, parameter_shapes
from sentibert.synthetic import generate_dataset
from sentibert.tensor import EVAL_SLOTS, Graph, batch_layout, cross_entropy, linear, softmax
from sentibert.tokenizer import PAD_ID, SPECIAL_TOKENS, EncodedSequence, Vocab, encode_pair

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
    w = {name: t.data for name, t in model.params.items()}
    n, pad = seq.real_length(), CONFIG.max_len - seq.real_length()
    ids, segments = seq.token_ids + [PAD_ID] * pad, seq.segment_ids + [0] * pad
    x = w["embeddings.token"][ids] + w["embeddings.segment"][segments] + w["embeddings.position"][: CONFIG.max_len]
    key_bias = np.where(np.arange(CONFIG.max_len) < n, 0.0, -1e9)
    d, dk = CONFIG.d_model, CONFIG.d_k
    for i in range(CONFIG.num_layers):
        p = {name[len(f"encoder.{i}.") :]: a for name, a in w.items() if name.startswith(f"encoder.{i}.")}
        qkv = x @ p["wqkv"]
        heads = []
        for h in range(CONFIG.num_heads):
            q, k, v = (qkv[:, part * d + h * dk : part * d + (h + 1) * dk] for part in range(3))
            heads.append(softmax(q @ k.T / np.sqrt(dk) + key_bias) @ v)
        y = _layer_norm(x + np.hstack(heads) @ p["wo"], p["ln1.gamma"], p["ln1.beta"])
        ffn = np.maximum(0.0, y @ p["ffn.w1"] + p["ffn.b1"]) @ p["ffn.w2"] + p["ffn.b2"]
        x = _layer_norm(y + ffn, p["ln2.gamma"], p["ln2.beta"])
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

    def test_head_parameters_exclude_the_other_head(self, model):
        # what fine-tuning and pretraining train: embeddings, encoder stack, one head
        everything = model.named_parameters()
        for head, other in (("classifier", "nsp"), ("nsp", "classifier")):
            params = model.named_parameters(head)
            assert list(params) == [n for n in everything if not n.startswith(f"{other}.")]
            assert {f"{head}.weight", f"{head}.bias"} <= set(params)
            assert all(params[n] is everything[n] for n in params)

    def test_named_parameters_reject_an_unknown_head(self, model):
        with pytest.raises(ContractError, match="mlm"):
            model.named_parameters("mlm")

    def test_init_draws_the_documented_rule_in_order(self):
        # plain numpy, in the order the per-module initializers drew: the
        # tables, then per layer wqkv (one Xavier block per head and
        # projection), wo, w1 and w2, then the two head weights
        config = EncoderConfig(num_layers=2, num_heads=2, d_model=8, d_ff=12, max_len=6)
        vocab = Vocab(list(SPECIAL_TOKENS) + ["a", "b", "c"])
        d, dk, dff = config.d_model, config.d_k, config.d_ff
        rng = np.random.default_rng(17)

        def xavier(fan_in, fan_out):
            return rng.normal(0.0, np.sqrt(2.0 / (fan_in + fan_out)), (fan_in, fan_out))

        expected = {
            "embeddings.token": rng.normal(0.0, 0.02, (len(vocab), d)),
            "embeddings.segment": rng.normal(0.0, 0.02, (2, d)),
            "embeddings.position": rng.normal(0.0, 0.02, (config.max_len, d)),
        }
        for i in range(config.num_layers):
            expected[f"encoder.{i}.wqkv"] = np.hstack([xavier(d, dk) for _ in range(3 * config.num_heads)])
            expected[f"encoder.{i}.wo"] = xavier(d, d)
            expected[f"encoder.{i}.ffn.w1"] = xavier(d, dff)
            expected[f"encoder.{i}.ffn.w2"] = xavier(dff, d)
            expected[f"encoder.{i}.ffn.b1"] = np.zeros(dff)
            expected[f"encoder.{i}.ffn.b2"] = np.zeros(d)
            for norm in ("ln1", "ln2"):
                expected[f"encoder.{i}.{norm}.gamma"] = np.ones(d)
                expected[f"encoder.{i}.{norm}.beta"] = np.zeros(d)
        expected["classifier.weight"] = rng.normal(0.0, 0.02, (d, 3))
        expected["nsp.weight"] = rng.normal(0.0, 0.02, (d, 2))
        expected["classifier.bias"], expected["nsp.bias"] = np.zeros(3), np.zeros(2)

        params = SentimentModel.init(vocab, config, seed=17).named_parameters()
        assert list(params) == list(parameter_shapes(len(vocab), config))
        assert set(params) == set(expected)
        for name, t in params.items():
            assert t.data.dtype == np.float64
            np.testing.assert_array_equal(t.data, expected[name], err_msg=name)

    def test_init_deterministic(self, model):
        again = SentimentModel.init(model.vocab, CONFIG, seed=3)
        for name, t in model.named_parameters().items():
            np.testing.assert_array_equal(t.data, again.named_parameters()[name].data)

    def test_snapshot_round_trip(self, model):
        clone = model.clone()
        snap = model.snapshot()
        clone.params["classifier.weight"].data += 1.0
        clone.load_snapshot(snap)
        np.testing.assert_array_equal(clone.params["classifier.weight"].data, model.params["classifier.weight"].data)

    def test_clone_copies_without_random_init(self, model, monkeypatch):
        def no_init(*args, **kwargs):
            raise AssertionError("clone ran a random initialization")

        monkeypatch.setattr(SentimentModel, "init", no_init)
        clone = model.clone()
        assert clone.seed == model.seed
        for name, t in clone.named_parameters().items():
            original = model.named_parameters()[name].data
            np.testing.assert_array_equal(t.data, original)
            assert not np.shares_memory(t.data, original)

    def test_load_snapshot_rejects_shape_drift(self, model):
        snap = model.snapshot()
        snap["classifier.weight"] = np.zeros((2, 2))
        with pytest.raises(ConfigError):
            model.clone().load_snapshot(snap)


    def test_missing_tensors_are_named(self, model):
        arrays = model.snapshot()
        del arrays["nsp.bias"], arrays["encoder.1.wo"]
        named = "tensors missing: ['encoder.1.wo', 'nsp.bias']; not model parameters: []"
        with pytest.raises(ConfigError, match=re.escape(named)):
            SentimentModel.from_arrays(model.vocab, CONFIG, arrays, seed=0)


def _physical_memory(monkeypatch, nbytes):
    pages = {"SC_PAGE_SIZE": 8, "SC_PHYS_PAGES": nbytes // 8}
    monkeypatch.setattr(os, "sysconf", lambda name: pages[name])


class TestMemoryCheck:
    """init refuses weights that physical memory cannot hold, before it builds the shape table."""

    VOCAB = Vocab(list(SPECIAL_TOKENS) + ["a", "b"])

    def test_the_bound_is_eight_bytes_per_listed_weight(self, monkeypatch):
        nbytes = 8 * sum(math.prod(shape) for shape in parameter_shapes(len(self.VOCAB), CONFIG).values())
        _physical_memory(monkeypatch, nbytes)
        SentimentModel.init(self.VOCAB, CONFIG, seed=0)
        _physical_memory(monkeypatch, nbytes - 8)
        named = f"too large to allocate ({nbytes // 8} parameters need {nbytes} bytes; memory has {nbytes - 8})"
        with pytest.raises(ConfigError, match="^" + re.escape(named)):
            SentimentModel.init(self.VOCAB, CONFIG, seed=0)

    def test_a_huge_stack_is_refused_without_building_its_table(self, monkeypatch):
        from sentibert import model as model_mod

        real = model_mod.parameter_shapes

        def small_tables_only(vocab_size, config):
            assert config.num_layers <= 1, "the shape table of the whole stack was built"
            return real(vocab_size, config)

        monkeypatch.setattr(model_mod, "parameter_shapes", small_tables_only)
        _physical_memory(monkeypatch, 2**33)
        with pytest.raises(ConfigError, match="too large to allocate"):
            SentimentModel.init(self.VOCAB, EncoderConfig(num_layers=10**7), seed=0)

    @pytest.mark.parametrize("fault", [ValueError, OSError])
    def test_a_platform_that_does_not_report_its_memory_is_not_checked(self, monkeypatch, fault):
        def sysconf(name):
            raise fault(f"unrecognized configuration name {name}")

        monkeypatch.setattr(os, "sysconf", sysconf)
        assert SentimentModel.init(self.VOCAB, CONFIG, seed=0).config == CONFIG


class TestHeads:
    def test_mlm_logits_use_tied_token_table(self, model):
        seq = encode_pair("w1 w2 w3", None, model.vocab, CONFIG.max_len)
        hidden = model.hidden_states([seq])
        logits = model.mlm_logits(hidden, [1, 2]).data
        expected = hidden.data[[1, 2]] @ model.params["embeddings.token"].data.T
        np.testing.assert_allclose(logits, expected, atol=1e-12)
        assert logits.shape == (2, len(model.vocab))

    def test_class_logits_shape(self, model):
        seqs = [encode_pair(text, None, model.vocab, CONFIG.max_len) for text in ("w1", "w2 w3 w4")]
        assert model.class_logits(seqs).data.shape == (2, 3)
        assert _starts(seqs).tolist() == [0, 3]

    def test_nsp_logits_shape(self, model):
        seq = encode_pair("w1", "w2", model.vocab, CONFIG.max_len)
        assert model.nsp_logits(model.hidden_states([seq]), [0]).data.shape == (1, 2)


def _random_batch(vocab, count, seed):
    rng = np.random.default_rng(seed)
    texts = (" ".join(f"w{int(rng.integers(30))}" for _ in range(int(rng.integers(1, 9)))) for _ in range(count))
    return [encode_pair(text, None, vocab, CONFIG.max_len) for text in texts]


def _starts(seqs):
    """Each sequence's first packed row, from the batch plan."""
    return batch_layout(tuple(s.real_length() for s in seqs)).start


def _full_path_class_logits(net, seqs, training=False, rng=None):
    """Sentiment logits from every row's hidden state, gathered at the [CLS] rows afterwards."""
    hidden = net.hidden_states(seqs, training, rng)
    return linear(hidden, net.params["classifier.weight"], net.params["classifier.bias"], rows=_starts(seqs))


class TestQueryRows:
    """class_logits computes the last layer only at the [CLS] rows; the full
    path gathered at the same rows is the reference."""

    def test_class_logits_match_the_full_path(self, model):
        seqs = _random_batch(model.vocab, 12, seed=5)
        np.testing.assert_allclose(
            model.class_logits(seqs).data, _full_path_class_logits(model, seqs).data, atol=1e-12, rtol=0
        )

    def test_training_gradients_match_the_full_path(self, model):
        # one rng seed per side: dropout masks are drawn at the full shape either way
        seqs = _random_batch(model.vocab, 12, seed=6)
        labels = [i % 3 for i in range(12)]

        def grads(logits_of):
            net = model.clone()
            with Graph() as graph:
                graph.backward(cross_entropy(logits_of(net, np.random.default_rng(7)), labels))
            return {name: t.grad for name, t in net.params.items() if t.grad is not None}

        cut = grads(lambda net, rng: net.class_logits(seqs, True, rng))
        full = grads(lambda net, rng: _full_path_class_logits(net, seqs, True, rng))
        assert set(cut) == set(full) == set(model.named_parameters("classifier"))
        for name in full:
            np.testing.assert_allclose(cut[name], full[name], atol=1e-12, rtol=0, err_msg=name)

    def test_zero_layer_stack_reads_the_embedding_rows(self, model):
        config = EncoderConfig(num_layers=0, num_heads=2, d_model=16, d_ff=32, max_len=12)
        net = SentimentModel.init(model.vocab, config, seed=4)
        seqs = _random_batch(model.vocab, 5, seed=8)
        rows = [4, 0, 7]
        np.testing.assert_array_equal(net.hidden_states(seqs, rows=rows).data, net.hidden_states(seqs).data[rows])
        np.testing.assert_allclose(
            net.class_logits(seqs).data, _full_path_class_logits(net, seqs).data, atol=1e-12, rtol=0
        )

    def test_bad_rows(self, model):
        seqs = _random_batch(model.vocab, 3, seed=9)
        n = sum(s.real_length() for s in seqs)
        with pytest.raises(IndexError):
            model.hidden_states(seqs, rows=[0, n])
        with pytest.raises(ShapeError):
            model.hidden_states(seqs, rows=[1, 0, 1])



class TestBatchPlan:
    """A forward without a plan looks one up in hidden_states or class_logits,
    and batch_layout checks the lengths there."""

    @pytest.mark.parametrize("where", [0, 1, 3], ids=["alone", "in-a-batch", "last"])
    @pytest.mark.parametrize("forward", ["class_logits", "hidden_states"])
    def test_an_empty_sequence_is_a_shape_error_naming_the_lengths(self, model, where, forward):
        seqs = _random_batch(model.vocab, 3 if where else 0, seed=10)
        seqs.insert(where, EncodedSequence(token_ids=[], segment_ids=[]))
        lengths = tuple(s.real_length() for s in seqs)
        with pytest.raises(ShapeError, match=f"^batch_layout: lengths {re.escape(repr(lengths))} are not a nonempty"):
            getattr(model, forward)(seqs)

    @pytest.mark.parametrize("rows", [[0.5], [True, False], ["0"]], ids=["float", "bool", "string"])
    @pytest.mark.parametrize("num_layers", [0, 2])
    @pytest.mark.parametrize("training", [False, True], ids=["eval", "training"])
    def test_rows_that_are_not_integers_are_a_contract_error(self, model, rows, num_layers, training):
        # in training, before the dropout masks are indexed by them
        net = model if num_layers else SentimentModel.init(model.vocab, replace(CONFIG, num_layers=0), seed=4)
        op = "attend" if num_layers else "gather_rows"
        with pytest.raises(ContractError, match=f"^{op}: expected integer ids, got "):
            net.hidden_states(_random_batch(model.vocab, 3, seed=11), training, np.random.default_rng(0), rows)


class TestEvalChunks:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([12, 64, 600]).flatmap(lambda max_len: st.lists(st.integers(1, max_len), max_size=300)))
    @example([64] * 9 + [3] * 3 + [600, 600])  # a chunk of exactly EVAL_SLOTS slots, then two over the budget
    def test_chunks_cover_sorted_and_within_the_slot_budget(self, lengths):
        # max_len 600 puts some sequences over the budget, where each must run alone
        chunks = eval_chunks([EncodedSequence([0] * n, [0] * n) for n in lengths])
        order = np.concatenate(chunks).tolist() if chunks else []
        assert sorted(order) == list(range(len(lengths)))  # every index exactly once
        for a, b in zip(order, order[1:]):  # non-decreasing lengths, ties in input order
            assert (lengths[a], a) < (lengths[b], b)
        for chunk in chunks:
            assert chunk.size == 1 or chunk.size * max(lengths[i] for i in chunk) <= EVAL_SLOTS
        for chunk, following in zip(chunks, chunks[1:]):  # a chunk ends only when one more would overflow it
            assert (chunk.size + 1) * lengths[following[0]] > EVAL_SLOTS
