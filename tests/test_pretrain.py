import math

import numpy as np
import pytest

from sentibert.encoder import EncoderConfig
from sentibert.errors import ConfigError, SamplingError
from sentibert.model import SentimentModel
from sentibert.optim import OptimizerConfig, make_optimizer
from sentibert.pretrain import (
    HISTORY_COLUMNS,
    SENTINEL,
    PretrainConfig,
    build_masked_batch,
    eval_losses,
    mask_tokens,
    nsp_pairs,
    pretrain_step,
    run_pretraining,
)
from sentibert.synthetic import generate_documents
from sentibert.tokenizer import CLS_ID, MASK_ID, PAD_ID, SEP_ID, build_vocab, encode_pair

SMALL = EncoderConfig(num_layers=1, num_heads=2, d_model=16, d_ff=32, max_len=24, dropout_rate=0.0)


@pytest.fixture(scope="module")
def corpus():
    return generate_documents(n_docs=5, sentences_per_doc=4, seed=3)


@pytest.fixture(scope="module")
def vocab(corpus):
    return build_vocab([s for doc in corpus for s in doc], max_size=200)


class TestMaskTokens:
    def test_p_zero_selects_nothing(self, vocab):
        seq = encode_pair("the room was fine", None, vocab, 12)
        masked, targets = mask_tokens(seq, 0.0, np.random.default_rng(0), len(vocab))
        assert masked.token_ids == seq.token_ids
        assert all(t == SENTINEL for t in targets)

    def test_deterministic_per_seed(self, vocab):
        seq = encode_pair("the room was really quite fine overall", None, vocab, 16)
        a = mask_tokens(seq, 0.5, np.random.default_rng(42), len(vocab))
        b = mask_tokens(seq, 0.5, np.random.default_rng(42), len(vocab))
        assert a[0].token_ids == b[0].token_ids and a[1] == b[1]

    def test_specials_never_selected(self, vocab):
        seq = encode_pair("good room", "bad pool", vocab, 12)
        rng = np.random.default_rng(7)
        for _ in range(50):
            masked, targets = mask_tokens(seq, 0.9, rng, len(vocab))
            for i, tok in enumerate(seq.token_ids):
                if tok in (PAD_ID, CLS_ID, SEP_ID):
                    assert targets[i] == SENTINEL
                    assert masked.token_ids[i] == tok

    def test_selection_rate_binomial(self, vocab):
        text = " ".join(["room"] * 20)
        seq = encode_pair(text, None, vocab, 24)
        rng = np.random.default_rng(11)
        eligible = 20
        draws = 500  # 10k eligible positions
        selected = 0
        for _ in range(draws):
            _, targets = mask_tokens(seq, 0.15, rng, len(vocab))
            selected += sum(t != SENTINEL for t in targets)
        total = eligible * draws
        rate = selected / total
        sigma = math.sqrt(0.15 * 0.85 / total)
        assert abs(rate - 0.15) < 3.0 * sigma

    def test_replacement_split(self, vocab):
        text = " ".join(["room"] * 20)
        seq = encode_pair(text, None, vocab, 24)
        rng = np.random.default_rng(5)
        kinds = {"mask": 0, "random": 0, "kept": 0}
        for _ in range(400):
            masked, targets = mask_tokens(seq, 0.5, rng, len(vocab))
            for i, t in enumerate(targets):
                if t == SENTINEL:
                    continue
                if masked.token_ids[i] == MASK_ID:
                    kinds["mask"] += 1
                elif masked.token_ids[i] == t:
                    kinds["kept"] += 1
                else:
                    kinds["random"] += 1
        total = sum(kinds.values())
        assert kinds["mask"] / total == pytest.approx(0.8, abs=0.03)
        assert kinds["random"] / total == pytest.approx(0.1, abs=0.05)
        assert kinds["kept"] / total == pytest.approx(0.1, abs=0.03)

    def test_targets_hold_original_ids(self, vocab):
        seq = encode_pair("good room bad pool", None, vocab, 12)
        _, targets = mask_tokens(seq, 0.99, np.random.default_rng(1), len(vocab))
        for i, t in enumerate(targets):
            if t != SENTINEL:
                assert t == seq.token_ids[i]


class _ScriptedRng:
    """Deterministic stand-in driving nsp_pairs down a chosen branch."""

    def __init__(self, coin: float):
        self.coin = coin

    def random(self):
        return self.coin

    def integers(self, high):
        return 0


class TestNspPairs:
    def test_forced_true_branch(self, corpus):
        pairs = nsp_pairs(corpus, _ScriptedRng(0.1))
        assert all(label == 1 for _, _, label in pairs)
        for doc in corpus:
            for a, b in zip(doc, doc[1:]):
                assert (a, b, 1) in pairs

    def test_forced_false_branch_samples_other_document(self):
        docs = [["a1", "a2"], ["b1", "b2"]]
        pairs = nsp_pairs(docs, _ScriptedRng(0.9))
        assert [p[2] for p in pairs] == [0, 0]
        assert pairs[0] == ("a1", "b1", 0)  # scripted rng picks the other doc's first sentence
        assert pairs[1] == ("b1", "a1", 0)

    def test_label_mean_is_half(self):
        docs = [[f"d{d}s{s}" for s in range(3)] for d in range(50)]
        rng = np.random.default_rng(123)
        labels = []
        for _ in range(100):  # 100 docs*2 pairs per pass = 10k draws
            labels.extend(label for _, _, label in nsp_pairs(docs, rng))
        mean = np.mean(labels)
        assert abs(mean - 0.5) < 0.015

    def test_single_document_negative_request_fails(self):
        with pytest.raises(SamplingError):
            nsp_pairs([["a", "b"]], _ScriptedRng(0.9))

    def test_short_document_rejected(self):
        with pytest.raises(ConfigError):
            nsp_pairs([["only one"]], np.random.default_rng(0))


class TestPretrainStep:
    def _model(self, vocab, seed=0):
        return SentimentModel.init(vocab, SMALL, seed=seed)

    def _optimizer(self, model, lr=1e-3):
        params = {**model.encoder_parameters(), "nsp.weight": model.nsp_w, "nsp.bias": model.nsp_b}
        return make_optimizer(params, OptimizerConfig(lr=lr))

    def test_initial_losses_near_uniform(self, corpus, vocab):
        model = self._model(vocab)
        rng = np.random.default_rng(2)
        pairs = nsp_pairs(corpus, rng)
        batch = build_masked_batch(pairs, vocab, SMALL.max_len, 0.15, rng)
        losses = eval_losses(batch, model)
        assert losses["mlm_loss"] == pytest.approx(math.log(len(vocab)), rel=0.15)
        assert losses["nsp_loss"] == pytest.approx(math.log(2.0), rel=0.15)

    def test_zero_selected_positions_trains_nsp_only(self, corpus, vocab):
        model = self._model(vocab)
        rng = np.random.default_rng(3)
        pairs = nsp_pairs(corpus, rng)[:4]
        batch = build_masked_batch(pairs, vocab, SMALL.max_len, 0.0, rng)
        before = model.nsp_w.data.copy()
        losses = pretrain_step(batch, model, self._optimizer(model), rng=rng)
        assert losses["mlm_loss"] == 0.0
        assert losses["nsp_loss"] > 0.0
        assert not np.array_equal(model.nsp_w.data, before)

    def test_loss_only_over_selected_positions(self, corpus, vocab):
        # independent recount: gather per-position log-softmax by hand at the
        # selected slots only; unselected positions must contribute nothing
        model = self._model(vocab)
        rng = np.random.default_rng(4)
        pairs = nsp_pairs(corpus, rng)[:3]
        batch = build_masked_batch(pairs, vocab, SMALL.max_len, 0.3, rng)
        got = eval_losses(batch, model)["mlm_loss"]
        per_position = []
        for seq, targets in zip(batch.sequences, batch.mlm_targets):
            hidden = model.hidden_states([seq]).data
            logits = hidden @ model.tables.token.data.T
            shifted = logits - logits.max(axis=1, keepdims=True)
            log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
            for i, t in enumerate(targets):
                if t != SENTINEL:
                    per_position.append(-log_probs[i, t])
        assert per_position, "masking selected nothing; bump p or the seed"
        assert got == pytest.approx(float(np.mean(per_position)), abs=1e-12)

    def test_p_zero_leaves_token_table_mlm_free(self, corpus, vocab):
        from sentibert.pretrain import _batch_losses
        from sentibert.tensor import Graph

        model = self._model(vocab)
        rng = np.random.default_rng(5)
        pairs = nsp_pairs(corpus, rng)[:3]
        batch = build_masked_batch(pairs, vocab, SMALL.max_len, 0.0, rng)
        with Graph() as g:
            mlm_loss, nsp_loss, _, _ = _batch_losses(batch, model, training=False, rng=None)
            assert mlm_loss is None
            g.backward(nsp_loss)
        # gradient flows into the token table through the embeddings, but the tied
        # mlm projection contributes nothing: with p=0 there are no mlm logits at all
        assert model.tables.token.grad is not None

    def test_fixed_seed_reproducible_trajectory(self, corpus, vocab):
        def run():
            model = self._model(vocab, seed=9)
            config = PretrainConfig(epochs=2, batch_size=4, mask_probability=0.15, seed=31)
            history = run_pretraining(corpus, model, config)
            return history, model.tables.token.data.copy()

        hist_a, weights_a = run()
        hist_b, weights_b = run()
        assert hist_a == hist_b
        np.testing.assert_array_equal(weights_a, weights_b)

    def test_history_rows_carry_honest_columns(self, corpus, vocab):
        model = self._model(vocab, seed=9)
        history = run_pretraining(corpus, model, PretrainConfig(epochs=2, batch_size=4, seed=31))
        assert [tuple(row) for row in history] == [HISTORY_COLUMNS] * 2
        assert [row["epoch"] for row in history] == [1, 2]
        for row in history:
            assert row["val_loss"] == row["mlm_loss"] + row["nsp_loss"]
            assert 0.0 <= row["mlm_acc"] <= 1.0

    def test_fifty_steps_reduce_mlm_loss(self, corpus, vocab):
        model = self._model(vocab, seed=1)
        rng = np.random.default_rng(17)
        pairs = nsp_pairs(corpus, rng)
        optimizer = self._optimizer(model, lr=2e-3)
        eval_batch = build_masked_batch(pairs, vocab, SMALL.max_len, 0.15, np.random.default_rng(99))
        initial = eval_losses(eval_batch, model)["mlm_loss"]
        for _ in range(50):
            batch = build_masked_batch(pairs[:4], vocab, SMALL.max_len, 0.15, rng)
            pretrain_step(batch, model, optimizer, rng=rng)
        final = eval_losses(eval_batch, model)["mlm_loss"]
        assert final < initial
