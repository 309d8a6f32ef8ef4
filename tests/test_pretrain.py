import math
import re
from pathlib import Path

import numpy as np
import pytest

from gradcheck import tape_ops
from sentibert import classify, pretrain, tensor
from sentibert.classify import TrainConfig
from sentibert.encoder import EncoderConfig
from sentibert.errors import ConfigError, ContractError, SamplingError
from sentibert.model import SentimentModel
from sentibert.optim import Adam
from sentibert.pretrain import (
    SENTINEL,
    MaskedBatch,
    PretrainConfig,
    _batch_losses,
    build_masked_batch,
    eval_losses,
    mask_tokens,
    nsp_pairs,
    pretrain_step,
    run_pretraining,
)
from sentibert.synthetic import generate_dataset, generate_documents
from sentibert.tensor import Graph, batch_layout, cross_entropy
from sentibert.tokenizer import CLS_ID, MASK_ID, NUM_SPECIALS, PAD_ID, SEP_ID, build_vocab, encode_pair

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

    def test_vocab_of_only_special_tokens_rejected_before_any_draw(self, vocab):
        seq = encode_pair("room", None, vocab, 12)
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigError, match="non-special vocab entry"):
            mask_tokens(seq, 0.15, rng, NUM_SPECIALS)
        assert rng.random() == np.random.default_rng(0).random()  # the generator was not advanced
        assert mask_tokens(seq, 0.0, rng, NUM_SPECIALS)[0].token_ids == seq.token_ids

    @pytest.mark.parametrize("p", [1.0, -0.1])
    def test_probability_outside_zero_to_one_rejected(self, vocab, p):
        seq = encode_pair("room", None, vocab, 12)
        with pytest.raises(ContractError, match=re.escape(f"mask probability must be in [0, 1), got {p}")):
            mask_tokens(seq, p, np.random.default_rng(0), len(vocab))

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

    @pytest.mark.parametrize("seed", [0, 1, 7, 123])
    def test_non_successor_draw_matches_the_list_of_other_documents(self, seed):
        # reference: draw an index into the list of every other document
        docs = [[f"d{d}s{s}" for s in range(2 + d % 3)] for d in range(6)]
        rng, expected = np.random.default_rng(seed), []
        for doc_index, doc in enumerate(docs):
            for first, successor in zip(doc, doc[1:]):
                if rng.random() < 0.5:
                    expected.append((first, successor, 1))
                else:
                    others = [i for i in range(len(docs)) if i != doc_index]
                    other_doc = docs[others[int(rng.integers(len(others)))]]
                    expected.append((first, other_doc[int(rng.integers(len(other_doc)))], 0))
        assert nsp_pairs(docs, np.random.default_rng(seed)) == expected
        assert any(label == 0 for _, _, label in expected)

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
        return Adam(model.named_parameters("nsp"), lr)

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
        before = model.params["nsp.weight"].data.copy()
        losses = pretrain_step(batch, model, self._optimizer(model), rng=rng)
        assert losses["mlm_loss"] == 0.0
        assert losses["nsp_loss"] > 0.0
        assert not np.array_equal(model.params["nsp.weight"].data, before)

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
            logits = hidden @ model.params["embeddings.token"].data.T
            shifted = logits - logits.max(axis=1, keepdims=True)
            log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
            for i, t in enumerate(targets):
                if t != SENTINEL:
                    per_position.append(-log_probs[i, t])
        assert per_position, "masking selected nothing; bump p or the seed"
        assert got == pytest.approx(float(np.mean(per_position)), abs=1e-12)

    def test_p_zero_leaves_token_table_mlm_free(self, corpus, vocab):
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
        assert model.params["embeddings.token"].grad is not None

    def test_default_pretraining_step_records_16_tape_nodes(self, corpus, vocab, monkeypatch):
        # the fine-tuning tape (test_classify) with the NSP head's linear at
        # the [CLS] rows in place of the classifier's, plus the tied MLM
        # head's linear at the masked rows and its loss; backward takes both
        # losses, so no node sums them
        model = SentimentModel.init(vocab, EncoderConfig(max_len=SMALL.max_len), seed=0)
        rng = np.random.default_rng(6)
        batch = build_masked_batch(nsp_pairs(corpus, rng)[:4], vocab, SMALL.max_len, 0.3, rng)
        assert any(t != SENTINEL for targets in batch.mlm_targets for t in targets)
        tapes = []
        backward = tensor.Graph.backward
        monkeypatch.setattr(tensor.Graph, "backward", lambda g, *losses: (tapes.append(tape_ops(g)), backward(g, *losses)))
        pretrain_step(batch, model, self._optimizer(model), rng=rng)
        ops = {"gather_rows": 1, "linear": 5, "attention": 1, "attend": 1, "layer_norm": 4, "ffn": 2, "cross_entropy": 2}
        assert tapes == [ops] and sum(ops.values()) == 16

    def test_a_pretraining_step_looks_its_batch_plan_up_once(self, corpus, vocab):
        # the [CLS] rows come from the plan that the embedding and every layer's attention then reuse
        model = SentimentModel.init(vocab, EncoderConfig(max_len=SMALL.max_len), seed=0)
        rng = np.random.default_rng(6)
        batch = build_masked_batch(nsp_pairs(corpus, rng)[:4], vocab, SMALL.max_len, 0.3, rng)
        memos = (tensor._sequence_layout, tensor._padding_layout)
        lookups = lambda: sum(info.hits + info.misses for info in (memo.cache_info() for memo in memos))
        before = lookups()
        pretrain_step(batch, model, self._optimizer(model), rng=rng)
        assert lookups() - before == 1

    def test_fixed_seed_reproducible_trajectory(self, corpus, vocab):
        def run():
            model = self._model(vocab, seed=9)
            config = PretrainConfig(epochs=2, batch_size=4, mask_probability=0.15, seed=31)
            history = run_pretraining(corpus, model, config)
            return history, model.params["embeddings.token"].data.copy()

        hist_a, weights_a = run()
        hist_b, weights_b = run()
        assert hist_a == hist_b
        np.testing.assert_array_equal(weights_a, weights_b)

    @pytest.mark.parametrize("task", ["pretrain", "finetune"])
    def test_non_finite_step_loss_stops_before_the_step(self, corpus, vocab, monkeypatch, task):
        # the step loss is checked before backward, so the weights keep their
        # values from before the failing step
        if task == "pretrain":
            model = self._model(vocab, seed=9)
            module, name = pretrain, "pretrain_step"
            run = lambda: run_pretraining(corpus, model, PretrainConfig(epochs=1, batch_size=4, seed=31, lr=1e300))
        else:
            data = generate_dataset((8, 8, 8), seed=31)
            model = SentimentModel.init(build_vocab([ex.text for ex in data], max_size=200), SMALL, seed=9)
            module, name = classify, "descend"
            run = lambda: classify.train(data, TrainConfig(epochs=1, batch_size=4, seed=31, lr=1e300), model)
        before = []
        step = getattr(module, name)

        def spy(*args, **kwargs):
            before.append(model.snapshot())
            return step(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
        with np.errstate(all="ignore"), pytest.raises(ConfigError, match=r"^epoch 1, step \d+: loss is (nan|inf)"):
            run()
        assert len(before) >= 2  # an earlier step did move the weights
        for name, value in model.snapshot().items():
            np.testing.assert_array_equal(value, before[-1][name], err_msg=name)

    def test_empty_corpus_is_a_config_error(self, vocab):
        with pytest.raises(ConfigError, match="corpus has no documents"):
            run_pretraining([], self._model(vocab), PretrainConfig(epochs=1))

    def test_history_rows_carry_honest_columns(self, corpus, vocab):
        model = self._model(vocab, seed=9)
        history = run_pretraining(corpus, model, PretrainConfig(epochs=2, batch_size=4, seed=31))
        columns = ("epoch", "train_loss", "val_loss", "mlm_loss", "nsp_loss", "mlm_acc")
        assert [tuple(row) for row in history] == [columns] * 2
        assert [row["epoch"] for row in history] == [1, 2]
        for row in history:
            assert row["val_loss"] == row["mlm_loss"] + row["nsp_loss"]
            assert 0.0 <= row["mlm_acc"] <= 1.0

    def test_an_empty_batch_is_refused(self, vocab):
        model, empty = self._model(vocab), MaskedBatch(sequences=[], mlm_targets=[], nsp_labels=[])
        with pytest.raises(ContractError, match="^pretrain_step: empty batch$"):
            pretrain_step(empty, model, self._optimizer(model))
        with pytest.raises(ContractError, match="^eval_losses: empty batch$"):
            eval_losses(empty, model)

    def test_eval_losses_returns_the_held_out_columns(self, corpus, vocab):
        # the history's eval-mode columns, in order, passed through unrenamed
        model = self._model(vocab, seed=9)
        rng = np.random.default_rng(4)
        held = eval_losses(build_masked_batch(nsp_pairs(corpus, rng), vocab, SMALL.max_len, 0.3, rng), model)
        assert tuple(held) == ("val_loss", "mlm_loss", "nsp_loss", "mlm_acc")
        assert held["val_loss"] == held["mlm_loss"] + held["nsp_loss"]
        history = run_pretraining(corpus, model, PretrainConfig(epochs=1, batch_size=4, seed=31))
        assert tuple(history[0])[2:] == tuple(held)

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

    def test_row_path_matches_the_full_path(self, corpus, vocab, monkeypatch):
        # _batch_losses computes the last layer only at the [CLS] and masked
        # rows; the full hidden states gathered at the same rows are the reference
        config = EncoderConfig(num_layers=2, num_heads=2, d_model=16, d_ff=32, max_len=24, dropout_rate=0.2)
        model = SentimentModel.init(vocab, config, seed=2)
        rng = np.random.default_rng(6)
        batch = build_masked_batch(nsp_pairs(corpus, rng)[:5], vocab, config.max_len, 0.3, rng)
        starts = batch_layout(tuple(seq.real_length() for seq in batch.sequences)).start.tolist()
        picked = [(s + i, t) for s, seq_targets in zip(starts, batch.mlm_targets) for i, t in enumerate(seq_targets)]
        rows, targets = zip(*[(r, t) for r, t in picked if t != SENTINEL])

        def run(full: bool):
            net = model.clone()
            seen = []
            nsp_logits = net.nsp_logits

            def spy(*args):
                seen.append(nsp_logits(*args))
                return seen[-1]

            monkeypatch.setattr(net, "nsp_logits", spy)
            with Graph() as graph:
                if full:
                    hidden = net.hidden_states(batch.sequences, True, np.random.default_rng(8))
                    logits = net.mlm_logits(hidden, list(rows))
                    mlm, mlm_logits = cross_entropy(logits, list(targets)), logits.data
                    nsp = cross_entropy(net.nsp_logits(hidden, starts), batch.nsp_labels)
                else:
                    mlm, nsp, mlm_logits, _ = _batch_losses(batch, net, True, np.random.default_rng(8))
                graph.backward(mlm, nsp)
            grads = {name: t.grad for name, t in net.params.items() if t.grad is not None}
            return seen[0].data, mlm_logits, grads

        cut_nsp, cut_mlm, cut_grads = run(full=False)
        full_nsp, full_mlm, full_grads = run(full=True)
        np.testing.assert_allclose(cut_nsp, full_nsp, atol=1e-12, rtol=0)
        np.testing.assert_allclose(cut_mlm, full_mlm, atol=1e-12, rtol=0)
        assert set(cut_grads) == set(full_grads) == set(model.named_parameters("nsp"))
        for name in full_grads:
            np.testing.assert_allclose(cut_grads[name], full_grads[name], atol=1e-12, rtol=0, err_msg=name)


def test_no_op_reaches_the_tape_without_a_graph(corpus, vocab, monkeypatch):
    # every op returns before building its backward when no graph records
    model = SentimentModel.init(vocab, SMALL, seed=0)
    rng = np.random.default_rng(7)
    batch = build_masked_batch(nsp_pairs(corpus, rng)[:5], vocab, SMALL.max_len, 0.3, rng)
    data = generate_dataset((2, 2, 2), seed=1)

    def no_tape(*args):
        raise AssertionError("an op reached the tape with no graph recording")

    monkeypatch.setattr(tensor, "_record", no_tape)
    classify.forward_classify(data[0].text, model)
    classify.predict_batch([ex.text for ex in data], model)
    classify.evaluate(model, data)
    assert eval_losses(batch, model)["mlm_acc"] >= 0.0


@pytest.mark.parametrize("doc", ["README.md", "PAPER.md"])
def test_the_documented_tape_breakdowns_match_real_steps(doc, corpus, vocab, monkeypatch):
    # the docs' two "By op that is ..." lists: a fine-tuning step's tape, then a pretraining step's
    text = " ".join((Path(__file__).resolve().parents[1] / doc).read_text(encoding="utf-8").split())
    documented = [
        {op: int(count) for op, count in re.findall(r"`(\w+)` (\d+)", breakdown)}
        for breakdown in re.findall(r"By op that is (.*?)\.", text)
    ]
    tapes = []
    backward = tensor.Graph.backward
    monkeypatch.setattr(tensor.Graph, "backward", lambda g, *losses: (tapes.append(tape_ops(g)), backward(g, *losses)))
    data = generate_dataset((4, 4, 4), seed=1)
    reviews = SentimentModel.init(build_vocab([ex.text for ex in data], max_size=200), EncoderConfig(), seed=0)
    classify.train(data, TrainConfig(epochs=1, batch_size=16, seed=0), reviews)
    rng = np.random.default_rng(6)
    batch = build_masked_batch(nsp_pairs(corpus, rng)[:4], vocab, SMALL.max_len, 0.3, rng)
    pairs = SentimentModel.init(vocab, EncoderConfig(max_len=SMALL.max_len), seed=0)
    pretrain_step(batch, pairs, Adam(pairs.named_parameters("nsp")), rng=rng)
    assert documented == tapes and len(tapes) == 2
