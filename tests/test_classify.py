import ctypes
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradcheck import tape_ops
from sentibert import encoder, tensor
from sentibert.classify import (
    TrainConfig,
    curve_to_csv,
    evaluate,
    forward_classify,
    kept_record,
    predict_batch,
    train,
)
from sentibert.data import LabeledExample
from sentibert.encoder import EncoderConfig
from sentibert.errors import ConfigError, ContractError
from sentibert.model import SentimentModel, eval_chunks
from sentibert.synthetic import generate_dataset, make_sentence
from sentibert.tensor import Graph, cross_entropy
from sentibert.tokenizer import build_vocab, encode_pair

TINY = EncoderConfig(num_layers=1, num_heads=2, d_model=16, d_ff=32, max_len=12, dropout_rate=0.1)

TOY = [
    LabeledExample("terrible dirty room", 0),
    LabeledExample("awful rude staff", 0),
    LabeledExample("worst noisy floor", 0),
    LabeledExample("plain ordinary place", 1),
    LabeledExample("average standard stay", 1),
    LabeledExample("wonderful lovely view", 2),
    LabeledExample("excellent friendly service", 2),
    LabeledExample("superb comfortable bed", 2),
]


def _model(dataset, seed=0, config=TINY):
    vocab = build_vocab([ex.text for ex in dataset], 500)
    return SentimentModel.init(vocab, config, seed=seed)


def _held_shapes(values) -> set:
    """Shapes of the arrays among values, inside lists and tuples too; a Tensor is an input and is skipped."""
    shapes = set()
    for value in values:
        if isinstance(value, np.ndarray):
            shapes.add(value.shape)
        elif isinstance(value, (list, tuple)):
            shapes |= _held_shapes(value)
    return shapes


class TestForwardClassify:
    def test_zeroed_head_gives_uniform(self):
        model = _model(TOY)
        model.params["classifier.weight"].data[:] = 0.0
        model.params["classifier.bias"].data[:] = 0.0
        probs = forward_classify("terrible dirty room", model)
        np.testing.assert_array_equal(probs, [1 / 3, 1 / 3, 1 / 3])

    def test_probabilities_normalized(self):
        model = _model(TOY)
        for ex in TOY:
            probs = forward_classify(ex.text, model)
            assert abs(probs.sum() - 1.0) < 1e-12
            assert np.all(probs > 0.0) and np.all(probs < 1.0)

    def test_empty_text_is_fine(self):
        model = _model(TOY)
        probs = forward_classify("", model)
        assert abs(probs.sum() - 1.0) < 1e-12

    @pytest.mark.parametrize("config", [EncoderConfig(num_layers=2, d_model=16, d_ff=32, max_len=12), EncoderConfig()])
    def test_equals_a_plain_numpy_forward_bit_for_bit(self, config):
        # one text is a batch whose plan is trivial: no padding, no chunks
        model = _model(TOY, seed=8, config=config)
        words = " ".join(ex.text for ex in TOY).split()
        long_text = " ".join(words[i % len(words)] for i in range(config.max_len + 5))
        texts = ("", "lovely room", "terrible dirty room awful rude staff", long_text)
        lengths = [encode_pair(text, None, model.vocab, config.max_len).real_length() for text in texts]
        assert lengths[0] == 2 and lengths[-1] == config.max_len  # [CLS] [SEP] alone; truncated at max_len
        for text in texts:
            assert np.array_equal(forward_classify(text, model), _plain_forward(text, model)), text


def _plain_softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _plain_norm(z: np.ndarray, gamma: np.ndarray, beta: np.ndarray) -> np.ndarray:
    centred = z - z.sum(axis=1, keepdims=True) / z.shape[1]
    return centred * (1.0 / np.sqrt((centred**2).sum(axis=1, keepdims=True) / z.shape[1] + 1e-5)) * gamma + beta


def _plain_forward(text: str, model: SentimentModel) -> np.ndarray:
    """forward_classify in plain numpy on the text's own rows: no tape, no
    padding, no batch plan; the same arithmetic in the same order, the last
    layer computing the [CLS] row only, with each head's key projection
    folded into its query and its value projection after the softmax."""
    config, p = model.config, {name: t.data for name, t in model.params.items()}
    seq = encode_pair(text, None, model.vocab, config.max_len)
    n, d, heads, d_k = seq.real_length(), config.d_model, config.num_heads, config.d_k
    x = p["embeddings.token"][seq.token_ids] + p["embeddings.segment"][seq.segment_ids] + p["embeddings.position"][:n]
    for i in range(config.num_layers):
        w = {name[len(f"encoder.{i}.") :]: a for name, a in p.items() if name.startswith(f"encoder.{i}.")}
        if i < config.num_layers - 1:
            q, k, v = (x @ w["wqkv"]).reshape(n, 3, heads, d_k).transpose(1, 2, 0, 3)  # each [heads, n, d_k]
            context = (_plain_softmax(q @ k.transpose(0, 2, 1) * (1.0 / np.sqrt(d_k))) @ v).transpose(1, 0, 2)
        else:
            w_q, w_k, w_v = w["wqkv"].reshape(d, 3, heads, d_k).transpose(1, 2, 0, 3)  # each [heads, d, d_k]
            q = x[:1] @ w_q * (1.0 / np.sqrt(d_k))  # [heads, 1, d_k]
            u = (q @ w_k.transpose(0, 2, 1)).transpose(1, 0, 2)  # [1, heads, d]: W_K^h q^h
            mixed = _plain_softmax(u @ x.T) @ x  # [1, heads, d]: each head's softmax-weighted rows
            context, x = (mixed.transpose(1, 0, 2) @ w_v).transpose(1, 0, 2), x[:1]
        y = _plain_norm(x + context.reshape(len(x), -1) @ w["wo"], w["ln1.gamma"], w["ln1.beta"])
        hidden = np.maximum(y @ w["ffn.w1"] + w["ffn.b1"], 0.0)
        x = _plain_norm(y + (hidden @ w["ffn.w2"] + w["ffn.b2"]), w["ln2.gamma"], w["ln2.beta"])
    return _plain_softmax(x @ p["classifier.weight"] + p["classifier.bias"])[0]


def test_every_text_entry_point_rejects_a_text_that_is_not_a_str():
    model = _model(TOY)
    calls = {
        "forward_classify": lambda: forward_classify(5, model),
        "predict_batch": lambda: predict_batch(["fine room", None], model),
        "build_vocab": lambda: build_vocab(["fine room", 3], 10),
        "encode_pair": lambda: encode_pair(b"room", None, model.vocab, 16),
        "encode_pair segment B": lambda: encode_pair("room", b"room", model.vocab, 16),
    }
    for name, call in calls.items():
        with pytest.raises(ContractError, match="^tokenize: text must be a str, got "):
            call()
            pytest.fail(name)


class TestPredictBatch:
    def test_empty(self):
        assert predict_batch([], _model(TOY)) == []

    def test_matches_forward_classify(self):
        model = _model(TOY)
        texts = [ex.text for ex in TOY[:4]]
        got = predict_batch(texts, model)
        for text, (label, probs) in zip(texts, got):
            expected = forward_classify(text, model)
            # a batch of one takes a vector product for its [CLS] head, so equal to 1 ULP, not bitwise
            np.testing.assert_allclose(probs, expected, atol=1e-12, rtol=0.0)
            assert label == int(np.argmax(expected))

    def test_tie_breaks_toward_lower_index(self):
        assert int(np.argmax(np.array([0.4, 0.4, 0.2]))) == 0


WORDS = sorted({w for ex in TOY for w in ex.text.split()})


def test_a_long_predict_batch_leaves_single_text_plans_warm():
    # a predict_batch over many ragged chunks turns the 64-entry batch memo
    # over; single texts keep their plans in a memo of their own
    model = _model(TOY, config=EncoderConfig(num_layers=1, num_heads=1, d_model=4, d_ff=4, max_len=64))
    words = " ".join(ex.text for ex in TOY).split()
    rng = np.random.default_rng(24)
    batch = [" ".join(rng.choice(words, size=int(rng.integers(1, 63)))) for _ in range(1500)]
    singles = ["lovely room", "terrible dirty room awful rude staff", " ".join(words)]
    for text in singles:
        forward_classify(text, model)
    before = tensor._padding_layout.cache_info()
    predict_batch(batch, model)
    assert tensor._padding_layout.cache_info().misses - before.misses > 64
    warm = tensor._sequence_layout.cache_info()
    for text in singles:
        forward_classify(text, model)
    assert tensor._sequence_layout.cache_info().misses == warm.misses


def _plan_lookups() -> int:
    """Lookups, hits or misses, of both batch-plan memos so far."""
    memos = (tensor._sequence_layout, tensor._padding_layout)
    return sum(info.hits + info.misses for info in (memo.cache_info() for memo in memos))


def test_a_forward_looks_its_batch_plan_up_once():
    # class_logits looks the plan up and hands it to the embedding and to every
    # layer's attention: one lookup per forward, however many layers run
    model = _model(TOY, config=EncoderConfig(num_layers=3, num_heads=2, d_model=8, d_ff=16, max_len=12))
    seqs = [encode_pair(ex.text, None, model.vocab, model.config.max_len) for ex in TOY]
    forwards = {
        "single text": lambda: forward_classify("lovely room", model),
        "batch": lambda: model.class_logits(seqs),
        "training step": lambda: model.class_logits(seqs, training=True, rng=np.random.default_rng(0)),
        "hidden states": lambda: model.hidden_states(seqs),
    }
    for name, forward in forwards.items():
        before = _plan_lookups()
        if name == "training step":
            with Graph():
                forward()
        else:
            forward()
        assert _plan_lookups() - before == 1, name


class TestBatchEquivalence:
    """The batched forward against the per-sequence semantics it replaced."""

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.lists(st.sampled_from(WORDS), max_size=14).map(" ".join), min_size=1, max_size=40))
    def test_predict_batch_rows_match_single_texts(self, texts):
        # mixed lengths (0-14 words, truncated at max_len 12) in every order hypothesis draws
        model = _model(TOY, seed=4)
        for text, (_, probs) in zip(texts, predict_batch(texts, model)):
            np.testing.assert_allclose(probs, forward_classify(text, model), atol=1e-12, rtol=0.0)

    @pytest.mark.parametrize("max_len", [12, 600])
    def test_mixed_one_token_and_full_length_texts_across_chunks(self, max_len):
        # at max_len 12 the first chunk mixes both lengths and the long texts fill two more;
        # at 600 each full-length text is over the slot budget and runs alone
        config = EncoderConfig(num_layers=1, num_heads=2, d_model=16, d_ff=32, max_len=max_len, dropout_rate=0.1)
        model = _model(TOY, seed=4, config=config)
        count = 100 if max_len == 12 else 4
        longs = [" ".join(WORDS[(i + j) % len(WORDS)] for j in range(max_len)) for i in range(count)]
        texts = list(np.random.default_rng(0).permutation(longs + [WORDS[i % len(WORDS)] for i in range(20)]))
        seqs = [encode_pair(t, None, model.vocab, max_len) for t in texts]
        chunks = eval_chunks(seqs)
        sizes = [[seqs[i].real_length() for i in chunk] for chunk in chunks]
        if max_len == 12:
            assert sizes == [[3] * 20 + [12] * 22, [12] * 42, [12] * 36]
        else:
            assert sizes == [[3] * 20] + [[600]] * 4
        for text, (label, probs) in zip(texts, predict_batch(texts, model)):
            expected = forward_classify(text, model)
            np.testing.assert_allclose(probs, expected, atol=1e-12, rtol=0.0)
            assert label == int(np.argmax(expected))

    def test_predict_batch_memory_peak(self):
        # 64 full-length texts at the default shape: the bound sits between chunks of
        # 16 sequences (6.9 MB traced) and of EVAL_SLOTS padded tokens (3.5 MB)
        texts = [" ".join(WORDS[(i + j) % len(WORDS)] for j in range(70)) for i in range(64)]
        model = _model(TOY, seed=0, config=EncoderConfig())
        predict_batch(texts[:2], model)  # warm lazy imports and caches outside the traced window
        tracemalloc.start()
        try:
            predict_batch(texts, model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5.0e6, f"predict_batch peaked at {peak / 1e6:.2f} MB traced"

    def test_batched_loss_and_gradients_are_the_mean_of_single_runs(self):
        config = EncoderConfig(num_layers=2, num_heads=2, d_model=16, d_ff=32, max_len=12, dropout_rate=0.0)
        texts = ["terrible", "awful rude staff and a noisy floor", "plain ordinary place", "wonderful lovely view"]
        labels = [0, 0, 1, 2]
        model = _model(TOY + [LabeledExample(t, 0) for t in texts], seed=5, config=config)
        seqs = [encode_pair(t, None, model.vocab, config.max_len) for t in texts]
        params = model.named_parameters("classifier")

        def run(idx):
            with Graph() as g:
                loss = cross_entropy(
                    model.class_logits([seqs[i] for i in idx], training=True, rng=np.random.default_rng(0)),
                    [labels[i] for i in idx],
                )
                g.backward(loss)
            grads = {n: t.grad for n, t in params.items()}
            for t in params.values():
                t.grad = None
            return loss.item(), grads

        batched_loss, batched = run(range(len(seqs)))
        singles = [run([i]) for i in range(len(seqs))]
        assert batched_loss == pytest.approx(np.mean([loss for loss, _ in singles]), abs=1e-12)
        for name, grad in batched.items():
            mean = np.mean([g[name] for _, g in singles], axis=0)
            np.testing.assert_allclose(grad, mean, atol=1e-12, rtol=0.0, err_msg=name)


    def test_default_fine_tuning_step_records_11_tape_nodes(self):
        # embedding 1 (one three-table gather); the first layer 4 (attention
        # with both its projections, two residual layer norms that apply their
        # dropout masks, one fused feed-forward); the last layer 4, as attend
        # at the [CLS] rows takes attention's place and its first norm reads
        # its residual at those rows; the head's linear and the loss 2
        model = _model(TOY, seed=2, config=EncoderConfig())
        seqs = [encode_pair(ex.text, None, model.vocab, model.config.max_len) for ex in TOY]
        with Graph() as g:
            cross_entropy(model.class_logits(seqs, training=True, rng=np.random.default_rng(0)), [ex.label for ex in TOY])
        assert len(g) == 11
        ops = {"gather_rows": 1, "attention": 1, "attend": 1, "layer_norm": 4, "ffn": 2, "linear": 1, "cross_entropy": 1}
        assert tape_ops(g) == ops

    def test_a_ragged_training_step_keeps_no_projection_copy_and_one_byte_masks(self, monkeypatch):
        # the [N x 3d] projection is a temporary inside attention: no tape node
        # outputs one, and attention's backward holds neither it nor a [slots x d]
        # context buffer; each of the step's four dropout masks takes one byte a slot
        model = _model(TOY, seed=2, config=EncoderConfig())
        texts = [" ".join(ex.text for ex in TOY[: 1 + i % 5]) for i in range(8)]
        seqs = [encode_pair(text, None, model.vocab, model.config.max_len) for text in texts]
        n, d = sum(len(seq.token_ids) for seq in seqs), model.config.d_model
        slots = tensor.batch_layout(tuple(len(seq.token_ids) for seq in seqs)).grids[-1].stop
        assert slots > n  # ragged: the slot buffer has padding
        masks, draw = [], encoder.dropout
        monkeypatch.setattr(encoder, "dropout", lambda *args: masks.append(draw(*args)) or masks[-1])
        with Graph() as g:
            cross_entropy(model.class_logits(seqs, training=True, rng=np.random.default_rng(0)), [0] * len(seqs))
        assert [mask.shape for mask in masks] == [(n, d)] * 4
        assert all(mask.dtype == np.bool_ and mask.itemsize == 1 for mask in masks)
        assert all(out.data.shape[1:] != (3 * d,) for out, _ in g._nodes)
        (backward,) = [fn for _, fn in g._nodes if fn.__qualname__.split(".")[0] == "attention"]
        held = _held_shapes([cell.cell_contents for cell in backward.__closure__])
        assert (slots, 3 * d) in held and (n, d) in held  # the q/k/v slot buffer, and the rows W_O multiplied
        assert (n, 3 * d) not in held and (slots, d) not in held


class TestTrain:
    def test_lr_zero_keeps_initialization(self):
        model = _model(TOY, seed=3)
        before = model.snapshot()
        trained, curve = train(TOY, TrainConfig(epochs=1, lr=0.0, batch_size=4, seed=0, val_split=0.25), model)
        assert len(curve) == 1
        after = trained.snapshot()
        for name in before:
            np.testing.assert_array_equal(before[name], after[name])

    def test_fixed_seed_reproducible(self):
        def run():
            model = _model(TOY, seed=3)
            _, curve = train(TOY, TrainConfig(epochs=3, batch_size=4, seed=11, val_split=0.25), model)
            return curve

        assert run() == run()

    def test_single_class_rejected(self):
        singles = [LabeledExample(f"text {i}", 1) for i in range(4)]
        with pytest.raises(ConfigError, match="negative.*positive"):
            train(singles, TrainConfig(epochs=1, val_split=0.25), _model(singles))

    def test_train_loss_decreases_on_separable_data(self):
        data = generate_dataset((40, 40, 40), seed=5)
        model = _model(data, seed=1, config=EncoderConfig(num_layers=1, num_heads=2, d_model=32, d_ff=64, max_len=16, dropout_rate=0.0))
        _, curve = train(data, TrainConfig(epochs=4, batch_size=8, seed=1), model)
        assert curve[-1]["train_loss"] < curve[0]["train_loss"]

    def test_monotone_overfit_small_dataset(self):
        # <=16 distinct texts must reach train accuracy 1.0 within 200 epochs
        config = EncoderConfig(num_layers=1, num_heads=2, d_model=16, d_ff=32, max_len=12, dropout_rate=0.0)
        model = _model(TOY, seed=2, config=config)
        _, curve = train(
            TOY,
            TrainConfig(epochs=200, batch_size=8, lr=3e-3, seed=2, val_split=0.25, keep_best=False),
            model,
        )
        assert max(r["train_acc"] for r in curve) == 1.0

    @pytest.mark.parametrize("lr", [1e-3, 0.2])  # 0.2 makes the val loss oscillate
    def test_keep_best_returns_best_validation_epoch(self, lr):
        from sentibert.classify import _partition_scores, _stratified_split
        from sentibert.tokenizer import encode_pair

        data = generate_dataset((30, 30, 30), seed=9)
        config = EncoderConfig(num_layers=1, num_heads=2, d_model=16, d_ff=32, max_len=16, dropout_rate=0.0)
        tc = TrainConfig(epochs=5, batch_size=8, lr=lr, seed=4, keep_best=True)
        model = _model(data, seed=4, config=config)
        model, curve = train(data, tc, model)
        # rebuild the split exactly as train() does (same seed, same rng order)
        _, val_idx = _stratified_split(data, tc.val_split, np.random.default_rng(tc.seed))
        val_seqs = [encode_pair(data[i].text, None, model.vocab, config.max_len) for i in val_idx]
        val_loss, _ = _partition_scores(val_seqs, [data[i].label for i in val_idx], model)
        assert val_loss == pytest.approx(min(r["val_loss"] for r in curve), abs=1e-9)

    def test_kept_epoch_is_the_epoch_whose_parameters_train_returns(self):
        # at seed 4 the best validation loss of 12 epochs falls before the last;
        # the same run stopped at that epoch without keep_best ends where it did
        data = generate_dataset((20, 20, 20), seed=0)
        config = EncoderConfig(num_layers=1, num_heads=2, d_model=32, d_ff=64, max_len=16)

        def run(epochs, keep_best):
            tc = TrainConfig(epochs=epochs, batch_size=8, lr=3e-3, seed=4, keep_best=keep_best)
            return train(data, tc, _model(data, seed=4, config=config))

        model, curve = run(12, True)
        kept = kept_record(curve, True)
        assert kept["epoch"] < len(curve)
        assert kept["val_loss"] == min(r["val_loss"] for r in curve)
        stopped, prefix = run(kept["epoch"], False)
        assert prefix == curve[: kept["epoch"]] and kept_record(prefix, False) is prefix[-1]
        kept_params = model.snapshot()
        for name, value in stopped.snapshot().items():
            np.testing.assert_array_equal(kept_params[name], value, err_msg=name)

    def test_kept_record_takes_the_first_of_equal_losses(self):
        curve = [{"epoch": e, "val_loss": v} for e, v in enumerate((0.5, 0.25, 0.25, 0.75), start=1)]
        assert kept_record(curve, True)["epoch"] == 2
        assert kept_record(curve, False)["epoch"] == 4

    def test_oversample_balance_strategy_trains_balanced(self):
        data = generate_dataset((6, 30, 30), seed=6)
        config = EncoderConfig(num_layers=1, num_heads=1, d_model=8, d_ff=16, max_len=12, dropout_rate=0.0)
        model = _model(data, seed=5, config=config)
        trained, curve = train(data, TrainConfig(epochs=1, batch_size=8, seed=5, balance="oversample"), model)
        assert len(curve) == 1  # smoke: the strategy wires through

    @pytest.mark.parametrize("val_split", [0.0, 1.0])
    def test_val_split_outside_the_open_interval_rejected(self, val_split):
        with pytest.raises(ConfigError, match=rf"^val_split must be in \(0, 1\), got {val_split}"):
            TrainConfig(val_split=val_split)

    def test_split_of_one_example_per_class_hands_one_back_to_training(self):
        # 0.6 of one example rounds to one: every example lands in validation first
        from sentibert.classify import _stratified_split

        singles = [LabeledExample(f"text {c}", c) for c in range(3)]
        train_idx, val_idx = _stratified_split(singles, 0.6, np.random.default_rng(0))
        assert len(train_idx) == 1 and len(val_idx) == 2
        assert sorted(train_idx + val_idx) == [0, 1, 2]

    def test_class_weights_come_only_from_the_balance_strategy(self):
        with pytest.raises(TypeError, match="class_weights"):
            TrainConfig(class_weights=[1.0, 1.0, 1.0])


class TestCurveFromSteps:
    """The curve's train columns come from the steps; only validation is re-scored."""

    @pytest.fixture
    def recorded(self, monkeypatch):
        """train() on an imbalanced set, recording every step loss, every step's
        argmax hits and every re-scored partition, each under its epoch."""
        from sentibert import classify

        steps, scored = [], []
        real_descend, real_cross_entropy = classify.descend, classify.cross_entropy
        real_scores = classify._partition_scores

        def descend(optimizer, where, loss_fn):
            value = real_descend(optimizer, where, loss_fn)
            steps[-1]["epoch"], steps[-1]["loss"] = int(where.split()[1].rstrip(",")), value
            return value

        def cross_entropy(logits, labels, weights=None):
            steps.append({"hits": int((logits.data.argmax(axis=1) == np.asarray(labels)).sum()), "n": len(labels)})
            return real_cross_entropy(logits, labels, weights)

        def partition_scores(seqs, labels, model):
            scored.append([s.token_ids for s in seqs])
            return real_scores(seqs, labels, model)

        monkeypatch.setattr(classify, "descend", descend)
        monkeypatch.setattr(classify, "cross_entropy", cross_entropy)
        monkeypatch.setattr(classify, "_partition_scores", partition_scores)

        def run(balance):
            data = generate_dataset((6, 12, 12), seed=31)
            config = TrainConfig(epochs=3, batch_size=4, lr=3e-3, seed=8, balance=balance)
            _, curve = train(data, config, _model(data, seed=8))
            return data, config, curve, steps, scored

        return run

    @pytest.mark.parametrize("balance", ["none", "oversample", "class_weights"])
    def test_train_loss_is_the_mean_of_the_epochs_step_losses(self, recorded, balance):
        _, config, curve, steps, _ = recorded(balance)
        assert len(curve) == config.epochs
        for record in curve:
            losses = [s["loss"] for s in steps if s["epoch"] == record["epoch"]]
            assert record["train_loss"] == pytest.approx(np.mean(losses), rel=1e-12)

    @pytest.mark.parametrize("balance", ["none", "oversample", "class_weights"])
    def test_train_acc_is_step_argmax_hits_over_training_examples(self, recorded, balance):
        _, _, curve, steps, _ = recorded(balance)
        examples = sum(s["n"] for s in steps if s["epoch"] == 1)  # the training partition, rebalanced
        for record in curve:
            epoch = [s for s in steps if s["epoch"] == record["epoch"]]
            assert sum(s["n"] for s in epoch) == examples
            assert record["train_acc"] == sum(s["hits"] for s in epoch) / examples

    def test_only_the_validation_partition_is_rescored_once_per_epoch(self, recorded):
        from sentibert.classify import _stratified_split

        data, config, curve, _, scored = recorded("none")
        _, val_idx = _stratified_split(data, config.val_split, np.random.default_rng(config.seed))
        vocab = _model(data).vocab
        val_ids = [encode_pair(data[i].text, None, vocab, TINY.max_len).token_ids for i in val_idx]
        assert scored == [val_ids] * len(curve)


class TestConcurrencyAndAlgorithms:
    def test_concurrent_eval_matches_serial(self):
        import concurrent.futures

        model = _model(TOY, seed=6)
        texts = [ex.text for ex in TOY] * 4
        serial = [forward_classify(t, model) for t in texts]
        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(lambda t: forward_classify(t, model), texts))
        for a, b in zip(serial, threaded):
            np.testing.assert_array_equal(a, b)

    def test_nested_graphs_rejected(self):
        from sentibert.tensor import Graph

        with Graph():
            with pytest.raises(ContractError):
                with Graph():
                    pass

    def test_sgd_training_path(self):
        model = _model(TOY, seed=7)
        _, curve = train(TOY, TrainConfig(epochs=2, batch_size=4, lr=0.05, seed=7, val_split=0.25, algorithm="sgd"), model)
        assert len(curve) == 2
        assert all(np.isfinite([r["train_loss"], r["val_loss"]]).all() for r in curve)


class TestEvaluate:
    def test_single_correct_example(self):
        model = _model(TOY, seed=1)
        probs = forward_classify("terrible dirty room", model)
        label = int(np.argmax(probs))
        rep, cm = evaluate(model, [LabeledExample("terrible dirty room", label)])
        assert rep.accuracy == 1.0
        assert cm[label, label] == 1

    def test_deterministic(self):
        model = _model(TOY, seed=1)
        a = evaluate(model, TOY)
        b = evaluate(model, TOY)
        assert a[0] == b[0]
        assert np.array_equal(a[1], b[1])

    def test_empty_dataset_rejected(self):
        with pytest.raises(ConfigError, match="^evaluate: empty dataset$"):
            evaluate(_model(TOY), [])

    def test_random_head_on_balanced_set_is_near_chance(self):
        data = generate_dataset((60, 60, 60), seed=8)
        model = _model(data, seed=12)  # untrained: logits are tiny, probs near-uniform
        rep, _ = evaluate(model, data)
        sigma = np.sqrt((1 / 3) * (2 / 3) / len(data))
        assert abs(rep.accuracy - 1 / 3) < 5 * sigma


COLUMNS = ("epoch", "train_loss", "train_acc", "val_loss", "val_acc")


class TestCurveCsv:
    def test_header_and_layout(self):
        curve = [dict(zip(COLUMNS, (1, 1.0, 0.5, 1.1, 0.4))), dict(zip(COLUMNS, (2, 0.5, 0.9, 0.6, 0.8)))]
        text = curve_to_csv(curve)
        lines = text.strip().split("\n")
        assert lines[0] == "epoch,train_loss,train_acc,val_loss,val_acc"
        assert lines[1] == "1,1.0,0.5,1.1,0.4"
        assert len(lines) == 3

    def test_header_is_the_records_keys(self):
        # a field added to the epoch record reaches the header instead of being dropped
        rows = [dict(zip(COLUMNS, (1, 1.0, 0.5, 1.1, 0.4)), lr=0.001), dict(zip(COLUMNS, (2, 0.5, 0.9, 0.6, 0.8)), lr=0.002)]
        lines = ["epoch,train_loss,train_acc,val_loss,val_acc,lr", "1,1.0,0.5,1.1,0.4,0.001", "2,0.5,0.9,0.6,0.8,0.002"]
        assert curve_to_csv(rows) == "\n".join(lines) + "\n"

    @pytest.mark.parametrize(
        "rows",
        [[], [{"epoch": 1, "loss": 0.5}, {"epoch": 2}], [{"epoch": 1, "loss": 0.5}, {"loss": 0.25, "epoch": 2}]],
        ids=["no-records", "missing-key", "reordered-keys"],
    )
    def test_records_that_do_not_share_their_keys_are_refused(self, rows):
        with pytest.raises(ContractError, match="same keys in the same order"):
            curve_to_csv(rows)


def _libc_mallopt():
    try:
        return getattr(ctypes.CDLL(None), "mallopt", None)
    except (OSError, TypeError):
        return None


@pytest.mark.skipif(_libc_mallopt() is None, reason="libc exposes no mallopt")
def test_a_warm_fine_tune_takes_almost_no_page_faults():
    # tensor.HEAP_TOP_PAD keeps each step's freed temporaries mapped; without it
    # every step faults them back in (about 5,600 faults for this fine-tune)
    resource = pytest.importorskip("resource")
    rng = np.random.default_rng(5)
    dataset = [
        LabeledExample(", and also ".join(make_sentence(i % 3, rng) for _ in range(1 + i % 7)) + " .", i % 3)
        for i in range(48)
    ]
    vocab = build_vocab([ex.text for ex in dataset], 4000)

    def minor_faults() -> int:
        model = SentimentModel.init(vocab, EncoderConfig(), 0)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        train(dataset, TrainConfig(epochs=1, batch_size=16, seed=0), model)
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

    minor_faults()  # the first run grows the heap
    assert minor_faults() < 500
