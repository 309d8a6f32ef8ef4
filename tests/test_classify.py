import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sentibert.classify import (
    CURVE_HEADER,
    EpochRecord,
    TrainConfig,
    curve_to_csv,
    evaluate,
    forward_classify,
    predict_batch,
    train,
)
from sentibert.data import LabeledExample
from sentibert.encoder import EncoderConfig
from sentibert.errors import ConfigError
from sentibert.model import SentimentModel
from sentibert.synthetic import generate_dataset
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


class TestForwardClassify:
    def test_zeroed_head_gives_uniform(self):
        model = _model(TOY)
        model.cls_w.data[:] = 0.0
        model.cls_b.data[:] = 0.0
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


class TestBatchEquivalence:
    """The batched forward against the per-sequence semantics it replaced."""

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.lists(st.sampled_from(WORDS), max_size=14).map(" ".join), min_size=1, max_size=40))
    def test_predict_batch_rows_match_single_texts(self, texts):
        # mixed lengths (0-14 words, truncated at max_len 12) in every order hypothesis draws
        model = _model(TOY, seed=4)
        for text, (_, probs) in zip(texts, predict_batch(texts, model)):
            np.testing.assert_allclose(probs, forward_classify(text, model), atol=1e-12, rtol=0.0)

    def test_batched_loss_and_gradients_are_the_mean_of_single_runs(self):
        config = EncoderConfig(num_layers=2, num_heads=2, d_model=16, d_ff=32, max_len=12, dropout_rate=0.0)
        texts = ["terrible", "awful rude staff and a noisy floor", "plain ordinary place", "wonderful lovely view"]
        labels = [0, 0, 1, 2]
        model = _model(TOY + [LabeledExample(t, 0) for t in texts], seed=5, config=config)
        seqs = [encode_pair(t, None, model.vocab, config.max_len) for t in texts]
        params = {n: t for n, t in model.named_parameters().items() if not n.startswith("nsp.")}

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


    def test_default_fine_tuning_step_records_29_tape_nodes(self):
        # embedding 5 (three gathers, two adds); per layer 10 (Q/K/V matmul,
        # attention, W^O matmul, two dropouts, two residual adds, two layer
        # norms, one fused feed-forward); [CLS] gather, matmul, bias, loss 4
        model = _model(TOY, seed=2, config=EncoderConfig())
        seqs = [encode_pair(ex.text, None, model.vocab, model.config.max_len) for ex in TOY]
        with Graph() as g:
            cross_entropy(model.class_logits(seqs, training=True, rng=np.random.default_rng(0)), [ex.label for ex in TOY])
        assert len(g) == 29


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
        assert curve[-1].train_loss < curve[0].train_loss

    def test_monotone_overfit_small_dataset(self):
        # <=16 distinct texts must reach train accuracy 1.0 within 200 epochs
        config = EncoderConfig(num_layers=1, num_heads=2, d_model=16, d_ff=32, max_len=12, dropout_rate=0.0)
        model = _model(TOY, seed=2, config=config)
        _, curve = train(
            TOY,
            TrainConfig(epochs=200, batch_size=8, lr=3e-3, seed=2, val_split=0.25, keep_best=False),
            model,
        )
        assert max(r.train_acc for r in curve) == 1.0

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
        assert val_loss == pytest.approx(min(r.val_loss for r in curve), abs=1e-9)

    def test_oversample_balance_strategy_trains_balanced(self):
        data = generate_dataset((6, 30, 30), seed=6)
        config = EncoderConfig(num_layers=1, num_heads=1, d_model=8, d_ff=16, max_len=12, dropout_rate=0.0)
        model = _model(data, seed=5, config=config)
        trained, curve = train(data, TrainConfig(epochs=1, batch_size=8, seed=5, balance="oversample"), model)
        assert len(curve) == 1  # smoke: the strategy wires through

    def test_explicit_weights_and_strategy_conflict(self):
        with pytest.raises(ConfigError):
            TrainConfig(class_weights=[1.0, 1.0, 1.0], balance="class_weights")


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
        from sentibert.errors import ContractError
        from sentibert.tensor import Graph

        with Graph():
            with pytest.raises(ContractError):
                with Graph():
                    pass

    def test_sgd_training_path(self):
        model = _model(TOY, seed=7)
        _, curve = train(TOY, TrainConfig(epochs=2, batch_size=4, lr=0.05, seed=7, val_split=0.25, algorithm="sgd"), model)
        assert len(curve) == 2
        assert all(np.isfinite([r.train_loss, r.val_loss]).all() for r in curve)


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

    def test_random_head_on_balanced_set_is_near_chance(self):
        data = generate_dataset((60, 60, 60), seed=8)
        model = _model(data, seed=12)  # untrained: logits are tiny, probs near-uniform
        rep, _ = evaluate(model, data)
        sigma = np.sqrt((1 / 3) * (2 / 3) / len(data))
        assert abs(rep.accuracy - 1 / 3) < 5 * sigma


class TestCurveCsv:
    def test_header_and_layout(self):
        curve = [EpochRecord(1, 1.0, 0.5, 1.1, 0.4), EpochRecord(2, 0.5, 0.9, 0.6, 0.8)]
        text = curve_to_csv(curve)
        lines = text.strip().split("\n")
        assert lines[0] == CURVE_HEADER == "epoch,train_loss,train_acc,val_loss,val_acc"
        assert lines[1] == "1,1.0,0.5,1.1,0.4"
        assert len(lines) == 3

    def test_dict_rows_with_their_own_columns(self):
        rows = [{"epoch": 1, "loss": 0.25, "acc": 0.5, "unused": 9}]
        assert curve_to_csv(rows, ("epoch", "loss", "acc")) == "epoch,loss,acc\n1,0.25,0.5\n"
