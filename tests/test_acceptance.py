"""Acceptance suite: one test per criterion, each at its stated tolerance,
printing a PASS line on success (pytest's FAILED line marks the failures).

Run with `pytest tests/test_acceptance.py -v -s` to see every verdict.
"""

import json
import math
import time

import numpy as np
import pytest

from gradcheck import check_gradients
from sentibert.balance import ClassHistogram, oversample, undersample
from sentibert.checkpoint import load_checkpoint, save_checkpoint
from sentibert.classify import TrainConfig, evaluate, train
from sentibert.cli import main as cli_main
from sentibert.data import LabeledExample, write_jsonl
from sentibert.encoder import EncoderConfig
from sentibert.metrics import (
    accuracy,
    confusion,
    f1_class,
    log_loss,
    precision_class,
    recall_class,
)
from sentibert.model import SentimentModel
from sentibert.pretrain import (
    build_masked_batch,
    eval_losses,
    nsp_pairs,
    pretrain_step,
)
from sentibert.optim import Adam
from sentibert.synthetic import generate_documents, generate_imbalanced, generate_split
from sentibert.tensor import batch_layout
from sentibert.tokenizer import SPECIAL_TOKENS, Vocab, build_vocab, encode_pair


def _ok(n: int, detail: str) -> None:
    print(f"\n[PASS] criterion {n}: {detail}")


def test_criterion_1_gradient_correctness():
    started = time.perf_counter()
    config = EncoderConfig(num_layers=2, num_heads=2, d_model=8, d_ff=16, max_len=4, dropout_rate=0.0)
    vocab = Vocab(list(SPECIAL_TOKENS) + [f"w{i}" for i in range(15)])  # V = 20
    assert len(vocab) == 20
    model = SentimentModel.init(vocab, config, seed=17)
    seq = encode_pair("w0 w3", None, vocab, config.max_len)  # [CLS] w0 w3 [SEP]: len 4

    from sentibert.tensor import cross_entropy

    def build():
        return cross_entropy(model.class_logits([seq]), [1])

    params = model.named_parameters("classifier")
    rng = np.random.default_rng(1001)
    checked = check_gradients(build, params, rng, probes=120, h=1e-5, rel=1e-4)
    elapsed = time.perf_counter() - started
    assert checked >= 100
    assert elapsed < 60.0
    _ok(1, f"{checked} coordinates within 1e-4 of central differences in {elapsed:.1f}s")


def _brute_force(preds, labels):
    n = len(labels)
    per_class = {}
    for c in range(3):
        tp = sum(1 for p, a in zip(preds, labels) if p == c and a == c)
        fp = sum(1 for p, a in zip(preds, labels) if p == c and a != c)
        fn = sum(1 for p, a in zip(preds, labels) if p != c and a == c)
        per_class[c] = (
            tp / (tp + fp) if tp + fp else 0.0,
            tp / (tp + fn) if tp + fn else 0.0,
            2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0,
        )
    return per_class, sum(1 for p, a in zip(preds, labels) if p == a) / n


def test_criterion_2_metric_oracle_equivalence():
    rng = np.random.default_rng(2002)
    for _ in range(1000):
        n = int(rng.integers(1, 51))
        preds = rng.integers(0, 3, n)
        labels = rng.integers(0, 3, n)
        cm = confusion(preds, labels)
        per_class, acc = _brute_force(preds, labels)
        assert abs(accuracy(cm) - acc) <= 1e-12
        for c in range(3):
            p, r, f = per_class[c]
            assert abs(precision_class(cm, c) - p) <= 1e-12
            assert abs(recall_class(cm, c) - r) <= 1e-12
            assert abs(f1_class(cm, c) - f) <= 1e-12
        probs = rng.random((n, 3)) + 1e-3
        probs /= probs.sum(axis=1, keepdims=True)
        manual = sum(-math.log(probs[i, labels[i]]) for i in range(n)) / n
        assert abs(log_loss(probs, labels) - manual) <= 1e-12

    # hand-worked examples hold exactly
    cm = np.array([[8, 2, 0], [2, 3, 0], [0, 0, 5]])
    assert precision_class(cm, 0) == 0.8
    assert recall_class(cm, 0) == 0.8
    assert f1_class(cm, 0) == 16 / 20
    assert accuracy(np.array([[30, 5, 0], [5, 30, 5], [0, 0, 25]])) == 0.85
    assert log_loss([[0.5, 0.25, 0.25], [0.25, 0.5, 0.25]], [0, 2]) == pytest.approx(
        (math.log(2) + math.log(4)) / 2, abs=1e-15
    )
    _ok(2, "1000 random sets match the brute-force recount within 1e-12")


def test_criterion_3_synthetic_corpus_learning():
    started = time.perf_counter()
    train_set, test_set = generate_split(600, 200, seed=13)
    assert len(train_set) >= 600 and len(test_set) >= 200
    vocab = build_vocab([ex.text for ex in train_set], max_size=4000)
    model = SentimentModel.init(vocab, EncoderConfig(), seed=13)  # desk-scale default
    model, curve = train(train_set, TrainConfig(epochs=5, batch_size=16, lr=1e-3, seed=13), model)
    losses = [r["train_loss"] for r in curve]
    assert len(losses) == 5
    assert all(b < a for a, b in zip(losses, losses[1:])), f"train loss not strictly decreasing: {losses}"
    rep, _ = evaluate(model, test_set)
    elapsed = time.perf_counter() - started
    assert rep.accuracy >= 0.90, f"test accuracy {rep.accuracy}"
    assert elapsed < 300.0
    _ok(3, f"test accuracy {rep.accuracy:.3f}, losses {['%.4f' % l for l in losses]}, {elapsed:.0f}s")


def test_criterion_4_pretraining_sanity():
    corpus = generate_documents(n_docs=5, sentences_per_doc=4, seed=41)  # 20 sentences
    sentences = [s for doc in corpus for s in doc]
    assert len(sentences) == 20
    vocab = build_vocab(sentences, max_size=500)
    config = EncoderConfig(num_layers=1, num_heads=2, d_model=32, d_ff=64, max_len=24, dropout_rate=0.0)
    model = SentimentModel.init(vocab, config, seed=42)

    rng = np.random.default_rng(43)
    pairs = nsp_pairs(corpus, rng)
    probe = build_masked_batch(pairs, vocab, config.max_len, 0.15, np.random.default_rng(44))
    initial = eval_losses(probe, model)
    assert initial["mlm_loss"] == pytest.approx(math.log(len(vocab)), rel=0.15)
    assert initial["nsp_loss"] == pytest.approx(math.log(2.0), rel=0.15)

    optimizer = Adam(model.named_parameters("nsp"), 1e-3)
    for _ in range(50):
        batch = build_masked_batch(pairs[:4], vocab, config.max_len, 0.15, rng)
        pretrain_step(batch, model, optimizer, rng=rng)
    final = eval_losses(probe, model)
    assert final["mlm_loss"] < initial["mlm_loss"]
    _ok(
        4,
        f"init mlm {initial['mlm_loss']:.3f} ~ ln V {math.log(len(vocab)):.3f}, "
        f"init nsp {initial['nsp_loss']:.3f} ~ ln 2 {math.log(2):.3f}, "
        f"mlm after 50 steps {final['mlm_loss']:.3f}",
    )


RATIOS = (0.1, 0.3, 0.4, 1.0)
STRATEGIES = ("none", "oversample", "undersample", "class_weights")


def test_criterion_5_imbalance_sweep():
    started = time.perf_counter()
    minority = 0
    _, test_set = generate_split(600, 200, seed=13)
    config = EncoderConfig(num_layers=1, num_heads=2, d_model=32, d_ff=64, max_len=16, dropout_rate=0.0)
    macro_f1 = {}
    minority_recall = {}
    for ratio in RATIOS:
        data = generate_imbalanced(100, ratio, minority, seed=101)
        vocab = build_vocab([ex.text for ex in data], max_size=2000)
        for strategy in STRATEGIES:
            model = SentimentModel.init(vocab, config, seed=7)
            tc = TrainConfig(epochs=3, batch_size=8, lr=1e-3, seed=7, keep_best=False, balance=strategy)
            model, _ = train(data, tc, model)
            rep, cm = evaluate(model, test_set)
            macro_f1[(ratio, strategy)] = rep.f1.macro
            minority_recall[(ratio, strategy)] = recall_class(cm, minority)

    header = "ratio   " + "".join(f"{s:>15}" for s in STRATEGIES)
    print("\nmacro-F1 by imbalance ratio and strategy")
    print(header)
    for ratio in RATIOS:
        print(f"{ratio:<8}" + "".join(f"{macro_f1[(ratio, s)]:>15.3f}" for s in STRATEGIES))
    print("minority recall at ratio 0.1: " + ", ".join(
        f"{s}={minority_recall[(0.1, s)]:.3f}" for s in STRATEGIES
    ))

    baseline = minority_recall[(0.1, "none")]
    for strategy in ("oversample", "undersample", "class_weights"):
        assert minority_recall[(0.1, strategy)] > baseline, (
            f"{strategy} recall {minority_recall[(0.1, strategy)]} does not exceed baseline {baseline}"
        )
    _ok(5, f"every rebalancing strategy beats baseline minority recall {baseline:.3f} at ratio 0.1 "
           f"({time.perf_counter() - started:.0f}s for the 16-run sweep)")


def test_criterion_6_rebalancing_exactness():
    rng = np.random.default_rng(6006)
    checked_over = checked_under = 0
    from collections import Counter

    for _ in range(1000):
        counts = [int(rng.integers(0, 12)) for _ in range(3)]
        if sum(1 for c in counts if c > 0) < 2:
            counts[int(rng.integers(3))] += 1
            counts[int(rng.integers(3))] += 1 + counts[0] % 3  # ensure two classes
        data = [
            LabeledExample(f"t{label}-{i}", label)
            for label, n in enumerate(counts)
            for i in range(n)
        ]
        original = Counter((ex.text, ex.label) for ex in data)

        over = oversample(data, rng)
        over_counts = [n for n in ClassHistogram.from_dataset(over).counts if n > 0]
        assert len(set(over_counts)) == 1
        assert original <= Counter((ex.text, ex.label) for ex in over)
        checked_over += 1

        if all(n > 0 for n in counts):
            under = undersample(data, rng)
            under_counts = ClassHistogram.from_dataset(under).counts
            assert len(set(under_counts)) == 1
            assert Counter((ex.text, ex.label) for ex in under) <= original
            checked_under += 1
    assert checked_over == 1000 and checked_under > 200
    _ok(6, f"{checked_over} oversample and {checked_under} undersample datasets exactly balanced, containment held")


def test_criterion_7_determinism_and_persistence(tmp_path):
    from sentibert.synthetic import generate_dataset

    data = generate_dataset((15, 15, 15), seed=71)
    write_jsonl(data, str(tmp_path / "train.jsonl"))
    write_jsonl(generate_dataset((8, 8, 8), seed=72), str(tmp_path / "test.jsonl"))
    config = {
        "seed": 5,
        "encoder": {"num_layers": 1, "num_heads": 2, "d_model": 16, "d_ff": 32, "max_len": 12, "dropout_rate": 0.1},
        "train": {"epochs": 2, "batch_size": 8, "lr": 0.001, "val_split": 0.25},
        "vocab": {"max_size": 500, "min_freq": 1},
        "paths": {
            "train_data": str(tmp_path / "train.jsonl"),
            "eval_data": str(tmp_path / "test.jsonl"),
            "vocab": str(tmp_path / "vocab.txt"),
            "checkpoint": str(tmp_path / "model.ckpt"),
            "curve": str(tmp_path / "curve.csv"),
            "metrics": str(tmp_path / "metrics.json"),
            "confusion": str(tmp_path / "confusion.csv"),
        },
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")

    assert cli_main(["build-vocab", "--config", str(config_path)]) == 0
    assert cli_main(["train", "--config", str(config_path), "--seed", "5"]) == 0
    assert cli_main(["evaluate", "--config", str(config_path)]) == 0
    curve_a = (tmp_path / "curve.csv").read_bytes()
    ckpt_a = (tmp_path / "model.ckpt").read_bytes()
    report_a = (tmp_path / "metrics.json").read_bytes()
    assert cli_main(["train", "--config", str(config_path), "--seed", "5"]) == 0
    assert cli_main(["evaluate", "--config", str(config_path)]) == 0
    assert (tmp_path / "curve.csv").read_bytes() == curve_a, "curve CSVs differ between identical runs"
    assert (tmp_path / "model.ckpt").read_bytes() == ckpt_a, "checkpoints differ between identical runs"
    assert (tmp_path / "metrics.json").read_bytes() == report_a, "report JSON differs between identical runs"

    # round-trip drift measured against a float64 in-memory model, not a reload
    vocab = Vocab.load(str(tmp_path / "vocab.txt"))
    enc_cfg = EncoderConfig(num_layers=1, num_heads=2, d_model=16, d_ff=32, max_len=12, dropout_rate=0.1)
    model = SentimentModel.init(vocab, enc_cfg, seed=5)
    model, _ = train(data, TrainConfig(epochs=2, batch_size=8, seed=5, val_split=0.25), model)
    rep_mem, _ = evaluate(model, data)
    save_checkpoint(model, str(tmp_path / "round.ckpt"))
    rep_disk, _ = evaluate(load_checkpoint(str(tmp_path / "round.ckpt")), data)
    assert abs(rep_mem.accuracy - rep_disk.accuracy) < 1e-4
    assert abs(rep_mem.log_loss - rep_disk.log_loss) < 1e-4
    _ok(7, "byte-identical reruns; round-trip drift "
           f"acc {abs(rep_mem.accuracy - rep_disk.accuracy):.2e}, "
           f"log_loss {abs(rep_mem.log_loss - rep_disk.log_loss):.2e}")


def test_criterion_8_mask_isolation():
    config = EncoderConfig(num_layers=2, num_heads=2, d_model=32, d_ff=64, max_len=16, dropout_rate=0.0)
    vocab = Vocab(list(SPECIAL_TOKENS) + [f"w{i}" for i in range(40)])
    model = SentimentModel.init(vocab, config, seed=88)
    rng = np.random.default_rng(808)

    def random_text(n_words: int) -> str:
        return " ".join(f"w{int(rng.integers(40))}" for _ in range(n_words))

    def neighbours(low: int, high: int):
        # two sequences of low..high-1 words
        return [encode_pair(random_text(int(rng.integers(low, high))), None, vocab, config.max_len) for _ in range(2)]

    def drift_between(probe, h_alone, pair) -> float:
        batch = [pair[0], probe, pair[1]]
        start = int(batch_layout(tuple(seq.real_length() for seq in batch)).start[1])
        h_batched = model.hidden_states(batch).data[start : start + probe.real_length()]
        return float(np.max(np.abs(h_alone - h_batched)))

    worst = 0.0
    for _ in range(100):
        real = int(rng.integers(3, config.max_len))  # at least CLS + token + SEP
        seq = encode_pair(random_text(real - 2), None, vocab, config.max_len)
        n_real = seq.real_length()
        h_alone = model.hidden_states([seq]).data
        # shorter neighbours (2..n_real-1 tokens): their keys are padded beside the probe's
        worst = max(worst, drift_between(seq, h_alone, neighbours(0, n_real - 2)))
        # longer neighbours (n_real+1..max_len tokens): the probe's own keys are padded
        worst = max(worst, drift_between(seq, h_alone, neighbours(n_real - 1, config.max_len - 1)))
    assert worst < 1e-9, f"real-position hidden states moved by {worst}"
    _ok(8, f"max real-position drift {worst:.2e} over 100 probes between shorter and between longer batch neighbours")
