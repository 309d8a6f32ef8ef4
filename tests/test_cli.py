import argparse
import copy
import csv
import errno
import json
import os
import re
import shutil
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sentibert import cli
from sentibert.checkpoint import save_checkpoint
from sentibert.classify import evaluate
from sentibert.cli import DEFAULT_CONFIG, FLAGS, SECTION_KEYS, main
from sentibert.data import LABELS, write_corpus, write_jsonl
from sentibert.encoder import EncoderConfig
from sentibert.fileio import write_file
from sentibert.model import SentimentModel
from sentibert.synthetic import generate_dataset, generate_documents
from sentibert.tokenizer import SPECIAL_TOKENS, build_vocab

TINY_ENCODER = {"num_layers": 1, "num_heads": 2, "d_model": 16, "d_ff": 32, "max_len": 12, "dropout_rate": 0.1}


def _make_workspace(tmp_path):
    data = generate_dataset((12, 12, 12), seed=21)
    write_jsonl(data, str(tmp_path / "train.jsonl"))
    write_jsonl(generate_dataset((6, 6, 6), seed=22), str(tmp_path / "test.jsonl"))
    write_corpus(generate_documents(4, 3, seed=23), str(tmp_path / "corpus.txt"))
    config = {
        "seed": 3,
        "encoder": TINY_ENCODER,
        "train": {"epochs": 2, "batch_size": 8, "lr": 0.001, "val_split": 0.25},
        "pretrain": {"epochs": 1, "batch_size": 4},
        "vocab": {"max_size": 400, "min_freq": 1},
        "paths": {
            "train_data": str(tmp_path / "train.jsonl"),
            "eval_data": str(tmp_path / "test.jsonl"),
            "pretrain_corpus": str(tmp_path / "corpus.txt"),
            "vocab": str(tmp_path / "vocab.txt"),
            "checkpoint": str(tmp_path / "model.ckpt"),
            "curve": str(tmp_path / "curve.csv"),
            "metrics": str(tmp_path / "metrics.json"),
            "confusion": str(tmp_path / "confusion.csv"),
            "rebalanced_data": str(tmp_path / "rebalanced.jsonl"),
            "histogram": str(tmp_path / "histogram.json"),
            "predictions": str(tmp_path / "predictions.jsonl"),
        },
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    return tmp_path, config_path, config


@pytest.fixture
def workspace(tmp_path):
    return _make_workspace(tmp_path)


def run_cli(*argv):
    return main(list(argv))


class TestPipeline:
    def test_full_pipeline(self, workspace, capsys):
        tmp, config_path, config = workspace
        assert run_cli("build-vocab", "--config", str(config_path)) == 0
        assert (tmp / "vocab.txt").exists()

        assert run_cli("train", "--config", str(config_path)) == 0
        assert (tmp / "model.ckpt").exists()
        curve_lines = (tmp / "curve.csv").read_text().strip().split("\n")
        assert curve_lines[0] == "epoch,train_loss,train_acc,val_loss,val_acc"
        assert len(curve_lines) == 3  # header + 2 epochs

        assert run_cli("evaluate", "--config", str(config_path)) == 0
        metrics = json.loads((tmp / "metrics.json").read_text())
        assert set(metrics) == {"precision", "recall", "f1", "accuracy", "log_loss", "degenerate_flags"}
        assert (tmp / "confusion.csv").read_text().startswith(",negative,neutral,positive")

        (tmp / "texts.txt").write_text("the room was lovely\nthe room was terrible\n", encoding="utf-8")
        assert run_cli("predict", "--config", str(config_path), "--input", str(tmp / "texts.txt")) == 0
        pred_lines = (tmp / "predictions.jsonl").read_text().strip().split("\n")
        assert len(pred_lines) == 2
        for line in pred_lines:
            record = json.loads(line)
            assert record["label"] in LABELS
            assert abs(sum(record["probabilities"]) - 1.0) < 1e-9

        assert run_cli("report", "--config", str(config_path)) == 0
        out = capsys.readouterr().out
        assert "accuracy" in out and "macro" in out

    def test_pretrain_then_finetune(self, workspace, capsys):
        tmp, config_path, config = workspace
        assert run_cli("build-vocab", "--config", str(config_path)) == 0
        assert run_cli("pretrain", "--config", str(config_path)) == 0
        assert (tmp / "model.ckpt").exists()
        curve = (tmp / "curve.csv").read_text().strip().split("\n")
        assert curve[0] == "epoch,train_loss,val_loss,mlm_loss,nsp_loss,mlm_acc"

        # reuse the pretrained checkpoint as the fine-tuning start
        config["paths"]["init_checkpoint"] = str(tmp / "model.ckpt")
        config["paths"]["checkpoint"] = str(tmp / "finetuned.ckpt")
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert run_cli("train", "--config", str(config_path)) == 0
        assert (tmp / "finetuned.ckpt").exists()

    def test_train_determinism_byte_identical(self, workspace):
        tmp, config_path, _ = workspace
        assert run_cli("build-vocab", "--config", str(config_path)) == 0
        assert run_cli("train", "--config", str(config_path), "--seed", "7") == 0
        first_curve = (tmp / "curve.csv").read_bytes()
        first_ckpt = (tmp / "model.ckpt").read_bytes()
        assert run_cli("train", "--config", str(config_path), "--seed", "7") == 0
        assert (tmp / "curve.csv").read_bytes() == first_curve
        assert (tmp / "model.ckpt").read_bytes() == first_ckpt

    def test_final_train_loss_is_the_curves_last_step_mean(self, workspace, capsys, monkeypatch):
        from sentibert import classify

        tmp, config_path, config = workspace
        assert run_cli("build-vocab", "--config", str(config_path)) == 0
        last_epoch = []
        real_descend = classify.descend

        def descend(optimizer, where, loss_fn):
            value = real_descend(optimizer, where, loss_fn)
            if where.startswith(f"epoch {config['train']['epochs']},"):
                last_epoch.append(value)
            return value

        monkeypatch.setattr(classify, "descend", descend)
        capsys.readouterr()
        assert run_cli("train", "--config", str(config_path)) == 0
        emitted = json.loads(capsys.readouterr().out)
        curve_last = (tmp / "curve.csv").read_text().strip().split("\n")[-1].split(",")
        assert emitted["final_train_loss"] == float(curve_last[1]) == float(np.mean(last_epoch))

    def test_train_line_names_the_epoch_the_checkpoint_holds(self, workspace, capsys, monkeypatch):
        # at seed 0 the best validation loss of 8 epochs falls at epoch 6: the
        # line's kept_* keys name the epoch whose snapshot train restores
        from sentibert import classify

        tmp, config_path, config = workspace
        config["train"].update(epochs=8, lr=0.003)
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert run_cli("build-vocab", "--config", str(config_path)) == 0
        scored, taken, restored = [], [], []
        real_scores, real_snapshot, real_load = (
            classify._partition_scores, SentimentModel.snapshot, SentimentModel.load_snapshot
        )
        monkeypatch.setattr(classify, "_partition_scores", lambda *a: scored.append(1) or real_scores(*a))
        snapshot = lambda m: taken.append((len(scored), real_snapshot(m))) or taken[-1][1]
        monkeypatch.setattr(SentimentModel, "snapshot", snapshot)
        monkeypatch.setattr(SentimentModel, "load_snapshot", lambda m, a: restored.append(a) or real_load(m, a))
        capsys.readouterr()
        assert run_cli("train", "--config", str(config_path), "--seed", "0") == 0
        emitted = json.loads(capsys.readouterr().out)
        rows = list(csv.DictReader((tmp / "curve.csv").read_text().splitlines()))
        [epoch] = [e for e, arrays in taken if any(arrays is r for r in restored)]
        assert emitted["kept_epoch"] == epoch == 6 < emitted["epochs"]
        assert emitted["kept_val_acc"] == float(rows[epoch - 1]["val_acc"]) != emitted["final_val_acc"]
        assert emitted["final_val_acc"] == float(rows[-1]["val_acc"])

    def test_without_keep_best_the_kept_epoch_is_the_last(self, workspace, capsys):
        tmp, config_path, config = workspace
        config["train"]["keep_best"] = False
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert run_cli("build-vocab", "--config", str(config_path)) == 0
        capsys.readouterr()
        assert run_cli("train", "--config", str(config_path)) == 0
        emitted = json.loads(capsys.readouterr().out)
        assert emitted["kept_epoch"] == emitted["epochs"] == 2
        assert emitted["kept_val_acc"] == emitted["final_val_acc"]

    def test_evaluate_perfect_fixture(self, workspace, capsys):
        tmp, config_path, config = workspace
        assert run_cli("build-vocab", "--config", str(config_path)) == 0
        assert run_cli("train", "--config", str(config_path)) == 0
        # label a fresh file with the model's own predictions
        texts = [f"the {n} was fine" for n in ("room", "pool", "lobby")]
        (tmp / "texts.txt").write_text("\n".join(texts) + "\n", encoding="utf-8")
        assert run_cli("predict", "--config", str(config_path), "--input", str(tmp / "texts.txt")) == 0
        records = [json.loads(l) for l in (tmp / "predictions.jsonl").read_text().strip().split("\n")]
        fixture = tmp / "perfect.jsonl"
        fixture.write_text(
            "\n".join(json.dumps({"text": t, "label": r["label"]}) for t, r in zip(texts, records)) + "\n",
            encoding="utf-8",
        )
        config["paths"]["eval_data"] = str(fixture)
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert run_cli("evaluate", "--config", str(config_path)) == 0
        metrics = json.loads((tmp / "metrics.json").read_text())
        assert metrics["accuracy"] == 1.0

    def test_predict_without_output_path_prints_jsonl(self, workspace, capsys):
        tmp, config_path, config = workspace
        assert run_cli("build-vocab", "--config", str(config_path)) == 0
        assert run_cli("train", "--config", str(config_path)) == 0
        capsys.readouterr()
        del config["paths"]["predictions"]
        config_path.write_text(json.dumps(config), encoding="utf-8")
        (tmp / "texts.txt").write_text("one fine room\n", encoding="utf-8")
        assert run_cli("predict", "--config", str(config_path), "--input", str(tmp / "texts.txt")) == 0
        out_lines = capsys.readouterr().out.strip().split("\n")
        assert len(out_lines) == 1
        assert json.loads(out_lines[0])["label"] in LABELS

    def test_rebalance_oversample_counts(self, workspace, capsys):
        tmp, config_path, config = workspace
        skewed = generate_dataset((10, 30, 90), seed=30)
        write_jsonl(skewed, str(tmp / "skewed.jsonl"))
        config["paths"]["train_data"] = str(tmp / "skewed.jsonl")
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert run_cli("rebalance", "--config", str(config_path), "--balance", "oversample") == 0
        payload = json.loads((tmp / "histogram.json").read_text())
        assert payload["before"]["counts"] == {"negative": 10, "neutral": 30, "positive": 90}
        assert payload["after"]["counts"] == {"negative": 90, "neutral": 90, "positive": 90}
        rebalanced = (tmp / "rebalanced.jsonl").read_text().strip().split("\n")
        assert len(rebalanced) == 270


class TestErrorPaths:
    def test_missing_config_is_usage_error(self, capsys):
        assert run_cli("train", "--config", "/nonexistent/config.json") == 1
        err = capsys.readouterr().err.strip()
        payload = json.loads(err)
        assert payload["error"] == "usage"

    def test_unknown_command_is_usage_error(self, capsys):
        assert run_cli("frobnicate") == 1
        assert json.loads(capsys.readouterr().err.strip())["error"] == "usage"

    def test_no_command_is_usage_error(self, capsys):
        assert run_cli() == 1
        assert json.loads(capsys.readouterr().err.strip()) == {
            "error": "usage",
            "message": "no command given (expected one of: " + ", ".join(COMMANDS) + ")",
        }

    def test_config_that_is_not_an_object_is_usage_error(self, workspace, capsys):
        tmp, config_path, _ = workspace
        config_path.write_text("[1, 2]", encoding="utf-8")
        assert run_cli("build-vocab", "--config", str(config_path)) == 1
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload == {"error": "usage", "message": f"config {config_path} must hold a JSON object"}

    def test_build_vocab_with_no_input_is_usage_error(self, workspace, capsys):
        tmp, config_path, config = workspace
        del config["paths"]["train_data"], config["paths"]["pretrain_corpus"]
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert run_cli("build-vocab", "--config", str(config_path)) == 1
        payload = json.loads(capsys.readouterr().err.strip())
        message = "build-vocab needs paths.train_data and/or paths.pretrain_corpus"
        assert payload == {"error": "usage", "message": message}
        assert not (tmp / "vocab.txt").exists()

    def test_missing_input_path_is_usage_error(self, workspace, capsys):
        tmp, config_path, config = workspace
        config["paths"]["train_data"] = str(tmp / "missing.jsonl")
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert run_cli("build-vocab", "--config", str(config_path)) == 1
        assert json.loads(capsys.readouterr().err.strip())["error"] == "usage"

    def test_malformed_dataset_is_data_error(self, workspace, capsys):
        tmp, config_path, config = workspace
        (tmp / "train.jsonl").write_text('{"text": "x", "label": "Positive"}\n', encoding="utf-8")
        assert run_cli("build-vocab", "--config", str(config_path)) == 2
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "data"
        assert "line 1" in payload["message"]

    def test_label_that_is_not_a_string_is_data_error(self, workspace, capsys):
        tmp, config_path, _ = workspace
        (tmp / "train.jsonl").write_text('{"text": "nice room", "label": ["positive"]}\n', encoding="utf-8")
        assert run_cli("build-vocab", "--config", str(config_path)) == 2
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "data"
        assert f"{tmp / 'train.jsonl'}: line 1: unknown label" in payload["message"]

    def test_csv_field_past_the_csv_modules_limit_is_data_error(self, workspace, capsys):
        tmp, config_path, config = workspace
        long_text = "lovely " * 20_000  # 140,000 characters: past csv's 131,072-character field limit
        (tmp / "train.csv").write_text(f"text,label\nfine room,neutral\n{long_text},positive\n", encoding="utf-8")
        config["paths"]["train_data"] = str(tmp / "train.csv")
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert run_cli("build-vocab", "--config", str(config_path)) == 2
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "data"
        assert f"{tmp / 'train.csv'}: line 3: field larger than field limit" in payload["message"]

        # the same text is no problem to the JSONL reader
        (tmp / "train.jsonl").write_text(json.dumps({"text": long_text, "label": "positive"}) + "\n", encoding="utf-8")
        config["paths"]["train_data"] = str(tmp / "train.jsonl")
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert run_cli("build-vocab", "--config", str(config_path)) == 0

    def test_json_integer_past_the_digit_limit_is_a_data_or_usage_error(self, workspace, capsys):
        tmp, config_path, config = workspace
        long_int = "1" * 5000  # past sys.get_int_max_str_digits(): int() refuses it
        (tmp / "train.jsonl").write_text('{"text": "x", "label": "positive", "n": %s}\n' % long_int, encoding="utf-8")
        assert run_cli("build-vocab", "--config", str(config_path)) == 2
        assert f"{tmp / 'train.jsonl'}: line 1: invalid JSON" in json.loads(capsys.readouterr().err)["message"]
        config_path.write_text(json.dumps(config)[:-1] + ', "seed": %s}' % long_int, encoding="utf-8")
        assert run_cli("build-vocab", "--config", str(config_path)) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "usage"

    def test_corrupt_checkpoint_is_data_error(self, workspace, capsys):
        tmp, config_path, _ = workspace
        (tmp / "model.ckpt").write_bytes(b"garbage")
        assert run_cli("evaluate", "--config", str(config_path)) == 2
        assert json.loads(capsys.readouterr().err.strip())["error"] == "data"

    def test_internal_error_maps_to_3(self, workspace, capsys, monkeypatch):
        from sentibert.errors import ContractError

        tmp, config_path, _ = workspace
        (tmp / "model.ckpt").write_bytes(b"ignored")

        def boom(path):
            raise ContractError("invariant breached")

        monkeypatch.setattr("sentibert.cli.load_checkpoint", boom)
        assert run_cli("evaluate", "--config", str(config_path)) == 3
        assert json.loads(capsys.readouterr().err.strip())["error"] == "internal"

    def test_rebalance_rejects_class_weights(self, workspace, capsys):
        _, config_path, _ = workspace
        assert run_cli("rebalance", "--config", str(config_path), "--balance", "class_weights") == 1
        assert json.loads(capsys.readouterr().err.strip())["error"] == "usage"

    def test_single_class_training_is_data_error(self, workspace, capsys):
        tmp, config_path, config = workspace
        write_jsonl(generate_dataset((8, 0, 0), seed=1), str(tmp / "train.jsonl"))
        assert run_cli("build-vocab", "--config", str(config_path)) == 0
        assert run_cli("train", "--config", str(config_path)) == 2
        assert json.loads(capsys.readouterr().err.strip())["error"] == "data"


VALID_RECORD = b'{"text": "the room was fine", "label": "neutral"}\n'
# case -> (command, file, its bytes, the line the message names)
def _set(path, value):
    """Config mutation: set the dotted key path to value."""

    def mutate(config):
        *parents, last = path.split(".")
        target = config
        for key in parents:
            target = target.setdefault(key, {})
        target[last] = value

    return mutate


NOT_UTF8 = {  # case: command, file, its bytes, line of the bad byte, exit code
    "dataset holds byte 0xff": (
        "build-vocab",
        "train.jsonl",
        VALID_RECORD + b'{"text": "bad \xff", "label": "neutral"}\n',
        2,
        2,
    ),
    "record text is a lone surrogate": (
        "build-vocab",
        "train.jsonl",
        VALID_RECORD * 2 + b'{"text": "bad \\ud800 text", "label": "neutral"}\n',
        3,
        2,
    ),
    "corpus holds byte 0xff": ("build-vocab", "corpus.txt", b"a fine sentence\n\nanother one\n\xff\n", 4, 2),
    "vocab holds byte 0xff": ("train", "vocab.txt", b"[PAD]\n[UNK]\n[CLS]\n[SEP]\n[MASK]\nroom\n\xffw\n", 7, 2),
    "predict input holds byte 0xff": ("predict", "texts.txt", b"the room was fine\n\xff\n", 2, 2),
    "config holds byte 0xff": ("build-vocab", "config.json", b'{"seed": 3,\n "paths": {"vocab": "v\xff.txt"}}\n', 2, 1),
    "metrics file holds byte 0xff": ("report", "metrics.json", b'{"accuracy": 1.0,\n "log_loss": "\xff"}\n', 2, 2),
}
INPUT_FLAGS = {"predict": "--input", "report": "--metrics"}


@pytest.mark.parametrize("case", sorted(NOT_UTF8))
def test_text_that_is_not_utf8_is_data_error_naming_file_and_line(workspace, capsys, case):
    # a config file is the one text input whose bad bytes are a usage error (exit 1)
    tmp, config_path, _ = workspace
    command, name, content, line, code = NOT_UTF8[case]
    if command == "predict":
        assert run_cli("build-vocab", "--config", str(config_path)) == 0
        assert run_cli("train", "--config", str(config_path)) == 0
    (tmp / name).write_bytes(content)
    capsys.readouterr()
    extra = [INPUT_FLAGS[command], str(tmp / name)] if command in INPUT_FLAGS else []
    assert run_cli(command, "--config", str(config_path), *extra) == code
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == {1: "usage", 2: "data"}[code]
    assert str(tmp / name) in payload["message"] and f"line {line}:" in payload["message"]


def _report_dict():
    return {
        "precision": {"per_class": [1.0, 0.5, 0.0], "macro": 0.5},
        "recall": {"per_class": [1.0, 0.5, 0.0], "macro": 0.5},
        "f1": {"per_class": [1.0, 0.5, 0.0], "macro": 0.5},
        "accuracy": 0.75,
        "log_loss": 0.6,
        "degenerate_flags": ["precision.positive"],
    }


BAD_REPORTS = {
    "accuracy is a string": (_set("accuracy", "x"), "accuracy"),
    "accuracy is null": (_set("accuracy", None), "accuracy"),
    "one precision per class": (_set("precision.per_class", [1.0]), "precision.per_class"),
    "recall macro is NaN": (_set("recall.macro", float("nan")), "recall.macro"),
    "f1 per class holds a bool": (_set("f1.per_class", [1.0, True, 0.0]), "f1.per_class"),
    "flags hold a number": (_set("degenerate_flags", [3]), "degenerate_flags"),
    "log_loss missing": (lambda raw: raw.pop("log_loss"), "log_loss"),
    "f1 macro past the float range": (_set("f1.macro", 10**400), "f1.macro"),
    "empty object": (lambda raw: raw.clear(), "precision.per_class"),
}


@pytest.mark.parametrize("case", sorted(BAD_REPORTS))
def test_report_on_a_mistyped_metrics_file_is_data_error_naming_it(workspace, capsys, case):
    tmp, config_path, _ = workspace
    mutate, field = BAD_REPORTS[case]
    raw = _report_dict()
    mutate(raw)
    (tmp / "metrics.json").write_text(json.dumps(raw), encoding="utf-8")
    assert run_cli("report", "--config", str(config_path)) == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "data"
    assert str(tmp / "metrics.json") in payload["message"] and field in payload["message"]


def test_report_renders_a_well_formed_metrics_file(workspace, capsys):
    tmp, config_path, _ = workspace
    (tmp / "metrics.json").write_text(json.dumps(_report_dict()), encoding="utf-8")
    assert run_cli("report", "--config", str(config_path)) == 0
    out = capsys.readouterr().out
    assert "accuracy  0.7500" in out and "degenerate metrics: precision.positive" in out


def test_console_entry_point(workspace):
    _, config_path, _ = workspace
    proc = subprocess.run(
        [sys.executable, "-m", "sentibert", "build-vocab", "--config", str(config_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout.strip())["command"] == "build-vocab"


BAD_CONFIGS = [
    pytest.param("train", _set("encoder.num_layer", 9), "encoder.num_layer", id="encoder.num_layer-train"),
    pytest.param("train", _set("trian", {"epochs": 1}), "trian", id="trian-train"),
    pytest.param("pretrain", _set("pretrain.seed", 4), "pretrain.seed", id="pretrain.seed-pretrain"),
    pytest.param("build-vocab", _set("vocab.max_len", 10), "vocab.max_len", id="vocab.max_len-build-vocab"),
    pytest.param("train", _set("paths.curvee", "c.csv"), "paths.curvee", id="paths.curvee-train"),
    pytest.param("rebalance", _set("seed", "x"), "seed", id="seed-string-rebalance"),
    pytest.param("rebalance", _set("seed", -1), "seed", id="seed-negative-rebalance"),
    pytest.param("build-vocab", _set("vocab.max_size", "abc"), "max_size", id="max_size-build-vocab"),
    pytest.param("train", _set("train.epochs", 2.5), "epochs", id="epochs-train"),
    pytest.param("train", _set("train.keep_best", "no"), "keep_best", id="keep_best-train"),
    pytest.param("train", _set("train.algorithm", "adamw"), "adamw", id="adamw-train"),
    pytest.param(
        "train", _set("train.class_weights", [1.0, 1.0, 1.0]), "train.class_weights",
        id="train.class_weights-train",
    ),  # balance sets the weights
    pytest.param("train", _set("encoder.num_layers", 1.5), "num_layers", id="num_layers-train"),
    pytest.param("train", _set("encoder.max_len", 2), "max_len", id="max_len-train"),
    pytest.param("train", _set("encoder.d_model", 0), "d_model", id="d_model-train"),
    pytest.param("pretrain", _set("pretrain.lr", "fast"), "lr", id="lr-pretrain"),
    pytest.param("pretrain", _set("pretrain.mask_probability", 1.5), "mask_probability", id="mask_probability-pretrain"),
    pytest.param("train", _set("paths.vocab", 5), "paths.vocab", id="paths.vocab-train"),
    pytest.param("train", _set("paths.curve", "c\0.csv"), "paths.curve", id="paths.curve-train"),
    pytest.param("train", _set("paths.checkpoint", "\ud800"), "paths.checkpoint", id="paths.checkpoint-train"),
    pytest.param("train", _set("paths.data_format", "xml"), "paths.data_format", id="paths.data_format-train"),
    pytest.param("train", _set("train.seed", 4), "train.seed", id="train.seed-train"),  # seed and balance are top-level only
    pytest.param("train", _set("train.balance", "oversample"), "train.balance", id="train.balance-train"),
    pytest.param("pretrain", _set("encoder.num_layers", -1), "num_layers", id="num_layers-pretrain"),
    pytest.param("train", _set("encoder.num_heads", 3), "divisible", id="divisible-train"),
    pytest.param("train", _set("encoder.dropout_rate", 1.0), "dropout_rate", id="dropout_rate-train"),
    # sizes past the 128 TiB address space, so numpy refuses the allocation at once
    pytest.param(
        "train", _set("encoder.d_model", 2**42), "bad encoder config: too large to allocate",
        id="bad encoder config: too large to allocate-d_model-train",
    ),
    pytest.param(
        "pretrain", _set("encoder.max_len", 2**42), "bad encoder config: too large to allocate",
        id="bad encoder config: too large to allocate-pretrain",
    ),
    pytest.param(
        "train", _set("encoder.d_ff", 2**42), "bad encoder config: too large to allocate",
        id="bad encoder config: too large to allocate-d_ff-train",
    ),
    # weights counted against physical memory before the shape table of 10**7 layers is built
    pytest.param("train", _set("encoder.num_layers", 10**7), "parameters need", id="parameters need-train"),
    pytest.param("pretrain", _set("encoder.num_layers", 10**7), "parameters need", id="parameters need-pretrain"),
]


def test_bad_config_ids_are_unique():
    # pytest numbers repeated ids by position, so a new row would rename existing tests
    ids = [row.id for row in BAD_CONFIGS]
    assert len(set(ids)) == len(ids)


@pytest.mark.parametrize("command, mutate, named", BAD_CONFIGS)
def test_bad_config_is_usage_error_naming_the_key(workspace, capsys, command, mutate, named):
    _assert_usage_error_naming(workspace, capsys, command, mutate, named)


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("train", "train.lr", 10**400),
        ("pretrain", "pretrain.lr", 10**400),
    ],
)
def test_number_past_the_float_range_is_usage_error_naming_the_key(workspace, capsys, command, key, value):
    # JSON allows integers of any size; float() of this one overflows
    _assert_usage_error_naming(workspace, capsys, command, _set(key, value), key.split(".")[1])


def _assert_usage_error_naming(workspace, capsys, command, mutate, named):
    tmp, config_path, config = workspace
    assert run_cli("build-vocab", "--config", str(config_path)) == 0
    config = copy.deepcopy(config)  # the sections may be shared module constants
    mutate(config)
    config_path.write_text(json.dumps(config), encoding="utf-8")
    capsys.readouterr()
    assert run_cli(command, "--config", str(config_path)) == 1
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "usage"
    assert named in payload["message"]
    assert not (tmp / "model.ckpt").exists()


@pytest.mark.parametrize(
    "encoder, named",
    [
        ({"num_layers": 4, "d_model": 0, "dropout_rate": 0.5}, "d_model"),  # invalid, as without a checkpoint
        ({"num_layers": 4}, "encoder.num_layers"),
        ({**TINY_ENCODER, "dropout_rate": 0.5}, "encoder.dropout_rate"),
        ({}, None),  # an empty section takes the checkpoint's shape
    ],
)
def test_encoder_section_must_agree_with_the_init_checkpoint(workspace, capsys, encoder, named):
    tmp, config_path, config = workspace
    assert run_cli("build-vocab", "--config", str(config_path)) == 0
    assert run_cli("pretrain", "--config", str(config_path)) == 0
    config = copy.deepcopy(config)
    config["encoder"] = encoder
    config["paths"]["init_checkpoint"] = str(tmp / "model.ckpt")
    config["paths"]["checkpoint"] = str(tmp / "finetuned.ckpt")
    config_path.write_text(json.dumps(config), encoding="utf-8")
    capsys.readouterr()
    if named is None:
        assert run_cli("train", "--config", str(config_path)) == 0
        return
    assert run_cli("train", "--config", str(config_path)) == 1
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "usage" and named in payload["message"]
    assert not (tmp / "finetuned.ckpt").exists()


def test_output_path_that_is_a_directory_is_usage_error(workspace, capsys):
    tmp, config_path, config = workspace
    assert run_cli("build-vocab", "--config", str(config_path)) == 0
    config["paths"]["checkpoint"] = str(tmp)
    config_path.write_text(json.dumps(config), encoding="utf-8")
    capsys.readouterr()
    assert run_cli("train", "--config", str(config_path)) == 1
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "usage" and str(tmp) in payload["message"]


def test_pretrain_lr_reaches_the_optimizer(workspace):
    from sentibert.checkpoint import load_checkpoint
    from sentibert.encoder import EncoderConfig
    from sentibert.model import SentimentModel
    from sentibert.tokenizer import Vocab

    tmp, config_path, config = workspace
    assert run_cli("build-vocab", "--config", str(config_path)) == 0
    config["pretrain"]["lr"] = 0.0
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert run_cli("pretrain", "--config", str(config_path)) == 0
    initial = SentimentModel.init(Vocab.load(str(tmp / "vocab.txt")), EncoderConfig(**TINY_ENCODER), seed=3)
    loaded = load_checkpoint(str(tmp / "model.ckpt"))
    for name, t in loaded.named_parameters().items():
        np.testing.assert_array_equal(t.data, initial.named_parameters()[name].data.astype(np.float32))


def test_non_finite_checkpoint_is_data_error(workspace, capsys):
    tmp, config_path, _ = workspace
    assert run_cli("build-vocab", "--config", str(config_path)) == 0
    assert run_cli("train", "--config", str(config_path)) == 0
    blob = bytearray((tmp / "model.ckpt").read_bytes())
    blob[-4:] = np.float32(np.nan).tobytes()  # last value of the last tensor
    (tmp / "model.ckpt").write_bytes(bytes(blob))
    (tmp / "texts.txt").write_text("one fine room\n", encoding="utf-8")
    capsys.readouterr()
    assert run_cli("predict", "--config", str(config_path), "--input", str(tmp / "texts.txt")) == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "data" and "non-finite" in payload["message"]


@pytest.mark.parametrize("command", ["train", "pretrain"])
def test_diverging_training_stops_before_writing(workspace, command):
    tmp, config_path, config = workspace
    assert run_cli("build-vocab", "--config", str(config_path)) == 0
    config[command]["lr"] = 1e300
    config_path.write_text(json.dumps(config), encoding="utf-8")
    # a separate process: stderr must hold the JSON line alone, no numpy warnings
    proc = subprocess.run(
        [sys.executable, "-m", "sentibert", command, "--config", str(config_path)], capture_output=True, text=True
    )
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    payload = json.loads(proc.stderr)
    assert payload["error"] == "data"
    assert re.match(r"epoch 1, step \d+: loss is (nan|inf), not finite", payload["message"]), payload["message"]
    assert not (tmp / "model.ckpt").exists() and not (tmp / "curve.csv").exists()


FUZZ_CONFIG = {
    "seed": 3,
    "balance": "none",
    "encoder": {"num_layers": 1, "num_heads": 2, "d_model": 8, "d_ff": 8, "max_len": 12, "dropout_rate": 0.1},
    "train": {"epochs": 1, "batch_size": 8, "lr": 0.001, "val_split": 0.25},
    "pretrain": {"epochs": 1, "batch_size": 4, "mask_probability": 0.15, "lr": 0.001},
    "vocab": {"max_size": 100, "min_freq": 1},
    "paths": {
        "train_data": "train.jsonl",
        "pretrain_corpus": "corpus.txt",
        "vocab": "vocab.txt",
        "checkpoint": "model.ckpt",
        "curve": "curve.csv",
    },
}
# every top-level key and every key build-vocab, train or pretrain reads;
# a pretrain key runs build-vocab and pretrain, any other build-vocab and train
FUZZ_KEYS = [(key,) for key in FUZZ_CONFIG]
FUZZ_KEYS += [
    (section, key) for section in ("encoder", "train", "pretrain", "vocab") for key in sorted(SECTION_KEYS[section])
]
FUZZ_KEYS += [("paths", key) for key in (*FUZZ_CONFIG["paths"], "data_format")]
# bounded: a valid but huge count ("epochs": 10**9) would make a run endless;
# no "/": a fuzzed path stays inside the example's directory or its parent
fuzz_text = st.text(st.characters(blacklist_characters="/"), max_size=6)
fuzz_leaves = st.none() | st.booleans() | st.integers(-3, 40) | st.floats() | fuzz_text
fuzz_values = fuzz_leaves | st.lists(fuzz_leaves, max_size=4)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(key=st.sampled_from(FUZZ_KEYS), value=fuzz_values)
def test_fuzzed_config_never_exits_internal(tmp_path, monkeypatch, capsys, key, value):
    config = copy.deepcopy(FUZZ_CONFIG)
    target = config
    for part in key[:-1]:
        target = target[part]
    target[key[-1]] = value
    with tempfile.TemporaryDirectory(dir=tmp_path) as workdir:
        monkeypatch.chdir(workdir)  # fuzzed relative paths land here
        write_jsonl(generate_dataset((4, 4, 4), seed=21), "train.jsonl")
        write_corpus(generate_documents(4, 3, seed=23), "corpus.txt")
        with open("config.json", "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        for command in ("build-vocab", "pretrain" if key[0] == "pretrain" and len(key) == 2 else "train"):
            code = run_cli(command, "--config", "config.json")
            assert code in (0, 1, 2), (command, key, value, capsys.readouterr().err)


# input file -> the commands that read it, in order
FUZZ_INPUTS = {
    "train.jsonl": ("build-vocab", "train"),
    "train.csv": ("build-vocab", "train"),
    "vocab.txt": ("train", "pretrain"),
    "corpus.txt": ("build-vocab", "pretrain"),
    "texts.txt": ("predict",),
    "metrics.json": ("report",),
}
CSV_FIELD_LIMIT = 131_072  # the csv module's default csv.field_size_limit()


def _write_valid_inputs() -> None:
    """Every FUZZ_INPUTS file, valid, in the current directory."""
    data = generate_dataset((4, 4, 4), seed=21)
    write_jsonl(data, "train.jsonl")
    with open("train.csv", "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([("text", "label")] + [(ex.text, LABELS[ex.label]) for ex in data])
    write_corpus(generate_documents(4, 3, seed=23), "corpus.txt")
    vocab = build_vocab([ex.text for ex in data], 100)
    vocab.save("vocab.txt")
    model = SentimentModel.init(vocab, EncoderConfig(**FUZZ_CONFIG["encoder"]), seed=3)
    save_checkpoint(model, "model.ckpt")
    write_file("texts.txt", "".join(ex.text + "\n" for ex in data[:4]))
    write_file("metrics.json", evaluate(model, data)[0].to_json() + "\n")


@st.composite
def damaged_input(draw, valid: bytes) -> bytes:
    kind = draw(st.sampled_from(["text", "truncate", "flip", "line", "long field"]))
    if kind == "text":
        return draw(st.text(max_size=200)).encode("utf-8")
    if kind == "truncate":
        return valid[: draw(st.integers(0, len(valid) - 1))]
    if kind == "flip":
        out = bytearray(valid)
        for i in draw(st.lists(st.integers(0, len(valid) - 1), min_size=1, max_size=4)):
            out[i] = draw(st.integers(0, 255))
        return bytes(out)
    lines = valid.decode("utf-8").split("\n")
    if kind == "line":
        lines[draw(st.integers(0, len(lines) - 1))] = draw(st.text(max_size=60))
    else:  # one word, and so the field holding it, repeated past the csv module's limit
        i = draw(st.sampled_from([j for j, line in enumerate(lines) if re.search(r"\w", line)]))
        word = draw(st.sampled_from(re.findall(r"\w+", lines[i])))
        lines[i] = lines[i].replace(word, word * (CSV_FIELD_LIMIT // len(word) + 1), 1)
    return "\n".join(lines).encode("utf-8")


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(name=st.sampled_from(sorted(FUZZ_INPUTS)), data=st.data())
def test_damaged_input_files_never_exit_internal(tmp_path, monkeypatch, capsys, name, data):
    config = copy.deepcopy(FUZZ_CONFIG)
    config["paths"].update(predict_input="texts.txt", metrics="metrics.json")
    if name == "train.csv":
        config["paths"]["train_data"] = name
    with tempfile.TemporaryDirectory(dir=tmp_path) as workdir:
        monkeypatch.chdir(workdir)
        _write_valid_inputs()
        with open(name, "rb") as fh:
            damaged = data.draw(damaged_input(fh.read()), label=name)
        with open(name, "wb") as fh:
            fh.write(damaged)
        with open("config.json", "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        capsys.readouterr()
        for command in FUZZ_INPUTS[name]:
            code = run_cli(command, "--config", "config.json")
            assert code in (0, 1, 2), (command, name, capsys.readouterr().err)


COMMANDS = ("build-vocab", "pretrain", "train", "evaluate", "predict", "rebalance", "report")
# one bad value per section; the message must name every part of its key
BAD_VALUES = {
    "encoder.d_model": 0,
    "train.epochs": 2.5,
    "pretrain.mask_probability": 1.5,
    "vocab.max_size": "abc",
    "balance": "bogus",
    "seed": "x",
    "paths.data_format": "xml",
}


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A workspace after build-vocab, train and evaluate: every file any command reads exists."""
    root, config_path, config = _make_workspace(tmp_path_factory.mktemp("trained"))
    (root / "texts.txt").write_text("the room was lovely\n", encoding="utf-8")
    config["paths"]["predict_input"] = str(root / "texts.txt")
    config_path.write_text(json.dumps(config), encoding="utf-8")
    for command in ("build-vocab", "train", "evaluate"):
        assert run_cli(command, "--config", str(config_path)) == 0
    return root, config


@pytest.mark.parametrize("key", sorted(BAD_VALUES))
@pytest.mark.parametrize("command", COMMANDS)
def test_every_command_checks_every_key(trained, tmp_path, capsys, command, key):
    root, config = trained
    work = tmp_path / "work"
    shutil.copytree(root, work)
    config = copy.deepcopy(config)
    config["paths"] = {name: path.replace(str(root), str(work)) for name, path in config["paths"].items()}
    _set(key, BAD_VALUES[key])(config)
    (work / "config.json").write_text(json.dumps(config), encoding="utf-8")
    before = {path.name: path.read_bytes() for path in work.iterdir()}
    capsys.readouterr()
    assert run_cli(command, "--config", str(work / "config.json")) == 1
    out, err = capsys.readouterr()
    payload = json.loads(err.strip())
    assert payload["error"] == "usage"
    assert all(part in payload["message"] for part in key.split(".")), payload["message"]
    assert out == "" and {path.name: path.read_bytes() for path in work.iterdir()} == before


@pytest.mark.parametrize("key, value", [("seed", "x"), ("seed", -1), ("balance", "bogus")])
@pytest.mark.parametrize("command", ["build-vocab", "pretrain", "rebalance", "train"])
def test_bad_top_level_value_is_reported_as_a_top_level_key(workspace, capsys, command, key, value):
    # seed and balance live at the top of the config, not in the train section
    _, config_path, config = workspace
    config_path.write_text(json.dumps({**config, key: value}), encoding="utf-8")
    assert run_cli(command, "--config", str(config_path)) == 1
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "usage"
    assert payload["message"].startswith(f"bad config: {key} "), payload["message"]


@pytest.mark.parametrize("command, flag", [("evaluate", "--epochs"), ("build-vocab", "--seed")])
def test_flag_on_a_command_that_does_not_read_its_key_is_usage_error(workspace, capsys, command, flag):
    _, config_path, _ = workspace
    assert run_cli(command, "--config", str(config_path), flag, "1") == 1
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "usage" and flag in payload["message"]


def test_every_optional_flag_overrides_one_config_key():
    subcommands = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(subcommands.choices) == set(COMMANDS)
    for command, parser in subcommands.choices.items():
        for action in parser._actions:
            if not action.option_strings or action.required or isinstance(action, argparse._HelpAction):
                continue
            (flag,) = action.option_strings
            assert flag in FLAGS and command in FLAGS[flag][1], (command, flag)
            section, _, name = action.dest.rpartition(".")
            assert name in (SECTION_KEYS[section] if section else DEFAULT_CONFIG), (command, flag, action.dest)


@pytest.mark.parametrize("doc", ["README.md", "PAPER.md"])
def test_the_documented_example_config_loads(tmp_path, doc):
    text = (Path(__file__).resolve().parents[1] / doc).read_text(encoding="utf-8")
    example = re.search(r"A config file:\s*```json\n(.*?)```", text, re.S).group(1)
    (tmp_path / "run.json").write_text(example, encoding="utf-8")
    args = cli._build_parser().parse_args(["train", "--config", str(tmp_path / "run.json")])
    cfg = cli._load_config(args)
    assert cfg["train"].epochs == json.loads(example)["train"]["epochs"]


# command -> the paths keys it reads; OPTIONAL_INPUTS are read only when set
REQUIRED_INPUTS = {
    "pretrain": ("vocab", "pretrain_corpus"),
    "train": ("train_data", "vocab"),
    "evaluate": ("checkpoint", "eval_data"),
    "predict": ("checkpoint", "predict_input"),
    "rebalance": ("train_data",),
    "report": ("metrics",),
}
OPTIONAL_INPUTS = {"build-vocab": ("train_data", "pretrain_corpus"), "train": ("init_checkpoint",)}
INPUT_KEY_FLAGS = {"predict_input": "--input", "metrics": "--metrics"}


def _paths_failure(trained, tmp_path, capsys, command, key, value):
    """The usage message of command run with paths.<key> set to value (None: unset);
    the run writes no file, changes none and prints nothing on stdout."""
    root, config = trained
    config = copy.deepcopy(config)
    if value is None:
        config["paths"].pop(key, None)
    else:
        config["paths"][key] = value
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
    before = {path.name: path.read_bytes() for path in root.iterdir()}
    capsys.readouterr()
    assert run_cli(command, "--config", str(tmp_path / "config.json")) == 1
    out, err = capsys.readouterr()
    assert out == "" and {path.name: path.read_bytes() for path in root.iterdir()} == before
    payload = json.loads(err.strip())
    assert payload["error"] == "usage"
    return payload["message"]


@pytest.mark.parametrize("command, key", [(c, k) for c, keys in REQUIRED_INPUTS.items() for k in keys])
def test_unset_input_is_usage_error_naming_its_key_and_flag(trained, tmp_path, capsys, command, key):
    flag = INPUT_KEY_FLAGS.get(key)
    via = f"{flag} or " if flag else ""
    message = _paths_failure(trained, tmp_path, capsys, command, key, None)
    assert message == f"{command} needs {via}paths.{key} in the config"


@pytest.mark.parametrize(
    "command, key", [(c, k) for inputs in (REQUIRED_INPUTS, OPTIONAL_INPUTS) for c, ks in inputs.items() for k in ks]
)
def test_missing_input_file_is_usage_error_naming_its_key(trained, tmp_path, capsys, command, key):
    missing = str(tmp_path / "missing" / key)
    message = _paths_failure(trained, tmp_path, capsys, command, key, missing)
    assert message == f"paths.{key} does not exist: {missing}"


@pytest.mark.parametrize("doc", ["README.md", "PAPER.md"])
def test_the_documented_flag_table_matches_flags(doc):
    text = (Path(__file__).resolve().parents[1] / doc).read_text(encoding="utf-8")
    table = re.search(r"^\| flag \| overrides \| commands \|\n\|[-|]+\|\n((?:\|.*\n)+)", text, re.M).group(1)
    documented = {}
    for row in table.splitlines():
        flag, keys, commands = (cell.strip() for cell in row.strip("|").split("|"))
        documented[flag.strip("`")] = (set(re.findall(r"`([^`]+)`", keys)), tuple(commands.split(", ")))
    assert documented == {
        flag: ({key.format(command=c) for c in commands}, commands) for flag, (key, commands, _) in FLAGS.items()
    }


DEEP = "[" * 100_000  # past any parser's recursion limit
# case -> command, file, its text, exit code, what the message names besides the file
DEEPLY_NESTED = {
    "config": ("build-vocab", "config.json", DEEP, 1, "config"),
    "metrics file": ("report", "metrics.json", DEEP, 2, "metrics.json: JSON"),
    "dataset label": ("build-vocab", "train.jsonl", VALID_RECORD.decode() + '{"text": "x", "label": ' + DEEP, 2, "line 2:"),
}


@pytest.mark.parametrize("case", sorted(DEEPLY_NESTED))
def test_deeply_nested_json_fails_with_its_inputs_exit_code(workspace, capsys, case):
    tmp, config_path, _ = workspace
    command, name, text, code, named = DEEPLY_NESTED[case]
    (tmp / name).write_text(text, encoding="utf-8")
    assert run_cli(command, "--config", str(config_path)) == code
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == {1: "usage", 2: "data"}[code]
    assert str(tmp / name) in payload["message"] and named in payload["message"]
    assert "nested too deeply" in payload["message"]


BAD_VOCABS = {
    "missing specials": ("room\nlovely\n", "vocab must start with the special tokens"),
    "duplicate token": ("[PAD]\n[UNK]\n[CLS]\n[SEP]\n[MASK]\nroom\nroom\n", "vocab contains duplicate tokens"),
}


@pytest.mark.parametrize("command", ["train", "pretrain"])
@pytest.mark.parametrize("case", sorted(BAD_VOCABS))
def test_bad_vocab_is_data_error_naming_key_and_file(workspace, capsys, command, case):
    tmp, config_path, _ = workspace
    text, library_message = BAD_VOCABS[case]
    (tmp / "vocab.txt").write_text(text, encoding="utf-8")
    assert run_cli(command, "--config", str(config_path)) == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "data"
    assert payload["message"].startswith(f"paths.vocab {tmp / 'vocab.txt'}: {library_message}")
    assert not (tmp / "model.ckpt").exists()


TRUNCATED_HEADER = struct.pack("<I", 100) + b"{}"
LIST_HEADER = struct.pack("<I", 3) + b"[1]"


@pytest.mark.parametrize(
    "command, key, blob, library_message",
    [
        ("evaluate", "checkpoint", TRUNCATED_HEADER, "checkpoint header is truncated"),
        ("predict", "checkpoint", TRUNCATED_HEADER, "checkpoint header is truncated"),
        ("train", "init_checkpoint", LIST_HEADER, "checkpoint header must be a JSON object, got list"),
    ],
    ids=["evaluate", "predict", "train"],
)
def test_bad_checkpoint_is_data_error_naming_key_and_file(workspace, capsys, command, key, blob, library_message):
    tmp, config_path, config = workspace
    bad = tmp / "bad.ckpt"
    bad.write_bytes(blob)
    (tmp / "texts.txt").write_text("the room was lovely\n", encoding="utf-8")
    config["paths"].update({key: str(bad), "predict_input": str(tmp / "texts.txt")})
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert run_cli(command, "--config", str(config_path)) == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload == {"error": "data", "message": f"paths.{key} {bad}: {library_message}"}
    assert not any((tmp / name).exists() for name in ("model.ckpt", "metrics.json", "predictions.jsonl"))


@pytest.mark.parametrize("raw, kind", [([1, 2], "an array"), (None, "null")])
def test_report_on_a_file_that_is_not_an_object_says_so(workspace, capsys, raw, kind):
    tmp, config_path, _ = workspace
    (tmp / "metrics.json").write_text(json.dumps(raw), encoding="utf-8")
    assert run_cli("report", "--config", str(config_path)) == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "data"
    assert payload["message"] == (
        f"{tmp / 'metrics.json'}: not a metrics report (the file must hold a JSON object, got {kind})"
    )


# command -> the paths keys it writes (predictions only when set)
OUTPUTS = {
    "build-vocab": ("vocab",),
    "pretrain": ("checkpoint", "curve"),
    "train": ("checkpoint", "curve"),
    "evaluate": ("metrics", "confusion"),
    "predict": ("predictions",),
    "rebalance": ("rebalanced_data", "histogram"),
}


@pytest.mark.parametrize("command, key", [(c, k) for c, keys in OUTPUTS.items() for k in keys])
def test_output_in_a_missing_directory_fails_before_any_work(trained, tmp_path, capsys, command, key):
    # _paths_failure also checks that every existing file, the checkpoint included, keeps its bytes
    missing = str(tmp_path / "no" / "such" / "dir" / f"{key}.out")
    message = _paths_failure(trained, tmp_path, capsys, command, key, missing)
    assert message == f"paths.{key} is in a directory that does not exist: {missing}"


def test_train_with_its_curve_in_a_missing_directory_reads_and_trains_nothing(workspace, capsys, monkeypatch):
    tmp, config_path, config = workspace
    assert run_cli("build-vocab", "--config", str(config_path)) == 0
    assert run_cli("train", "--config", str(config_path)) == 0
    checkpoint = (tmp / "model.ckpt").read_bytes()
    config["paths"]["curve"] = str(tmp / "no" / "such" / "dir" / "c.csv")
    config_path.write_text(json.dumps(config), encoding="utf-8")
    monkeypatch.setattr(cli, "ingest", lambda *a: pytest.fail("read data before checking its outputs"))
    capsys.readouterr()
    assert run_cli("train", "--config", str(config_path)) == 1
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "usage" and "paths.curve" in payload["message"]
    assert (tmp / "model.ckpt").read_bytes() == checkpoint


def test_output_that_is_a_directory_fails_before_any_work(trained, tmp_path, capsys):
    root, _ = trained
    message = _paths_failure(trained, tmp_path, capsys, "train", "checkpoint", str(root))
    assert message == f"paths.checkpoint is a directory: {root}"


# command -> (a paths key, the key whose file it is set to name); unchecked, each case destroys a file
SAME_FILE = {
    "train": ("curve", "checkpoint"),
    "evaluate": ("confusion", "metrics"),
    "build-vocab": ("vocab", "train_data"),
    "predict": ("predictions", "predict_input"),
    "rebalance": ("rebalanced_data", "train_data"),
}


@pytest.mark.parametrize("command", sorted(SAME_FILE))
def test_two_paths_naming_one_file_is_usage_error_before_any_work(trained, tmp_path, capsys, command):
    root, config = trained
    key, other = SAME_FILE[command]
    spelled = config["paths"][other].replace(str(root), f"{root}/.")  # the same file under another name
    # _paths_failure also checks that no file changed and nothing was printed
    message = _paths_failure(trained, tmp_path, capsys, command, key, spelled)
    named = re.fullmatch(r"paths\.(\w+) and paths\.(\w+) name the same file: (.+)", message)
    assert named and {named[1], named[2]} == {key, other}, message
    assert os.path.realpath(named[3]) == os.path.realpath(spelled)


def test_train_may_write_its_checkpoint_over_its_init_checkpoint(workspace, capsys):
    tmp, config_path, config = workspace
    assert run_cli("build-vocab", "--config", str(config_path)) == 0
    assert run_cli("train", "--config", str(config_path)) == 0
    before = (tmp / "model.ckpt").read_bytes()
    config["paths"]["init_checkpoint"] = config["paths"]["checkpoint"]
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert run_cli("train", "--config", str(config_path)) == 0
    assert (tmp / "model.ckpt").read_bytes() != before
    assert not list(tmp.glob(".*.tmp"))


# case -> (corpus text, seed, the library's message after the paths.pretrain_corpus prefix); the first
# draw of seed 0, default_rng(0).random() = 0.64, asks for a non-successor
BAD_CORPORA = {
    "one-sentence document": (
        "a lonely sentence\n\nthe room was fine\nthe bed was soft\n",
        3,
        "document 0 has 1 sentence(s); need at least 2",
    ),
    "single document": (
        "the room was fine\nthe bed was soft\n",
        0,
        "cannot sample a non-successor: corpus has a single document",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_CORPORA))
def test_corpus_shape_error_names_the_corpus_file(workspace, capsys, case):
    tmp, config_path, _ = workspace
    text, seed, library_message = BAD_CORPORA[case]
    (tmp / "corpus.txt").write_text(text, encoding="utf-8")
    assert run_cli("build-vocab", "--config", str(config_path)) == 0
    capsys.readouterr()
    assert run_cli("pretrain", "--config", str(config_path), "--seed", str(seed)) == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload == {"error": "data", "message": f"paths.pretrain_corpus {tmp / 'corpus.txt'}: {library_message}"}
    assert not (tmp / "model.ckpt").exists()


@pytest.mark.parametrize("seed", range(6))
def test_vocab_of_only_special_tokens_fails_pretraining_on_every_seed(workspace, capsys, seed):
    # the held-out masking trips the check before any step, whatever the draws
    tmp, config_path, _ = workspace
    (tmp / "vocab.txt").write_text("".join(token + "\n" for token in SPECIAL_TOKENS), encoding="utf-8")
    docs = ("the room was fine\nthe bed was soft", "staff were kind\nbreakfast was cold", "noisy street\nthin walls")
    (tmp / "corpus.txt").write_text("\n\n".join(docs) + "\n", encoding="utf-8")
    assert run_cli("pretrain", "--config", str(config_path), "--seed", str(seed)) == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload == {"error": "data", "message": "random-token replacement needs a non-special vocab entry"}
    assert not (tmp / "model.ckpt").exists()


def test_deeply_nested_checkpoint_header_is_data_error(workspace, capsys):
    tmp, config_path, _ = workspace
    header = DEEP.encode("utf-8")
    (tmp / "model.ckpt").write_bytes(struct.pack("<I", len(header)) + header)
    assert run_cli("evaluate", "--config", str(config_path)) == 2
    payload = json.loads(capsys.readouterr().err.strip())
    message = f"paths.checkpoint {tmp / 'model.ckpt'}: checkpoint header: JSON nested too deeply to parse"
    assert payload == {"error": "data", "message": message}


@pytest.mark.parametrize("command", ["pretrain", "train", "evaluate", "rebalance"])
def test_a_failing_second_output_leaves_the_first_replaced(workspace, capsys, monkeypatch, command):
    tmp, config_path, config = workspace
    assert run_cli("build-vocab", "--config", str(config_path)) == 0
    assert run_cli("train", "--config", str(config_path)) == 0  # evaluate reads the checkpoint
    first, second = (Path(config["paths"][key]) for key in OUTPUTS[command])
    first.write_bytes(b"previous")
    second.write_bytes(b"previous")
    real_write_file = cli.write_file

    def full_disk(path, data):
        if path == str(second):
            raise OSError(errno.ENOSPC, "No space left on device", path)
        real_write_file(path, data)

    monkeypatch.setattr(cli, "write_file", full_disk)
    capsys.readouterr()
    assert run_cli(command, "--config", str(config_path)) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {"error": "usage", "message": f"[Errno 28] No space left on device: '{second}'"}
    assert first.read_bytes() not in (b"", b"previous")
    assert second.read_bytes() == b"previous"
    assert not list(tmp.glob(".*.tmp"))
