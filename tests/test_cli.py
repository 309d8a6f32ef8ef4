import copy
import json
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sentibert.cli import SECTION_KEYS, main
from sentibert.data import LABELS, write_corpus, write_jsonl
from sentibert.synthetic import generate_dataset, generate_documents

TINY_ENCODER = {"num_layers": 1, "num_heads": 2, "d_model": 16, "d_ff": 32, "max_len": 12, "dropout_rate": 0.1}


@pytest.fixture
def workspace(tmp_path):
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


def test_console_entry_point(workspace):
    _, config_path, _ = workspace
    proc = subprocess.run(
        [sys.executable, "-m", "sentibert", "build-vocab", "--config", str(config_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout.strip())["command"] == "build-vocab"


def _set(path, value):
    """Config mutation: set the dotted key path to value."""

    def mutate(config):
        *parents, last = path.split(".")
        target = config
        for key in parents:
            target = target.setdefault(key, {})
        target[last] = value

    return mutate


BAD_CONFIGS = [
    ("train", _set("encoder.num_layer", 9), "encoder.num_layer"),
    ("train", _set("trian", {"epochs": 1}), "trian"),
    ("pretrain", _set("pretrain.seed", 4), "pretrain.seed"),
    ("build-vocab", _set("vocab.max_len", 10), "vocab.max_len"),
    ("train", _set("paths.curvee", "c.csv"), "paths.curvee"),
    ("rebalance", _set("seed", "x"), "seed"),
    ("rebalance", _set("seed", -1), "seed"),
    ("build-vocab", _set("vocab.max_size", "abc"), "max_size"),
    ("train", _set("train.epochs", 2.5), "epochs"),
    ("train", _set("train.keep_best", "no"), "keep_best"),
    ("train", _set("train.algorithm", "adamw"), "adamw"),
    ("train", _set("train.class_weights", "abc"), "class_weights"),
    ("train", _set("encoder.num_layers", 1.5), "num_layers"),
    ("train", _set("encoder.max_len", 2), "max_len"),
    ("pretrain", _set("pretrain.lr", "fast"), "lr"),
    ("pretrain", _set("pretrain.mask_probability", 1.5), "mask_probability"),
    ("train", _set("paths.vocab", 5), "paths.vocab"),
    ("train", _set("paths.curve", "c\0.csv"), "paths.curve"),
    ("train", _set("paths.checkpoint", "\ud800"), "paths.checkpoint"),
]


@pytest.mark.parametrize("command, mutate, named", BAD_CONFIGS, ids=[named + "-" + cmd for cmd, _, named in BAD_CONFIGS])
def test_bad_config_is_usage_error_naming_the_key(workspace, capsys, command, mutate, named):
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
    "vocab": {"max_size": 100, "min_freq": 1},
    "paths": {"train_data": "train.jsonl", "vocab": "vocab.txt", "checkpoint": "model.ckpt", "curve": "curve.csv"},
}
# every top-level key and every key build-vocab or train reads
FUZZ_KEYS = [(key,) for key in FUZZ_CONFIG]
FUZZ_KEYS += [(section, key) for section in ("encoder", "train", "vocab") for key in sorted(SECTION_KEYS[section])]
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
        with open("config.json", "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        for command in ("build-vocab", "train"):
            code = run_cli(command, "--config", "config.json")
            assert code in (0, 1, 2), (command, key, value, capsys.readouterr().err)
