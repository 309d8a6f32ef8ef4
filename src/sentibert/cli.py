"""Command-line surface tying the pipeline together.

Every command takes --config pointing at a single JSON file; each other
flag overrides one config key (FLAGS). The whole config is checked before
any command runs, whatever the command reads. Exit codes: 0 success, 1
usage error (including a named path that cannot be read or written), 2
data error (including training that diverges), 3 internal invariant
violation; failures emit one line of JSON on stderr.
"""

import argparse
import json
import os
import sys
from dataclasses import fields, replace

import numpy as np

from . import balance as balance_mod
from .checkpoint import load_checkpoint, save_checkpoint
from .classify import TrainConfig, curve_to_csv, evaluate, kept_record, predict_batch, train
from .data import FORMATS, LABELS, LabeledExample, ingest, read_corpus, write_jsonl
from .encoder import EncoderConfig
from .errors import CheckpointError, ConfigError, DataError, SamplingError
from .fileio import parse_json, read_text, write_file
from .metrics import MetricsReport, cm_to_csv
from .model import SentimentModel
from .pretrain import PretrainConfig, run_pretraining
from .tokenizer import Vocab, build_vocab, check_vocab_limits


class UsageError(Exception):
    """Bad flags, bad config values, or missing or unusable files."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


DEFAULT_CONFIG = {
    "seed": 0,
    "balance": "none",
    "encoder": {},
    "train": {},
    "pretrain": {},
    "vocab": {"max_size": 4000, "min_freq": 1},
    "paths": {},
}
# the keys each section accepts; anything else is a usage error
SECTION_KEYS = {
    "encoder": {f.name for f in fields(EncoderConfig)},
    # seed and balance are top-level only
    "train": {f.name for f in fields(TrainConfig)} - {"seed", "balance"},
    "pretrain": {f.name for f in fields(PretrainConfig)} - {"seed"},
    "vocab": {"max_size", "min_freq"},
    "paths": {
        "train_data", "eval_data", "data_format", "pretrain_corpus", "vocab", "checkpoint", "init_checkpoint",
        "curve", "metrics", "confusion", "rebalanced_data", "histogram", "predictions", "predict_input",
    },
}
# flag -> (the one config key it overrides, the commands that read that key, argparse settings)
FLAGS = {
    "--seed": ("seed", ("pretrain", "train", "rebalance"), {"type": int}),
    "--epochs": ("{command}.epochs", ("pretrain", "train"), {"type": int}),
    "--balance": ("balance", ("train", "rebalance"), {"choices": balance_mod.STRATEGIES}),
    "--lr": ("train.lr", ("train",), {"type": float}),
    "--batch-size": ("train.batch_size", ("train",), {"type": int}),
    "--input": ("paths.predict_input", ("predict",), {}),
    "--output": ("paths.predictions", ("predict",), {}),
    "--metrics": ("paths.metrics", ("report",), {}),
}


def _load_config(args) -> dict:
    """The config file with args' flag overrides applied, every section
    checked: encoder, train and pretrain hold their built configs."""
    path = args.config
    try:
        raw = parse_json(read_text(path).getvalue(), path)
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    except DataError as exc:
        raise UsageError(f"config {exc}") from exc
    if not isinstance(raw, dict):
        raise UsageError(f"config {path} must hold a JSON object")
    cfg = {key: dict(value) if isinstance(value, dict) else value for key, value in DEFAULT_CONFIG.items()}
    for key, value in raw.items():
        if key not in DEFAULT_CONFIG:
            raise UsageError(f"unknown config key {key!r} (expected one of {sorted(DEFAULT_CONFIG)})")
        if key in SECTION_KEYS:
            if not isinstance(value, dict):
                raise UsageError(f"config section {key!r} must be an object")
            unknown = sorted(set(value) - SECTION_KEYS[key])
            if unknown:
                raise UsageError(f"unknown config key {key}.{unknown[0]} (expected one of {sorted(SECTION_KEYS[key])})")
            cfg[key].update(value)
        else:
            cfg[key] = value
    for key, value in vars(args).items():  # each flag's dest is the key it overrides
        if key not in ("command", "config") and value is not None:
            section, _, name = key.rpartition(".")
            (cfg[section] if section else cfg)[name] = value
    for key, value in cfg["paths"].items():
        if not _is_path(value):
            raise UsageError(f"paths.{key} must be a string the file system can name, got {value!r}")
    fmt = cfg["paths"].get("data_format")
    if fmt and fmt not in FORMATS:
        raise UsageError(f"paths.data_format must be one of {list(FORMATS)}, got {fmt!r}")
    cfg["encoder_keys"] = sorted(cfg["encoder"])  # the keys the file sets; see _cmd_train
    cfg["encoder"] = _checked("bad encoder config: ", EncoderConfig, **cfg["encoder"])
    top = _checked("bad config: ", TrainConfig, seed=cfg["seed"], balance=cfg["balance"])  # the top-level keys first
    cfg["train"] = _checked("bad train config: ", replace, top, **cfg["train"])
    cfg["pretrain"] = _checked("bad pretrain config: ", PretrainConfig, **cfg["pretrain"], seed=cfg["seed"])
    _checked("bad vocab config: ", check_vocab_limits, **cfg["vocab"])
    return cfg


def _checked(prefix: str, fn, *args, **kwargs):
    """fn(*args, **kwargs), its ConfigError or MemoryError turned into a usage error."""
    try:
        return fn(*args, **kwargs)
    except ConfigError as exc:
        raise UsageError(f"{prefix}{exc}") from exc
    except MemoryError as exc:  # sizes the machine cannot hold
        raise UsageError(f"{prefix}too large to allocate ({str(exc) or 'out of memory'})") from exc


def _is_path(value) -> bool:
    """A string open() accepts as a name: no NUL, no unencodable lone surrogate."""
    try:
        return isinstance(value, str) and b"\0" not in os.fsencode(value)
    except UnicodeEncodeError:
        return False


def _path(cfg: dict, key: str, command: str) -> str:
    """paths.<key>, which command needs; the error names the flag that sets it, if any."""
    value = cfg["paths"].get(key)
    if not value:
        flag = next((f for f, (k, commands, _) in FLAGS.items() if k == f"paths.{key}" and command in commands), None)
        raise UsageError(f"{command} needs {f'{flag} or ' if flag else ''}paths.{key} in the config")
    return value


def _input(cfg: dict, key: str, command: str) -> str:
    """paths.<key>, which command reads: it must be set and name an existing file."""
    path = _path(cfg, key, command)
    if not os.path.exists(path):
        raise UsageError(f"paths.{key} does not exist: {path}")
    return path


def _load(cfg: dict, key: str, command: str, loader):
    """loader(path) of paths.<key>, which command reads; a bad file's error names the key and the path."""
    path = _input(cfg, key, command)
    try:
        return loader(path)
    except (ConfigError, CheckpointError) as exc:
        raise type(exc)(f"paths.{key} {path}: {exc}") from exc


def _output(cfg: dict, key: str, command: str) -> str:
    """paths.<key>, which command writes: it must be set and name a file in an
    existing directory. Commands resolve their outputs before any work."""
    path = _path(cfg, key, command)
    if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
        raise UsageError(f"paths.{key} is in a directory that does not exist: {path}")
    if os.path.isdir(path):
        raise UsageError(f"paths.{key} is a directory: {path}")
    return path


def _distinct(cfg: dict, *keys: str) -> None:
    """Usage error if two of the set paths.<key>s name one file; train may
    write its paths.checkpoint over the paths.init_checkpoint it reads first."""
    seen: dict[str, str] = {}
    for key in filter(cfg["paths"].get, keys):
        other = seen.setdefault(os.path.realpath(cfg["paths"][key]), key)
        if other != key and {other, key} != {"checkpoint", "init_checkpoint"}:
            raise UsageError(f"paths.{other} and paths.{key} name the same file: {cfg['paths'][key]}")


def _dataset(cfg: dict, key: str, command: str) -> list[LabeledExample]:
    """The labeled dataset at _input(cfg, key, command), read as paths.data_format
    if set, else as CSV for a .csv name and JSONL for any other."""
    path = _input(cfg, key, command)
    return ingest(path, cfg["paths"].get("data_format") or ("csv" if path.endswith(".csv") else "jsonl"))


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


# -- commands ----------------------------------------------------------------


def _cmd_build_vocab(cfg: dict) -> None:
    out = _output(cfg, "vocab", "build-vocab")
    _distinct(cfg, "vocab", "train_data", "pretrain_corpus")
    texts: list[str] = []
    if cfg["paths"].get("train_data"):
        texts.extend(ex.text for ex in _dataset(cfg, "train_data", "build-vocab"))
    if cfg["paths"].get("pretrain_corpus"):
        for doc in read_corpus(_input(cfg, "pretrain_corpus", "build-vocab")):
            texts.extend(doc)
    if not texts:
        raise UsageError("build-vocab needs paths.train_data and/or paths.pretrain_corpus")
    vocab = build_vocab(texts, **cfg["vocab"])
    vocab.save(out)
    _emit({"command": "build-vocab", "vocab_size": len(vocab), "path": out})


def _cmd_pretrain(cfg: dict) -> None:
    ckpt, curve_path = _output(cfg, "checkpoint", "pretrain"), _output(cfg, "curve", "pretrain")
    _distinct(cfg, "checkpoint", "curve", "vocab", "pretrain_corpus")
    vocab = _load(cfg, "vocab", "pretrain", Vocab.load)
    corpus_path = _input(cfg, "pretrain_corpus", "pretrain")
    corpus = read_corpus(corpus_path)
    model = _checked("bad encoder config: ", SentimentModel.init, vocab, cfg["encoder"], cfg["seed"])
    try:
        history = run_pretraining(corpus, model, cfg["pretrain"])
    except SamplingError as exc:  # the corpus's shape; a diverging loss is not the file's fault
        raise SamplingError(f"paths.pretrain_corpus {corpus_path}: {exc}") from exc
    save_checkpoint(model, ckpt)
    write_file(curve_path, curve_to_csv(history))
    _emit({"command": "pretrain", "checkpoint": ckpt, "epochs": len(history), "final_loss": history[-1]["val_loss"]})


def _cmd_train(cfg: dict) -> None:
    ckpt, curve_path = _output(cfg, "checkpoint", "train"), _output(cfg, "curve", "train")
    init_ckpt = cfg["paths"].get("init_checkpoint")
    _distinct(cfg, "checkpoint", "curve", "train_data", "init_checkpoint" if init_ckpt else "vocab")
    dataset = _dataset(cfg, "train_data", "train")
    train_cfg, encoder_cfg = cfg["train"], cfg["encoder"]
    if init_ckpt:
        model = _load(cfg, "init_checkpoint", "train", load_checkpoint)
        for key in cfg["encoder_keys"]:  # the checkpoint fixes the shape; a section may only repeat it
            if getattr(encoder_cfg, key) != getattr(model.config, key):
                raise UsageError(
                    f"encoder.{key} is {getattr(encoder_cfg, key)!r}, but paths.init_checkpoint {init_ckpt} "
                    f"has {getattr(model.config, key)!r}"
                )
    else:
        vocab = _load(cfg, "vocab", "train", Vocab.load)
        model = _checked("bad encoder config: ", SentimentModel.init, vocab, encoder_cfg, train_cfg.seed)
    model, curve = train(dataset, train_cfg, model)
    save_checkpoint(model, ckpt)
    write_file(curve_path, curve_to_csv(curve))
    final, kept = curve[-1], kept_record(curve, train_cfg.keep_best)  # kept: the epoch the checkpoint holds
    line = {"command": "train", "checkpoint": ckpt, "epochs": len(curve), "final_train_loss": final["train_loss"]}
    _emit({**line, "final_val_acc": final["val_acc"], "kept_epoch": kept["epoch"], "kept_val_acc": kept["val_acc"]})


def _cmd_evaluate(cfg: dict) -> None:
    metrics_path, confusion_path = _output(cfg, "metrics", "evaluate"), _output(cfg, "confusion", "evaluate")
    _distinct(cfg, "metrics", "confusion", "checkpoint", "eval_data")
    model = _load(cfg, "checkpoint", "evaluate", load_checkpoint)
    rep, cm = evaluate(model, _dataset(cfg, "eval_data", "evaluate"))
    write_file(metrics_path, rep.to_json() + "\n")
    write_file(confusion_path, cm_to_csv(cm))
    _emit({"command": "evaluate", "accuracy": rep.accuracy, "log_loss": rep.log_loss})


def _cmd_predict(cfg: dict) -> None:
    out_path = cfg["paths"].get("predictions") and _output(cfg, "predictions", "predict")  # unset: stdout
    _distinct(cfg, "predictions", "checkpoint", "predict_input")
    model = _load(cfg, "checkpoint", "predict", load_checkpoint)
    texts = [line.rstrip("\n") for line in read_text(_input(cfg, "predict_input", "predict"))]
    results = predict_batch(texts, model)
    lines = [
        json.dumps({"label": LABELS[label], "probabilities": [float(p) for p in probs]}, sort_keys=True)
        for label, probs in results
    ]
    if out_path:
        write_file(out_path, "\n".join(lines) + ("\n" if lines else ""))
        _emit({"command": "predict", "count": len(lines), "path": out_path})
    else:
        for line in lines:
            print(line)


def _cmd_rebalance(cfg: dict) -> None:
    data_path, histogram_path = _output(cfg, "rebalanced_data", "rebalance"), _output(cfg, "histogram", "rebalance")
    _distinct(cfg, "rebalanced_data", "histogram", "train_data")
    dataset = _dataset(cfg, "train_data", "rebalance")
    strategy = cfg["balance"]
    if strategy == "class_weights":
        raise UsageError("class_weights changes the loss, not the dataset; use train --balance class_weights")
    before = balance_mod.ClassHistogram.from_dataset(dataset)
    rebalanced = balance_mod.rebalance(dataset, strategy, np.random.default_rng(cfg["seed"]))
    after = balance_mod.ClassHistogram.from_dataset(rebalanced)
    write_jsonl(rebalanced, data_path)
    payload = {"command": "rebalance", "strategy": strategy, "before": before.to_dict(), "after": after.to_dict()}
    write_file(histogram_path, json.dumps(payload, sort_keys=True) + "\n")
    _emit(payload)


def _cmd_report(cfg: dict) -> None:
    metrics_path = _input(cfg, "metrics", "report")
    raw = parse_json(read_text(metrics_path).getvalue(), metrics_path)
    if not isinstance(raw, dict):
        kind = {list: "an array", str: "a string", bool: "a boolean", type(None): "null"}.get(type(raw), "a number")
        raise DataError(f"{metrics_path}: not a metrics report (the file must hold a JSON object, got {kind})")
    try:
        rep = MetricsReport.from_dict(raw)
    except DataError as exc:
        raise DataError(f"{metrics_path}: not a metrics report ({exc})") from exc
    rows = [*zip(LABELS, rep.precision.per_class, rep.recall.per_class, rep.f1.per_class)]
    rows.append(("macro", rep.precision.macro, rep.recall.macro, rep.f1.macro))
    header = f"{'class':<10} {'precision':>9} {'recall':>9} {'f1':>9}"
    lines = [f"accuracy  {rep.accuracy:.4f}", f"log loss  {rep.log_loss:.4f}", "", header]
    lines += [f"{name:<10} {p:>9.4f} {r:>9.4f} {f1:>9.4f}" for name, p, r, f1 in rows]
    lines += ["", f"degenerate metrics: {', '.join(rep.degenerate_flags) or 'none'}"]
    print("\n".join(lines))


_HANDLERS = {
    "build-vocab": _cmd_build_vocab,
    "pretrain": _cmd_pretrain,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "predict": _cmd_predict,
    "rebalance": _cmd_rebalance,
    "report": _cmd_report,
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="sentibert", description="Desk-scale sentiment classification pipeline")
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name in _HANDLERS:
        cmd = sub.add_parser(name, description=f"run the {name} step")
        cmd.add_argument("--config", required=True, help="path to the JSON run configuration")
        for flag, (key, commands, settings) in FLAGS.items():
            if name in commands:
                key = key.format(command=name)
                cmd.add_argument(flag, dest=key, help=f"override {key}", **settings)
    return parser


def _fail(kind: str, exc: BaseException, code: int) -> int:
    print(json.dumps({"error": kind, "message": str(exc)}, sort_keys=True), file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            raise UsageError("no command given (expected one of: " + ", ".join(_HANDLERS) + ")")
        _HANDLERS[args.command](_load_config(args))
        return 0
    except (UsageError, OSError) as exc:  # every file the CLI opens is one the user named
        return _fail("usage", exc, 1)
    except (DataError, ConfigError) as exc:
        return _fail("data", exc, 2)
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports, never raises
        return _fail("internal", exc, 3)


if __name__ == "__main__":
    sys.exit(main())
