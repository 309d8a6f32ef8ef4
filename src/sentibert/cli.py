"""Command-line surface tying the pipeline together.

Every command takes --config pointing at a single JSON file plus a few
flag overrides. Exit codes: 0 success, 1 usage error (including a named
path that cannot be read or written), 2 data error (including training
that diverges), 3 internal invariant violation; failures emit one line of
JSON on stderr.
"""

import argparse
import json
import os
import sys
from dataclasses import fields

import numpy as np

from . import balance as balance_mod
from .checkpoint import load_checkpoint, save_checkpoint
from .classify import TrainConfig, curve_to_csv, evaluate, predict_batch, train
from .data import LABELS, ingest, read_corpus, write_jsonl
from .encoder import EncoderConfig
from .errors import ConfigError, DataError, SamplingError, SentibertError, check_type
from .fileio import atomic_open, read_text
from .metrics import MetricsReport, cm_to_csv
from .model import SentimentModel
from .pretrain import HISTORY_COLUMNS, PretrainConfig, run_pretraining
from .tokenizer import Vocab, build_vocab


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
    "train": {f.name for f in fields(TrainConfig)},
    "pretrain": {f.name for f in fields(PretrainConfig)} - {"seed"},  # the seed is top-level
    "vocab": {"max_size", "min_freq"},
    "paths": {
        "train_data", "eval_data", "data_format", "pretrain_corpus", "vocab", "checkpoint", "init_checkpoint",
        "curve", "metrics", "confusion", "rebalanced_data", "histogram", "predictions", "predict_input",
    },
}


def _load_config(path: str) -> dict:
    try:
        raw = json.load(read_text(path))
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    except DataError as exc:
        raise UsageError(f"config {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config {path} is not valid JSON: {exc}") from exc
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
    for key, value in cfg["paths"].items():
        if not _is_path(value):
            raise UsageError(f"paths.{key} must be a string the file system can name, got {value!r}")
    return cfg


def _is_path(value) -> bool:
    """A string open() accepts as a name: no NUL, no unencodable lone surrogate."""
    try:
        return isinstance(value, str) and b"\0" not in os.fsencode(value)
    except UnicodeEncodeError:
        return False


def _path(cfg: dict, key: str, required_for: str) -> str:
    value = cfg["paths"].get(key)
    if not value:
        raise UsageError(f"{required_for} needs paths.{key} in the config")
    return value


def _require_input(path: str, what: str) -> str:
    if not os.path.exists(path):
        raise UsageError(f"{what} does not exist: {path}")
    return path


def _data_format(cfg: dict, path: str) -> str:
    fmt = cfg["paths"].get("data_format")
    if fmt:
        return fmt
    return "csv" if path.endswith(".csv") else "jsonl"


def _encoder_config(cfg: dict) -> EncoderConfig:
    try:
        return EncoderConfig(**cfg["encoder"])
    except ConfigError as exc:
        raise UsageError(f"bad encoder config: {exc}") from exc


def _train_config(cfg: dict, args) -> TrainConfig:
    section = dict(cfg["train"])
    section.setdefault("seed", cfg["seed"])
    section.setdefault("balance", cfg["balance"])
    if args.epochs is not None:
        section["epochs"] = args.epochs
    if args.seed is not None:
        section["seed"] = args.seed
    if getattr(args, "balance", None) is not None:
        section["balance"] = args.balance
    if getattr(args, "lr", None) is not None:
        section["lr"] = args.lr
    if getattr(args, "batch_size", None) is not None:
        section["batch_size"] = args.batch_size
    try:
        return TrainConfig(**section)
    except ConfigError as exc:
        raise UsageError(f"bad train config: {exc}") from exc


def _seed(cfg: dict, args) -> int:
    seed = args.seed if args.seed is not None else cfg["seed"]
    try:
        check_type("seed", seed, int)
    except ConfigError as exc:
        raise UsageError(str(exc)) from exc
    if seed < 0:
        raise UsageError(f"seed must be nonnegative, got {seed}")
    return seed


def _write_text(path: str, content: str) -> None:
    with atomic_open(path) as fh:
        fh.write(content)


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


# -- commands ----------------------------------------------------------------


def _cmd_build_vocab(cfg: dict, args) -> None:
    texts: list[str] = []
    data_path = cfg["paths"].get("train_data")
    corpus_path = cfg["paths"].get("pretrain_corpus")
    if data_path:
        _require_input(data_path, "paths.train_data")
        texts.extend(ex.text for ex in ingest(data_path, _data_format(cfg, data_path)))
    if corpus_path:
        _require_input(corpus_path, "paths.pretrain_corpus")
        for doc in read_corpus(corpus_path):
            texts.extend(doc)
    if not texts:
        raise UsageError("build-vocab needs paths.train_data and/or paths.pretrain_corpus")
    try:
        vocab = build_vocab(texts, **cfg["vocab"])
    except ConfigError as exc:
        raise UsageError(f"bad vocab config: {exc}") from exc
    out = _path(cfg, "vocab", "build-vocab")
    vocab.save(out)
    _emit({"command": "build-vocab", "vocab_size": len(vocab), "path": out})


def _cmd_pretrain(cfg: dict, args) -> None:
    vocab = Vocab.load(_require_input(_path(cfg, "vocab", "pretrain"), "paths.vocab"))
    corpus = read_corpus(_require_input(_path(cfg, "pretrain_corpus", "pretrain"), "paths.pretrain_corpus"))
    seed = _seed(cfg, args)
    section = dict(cfg["pretrain"])
    if args.epochs is not None:
        section["epochs"] = args.epochs
    try:
        pre_cfg = PretrainConfig(**section, seed=seed)
    except ConfigError as exc:
        raise UsageError(f"bad pretrain config: {exc}") from exc
    model = SentimentModel.init(vocab, _encoder_config(cfg), seed)
    # divergence fails on its non-finite loss; numpy's warnings would add stderr lines
    with np.errstate(all="ignore"):
        history = run_pretraining(corpus, model, pre_cfg)
    ckpt = _path(cfg, "checkpoint", "pretrain")
    save_checkpoint(model, ckpt)
    _write_text(_path(cfg, "curve", "pretrain"), curve_to_csv(history, HISTORY_COLUMNS))
    _emit(
        {
            "command": "pretrain",
            "checkpoint": ckpt,
            "epochs": len(history),
            "final_loss": history[-1]["val_loss"],
        }
    )


def _cmd_train(cfg: dict, args) -> None:
    data_path = _require_input(_path(cfg, "train_data", "train"), "paths.train_data")
    dataset = ingest(data_path, _data_format(cfg, data_path))
    train_cfg = _train_config(cfg, args)
    encoder_cfg = _encoder_config(cfg)
    init_ckpt = cfg["paths"].get("init_checkpoint")
    if init_ckpt:
        model = load_checkpoint(_require_input(init_ckpt, "paths.init_checkpoint"))
        for key in sorted(cfg["encoder"]):  # the checkpoint fixes the shape; a section may only repeat it
            if getattr(encoder_cfg, key) != getattr(model.config, key):
                raise UsageError(
                    f"encoder.{key} is {getattr(encoder_cfg, key)!r}, but paths.init_checkpoint {init_ckpt} "
                    f"has {getattr(model.config, key)!r}"
                )
    else:
        vocab = Vocab.load(_require_input(_path(cfg, "vocab", "train"), "paths.vocab"))
        model = SentimentModel.init(vocab, encoder_cfg, train_cfg.seed)
    # divergence fails on its non-finite loss; numpy's warnings would add stderr lines
    with np.errstate(all="ignore"):
        model, curve = train(dataset, train_cfg, model)
    ckpt = _path(cfg, "checkpoint", "train")
    save_checkpoint(model, ckpt)
    _write_text(_path(cfg, "curve", "train"), curve_to_csv(curve))
    _emit(
        {
            "command": "train",
            "checkpoint": ckpt,
            "epochs": len(curve),
            "final_val_acc": curve[-1].val_acc,
            "final_train_loss": curve[-1].train_loss,
        }
    )


def _cmd_evaluate(cfg: dict, args) -> None:
    model = load_checkpoint(_require_input(_path(cfg, "checkpoint", "evaluate"), "paths.checkpoint"))
    data_path = _require_input(_path(cfg, "eval_data", "evaluate"), "paths.eval_data")
    dataset = ingest(data_path, _data_format(cfg, data_path))
    rep, cm = evaluate(model, dataset)
    _write_text(_path(cfg, "metrics", "evaluate"), rep.to_json() + "\n")
    _write_text(_path(cfg, "confusion", "evaluate"), cm_to_csv(cm))
    _emit({"command": "evaluate", "accuracy": rep.accuracy, "log_loss": rep.log_loss})


def _cmd_predict(cfg: dict, args) -> None:
    model = load_checkpoint(_require_input(_path(cfg, "checkpoint", "predict"), "paths.checkpoint"))
    in_path = args.input or cfg["paths"].get("predict_input")
    if not in_path:
        raise UsageError("predict needs --input or paths.predict_input")
    _require_input(in_path, "predict input")
    texts = [line.rstrip("\n") for line in read_text(in_path)]
    results = predict_batch(texts, model)
    lines = [
        json.dumps({"label": LABELS[label], "probabilities": [float(p) for p in probs]}, sort_keys=True)
        for label, probs in results
    ]
    out_path = args.output or cfg["paths"].get("predictions")
    if out_path:
        _write_text(out_path, "\n".join(lines) + ("\n" if lines else ""))
        _emit({"command": "predict", "count": len(lines), "path": out_path})
    else:
        for line in lines:
            print(line)


def _cmd_rebalance(cfg: dict, args) -> None:
    data_path = _require_input(_path(cfg, "train_data", "rebalance"), "paths.train_data")
    dataset = ingest(data_path, _data_format(cfg, data_path))
    strategy = args.balance if args.balance is not None else cfg["balance"]
    if strategy == "class_weights":
        raise UsageError("class_weights changes the loss, not the dataset; use train --balance class_weights")
    if strategy not in ("none", "oversample", "undersample"):
        raise UsageError(f"rebalance strategy must be none|oversample|undersample, got {strategy!r}")
    rng = np.random.default_rng(_seed(cfg, args))
    before = balance_mod.ClassHistogram.from_dataset(dataset)
    if strategy == "oversample":
        rebalanced = balance_mod.oversample(dataset, rng)
    elif strategy == "undersample":
        rebalanced = balance_mod.undersample(dataset, rng)
    else:
        rebalanced = list(dataset)
    after = balance_mod.ClassHistogram.from_dataset(rebalanced)
    write_jsonl(rebalanced, _path(cfg, "rebalanced_data", "rebalance"))
    payload = {
        "command": "rebalance",
        "strategy": strategy,
        "before": before.to_dict(),
        "after": after.to_dict(),
    }
    _write_text(_path(cfg, "histogram", "rebalance"), json.dumps(payload, sort_keys=True) + "\n")
    _emit(payload)


def _cmd_report(cfg: dict, args) -> None:
    metrics_path = args.metrics or cfg["paths"].get("metrics")
    if not metrics_path:
        raise UsageError("report needs --metrics or paths.metrics")
    text = read_text(_require_input(metrics_path, "metrics file"))
    try:
        rep = MetricsReport.from_dict(json.load(text))
    except (json.JSONDecodeError, DataError) as exc:
        raise DataError(f"{metrics_path}: not a metrics report ({exc})") from exc
    lines = [
        f"accuracy  {rep.accuracy:.4f}",
        f"log loss  {rep.log_loss:.4f}",
        "",
        f"{'class':<10} {'precision':>9} {'recall':>9} {'f1':>9}",
    ]
    for i, name in enumerate(LABELS):
        lines.append(
            f"{name:<10} {rep.precision_per_class[i]:>9.4f} {rep.recall_per_class[i]:>9.4f} {rep.f1_per_class[i]:>9.4f}"
        )
    lines.append(f"{'macro':<10} {rep.precision_macro:>9.4f} {rep.recall_macro:>9.4f} {rep.f1_macro:>9.4f}")
    flags = ", ".join(rep.degenerate_flags) if rep.degenerate_flags else "none"
    lines.append("")
    lines.append(f"degenerate metrics: {flags}")
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
        cmd.add_argument("--seed", type=int, default=None, help="override the config seed")
        cmd.add_argument("--epochs", type=int, default=None, help="override the epoch count")
        if name in ("train", "rebalance"):
            cmd.add_argument(
                "--balance",
                choices=balance_mod.STRATEGIES,
                default=None,
                help="rebalancing strategy override",
            )
        if name == "train":
            cmd.add_argument("--lr", type=float, default=None, help="override the learning rate")
            cmd.add_argument("--batch-size", dest="batch_size", type=int, default=None)
        if name == "predict":
            cmd.add_argument("--input", default=None, help="texts file, one per line")
            cmd.add_argument("--output", default=None, help="JSONL predictions path")
        if name == "report":
            cmd.add_argument("--metrics", default=None, help="metrics JSON to render")
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
        cfg = _load_config(args.config)
        _HANDLERS[args.command](cfg, args)
        return 0
    except UsageError as exc:
        return _fail("usage", exc, 1)
    except OSError as exc:  # every file the CLI opens is one the user named
        return _fail("usage", exc, 1)
    except (DataError, ConfigError, SamplingError) as exc:
        return _fail("data", exc, 2)
    except SentibertError as exc:
        return _fail("internal", exc, 3)
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports, never raises
        return _fail("internal", exc, 3)


if __name__ == "__main__":
    sys.exit(main())
