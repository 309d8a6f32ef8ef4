"""The three workloads: inputs made from a seed, set-up, and one round of
operations against the public sentibert API and CLI.

Every workload runs the same kinds of operation, so that every run reports
every end-to-end metric; the workloads differ in the shape of their inputs
and in which operation gets the bulk of the time (see README.md).
"""

import contextlib
import io
import json
import math
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks

# the default encoder, written out so the checks can derive shapes from it
ENCODER = {"num_layers": 2, "num_heads": 2, "d_model": 64, "d_ff": 256, "max_len": 64, "dropout_rate": 0.1}
VOCAB = {"max_size": 4000, "min_freq": 1}
BATCH_SIZE = 16
VAL_SPLIT = 0.2
SENTENCES_PER_DOC = 4
PRETRAIN_BATCH = 8
MASK_P = 0.15
SETUP_TRAIN = 240  # labelled reviews for the brief set-up fine-tune
SETUP_EPOCHS = 3
SETUP_BATCH = 8
ISOLATION_TEXTS = 16
LOOP_CALLS = 100  # single-text calls per closed loop
JOINER = ", and also "  # between the sentences of a multi-sentence review
MAX_SENTENCES = 7


@dataclass(frozen=True)
class Spec:
    kind: str  # "short" or "varlen": the shape of the labelled and unlabelled reviews
    chain_train: int  # reviews in the CLI chain's train file
    chain_test: int  # reviews in its eval file
    chain_epochs: int
    chain_accuracy_floor: float | None  # set for a chain at criterion-3 scale, which must also converge
    model_from_setup: bool  # inference model: fine-tuned in set-up, or the round's chain checkpoint
    n_eval: int  # labelled reviews for evaluate(); predict_batch sees these first
    n_extra: int  # further unlabelled reviews for predict_batch
    n_classify: int  # single-text forward_classify calls per block, in loops of LOOP_CALLS
    eval_accuracy_floor: float | None
    pretrain_docs: int
    pretrain_epochs: int
    repeats: int  # inference and pretraining operations per round


SPECS = {
    "finetune-short": Spec(
        kind="short", chain_train=600, chain_test=200, chain_epochs=5, chain_accuracy_floor=0.90,
        model_from_setup=False, n_eval=200, n_extra=0, n_classify=200, eval_accuracy_floor=None,
        pretrain_docs=24, pretrain_epochs=1, repeats=4,
    ),
    "infer-varlen": Spec(
        kind="varlen", chain_train=120, chain_test=60, chain_epochs=2, chain_accuracy_floor=None,
        model_from_setup=True, n_eval=300, n_extra=600, n_classify=300, eval_accuracy_floor=0.90,
        pretrain_docs=24, pretrain_epochs=1, repeats=1,
    ),
    "pretrain-pairs": Spec(
        kind="short", chain_train=120, chain_test=60, chain_epochs=2, chain_accuracy_floor=None,
        model_from_setup=False, n_eval=300, n_extra=0, n_classify=300, eval_accuracy_floor=None,
        pretrain_docs=60, pretrain_epochs=2, repeats=1,
    ),
}


def balanced(n: int) -> tuple[int, int, int]:
    return (n - 2 * (n // 3), n // 3, n // 3)


def varlen_reviews(n: int, seed: int, sb) -> list:
    """Reviews of 1-7 same-label synthetic sentences, shuffled; labels and
    sentence counts are spread evenly, so the seed only picks the words."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        label = i % 3
        count = 1 + i % MAX_SENTENCES
        text = JOINER.join(sb.synthetic.make_sentence(label, rng) for _ in range(count)) + " ."
        out.append(sb.data.LabeledExample(text, label))
    return [out[i] for i in rng.permutation(n)]


def reviews(kind: str, n: int, seed: int, sb) -> list:
    if kind == "varlen":
        return varlen_reviews(n, seed, sb)
    return sb.synthetic.generate_dataset(balanced(n), seed)


@dataclass
class Inputs:
    chain_train: list
    chain_test: list
    eval_set: list
    predict_texts: list[str]
    docs: list[list[str]]
    setup_train: list | None


def make_inputs(spec: Spec, seed: int, sb) -> Inputs:
    s = [int(x) for x in np.random.SeedSequence(seed).generate_state(6)]
    if spec.kind == "short":
        chain_train, chain_test = sb.synthetic.generate_split(spec.chain_train, spec.chain_test, s[0])
    else:
        chain_train = varlen_reviews(spec.chain_train, s[0], sb)
        chain_test = varlen_reviews(spec.chain_test, s[1], sb)
    eval_set = reviews(spec.kind, spec.n_eval, s[2], sb)
    extra = [ex.text for ex in reviews(spec.kind, spec.n_extra, s[3], sb)] if spec.n_extra else []
    return Inputs(
        chain_train=chain_train,
        chain_test=chain_test,
        eval_set=eval_set,
        predict_texts=[ex.text for ex in eval_set] + extra,
        docs=sb.synthetic.generate_documents(spec.pretrain_docs, SENTENCES_PER_DOC, s[4]),
        setup_train=reviews(spec.kind, SETUP_TRAIN, s[5], sb) if spec.model_from_setup else None,
    )


def balanced_pairs(docs, seed: int, sb) -> list:
    """NSP pairs with as many true successors as random ones, so that an
    untrained model's NSP loss is ln 2 whatever its constant logit offset."""
    pairs = sb.pretrain.nsp_pairs(docs, np.random.default_rng(seed + 1))
    by_label = [[p for p in pairs if p[2] == label] for label in (0, 1)]
    n = min(len(group) for group in by_label)
    return by_label[0][:n] + by_label[1][:n]


def train_partition(examples) -> int:
    """Examples left for training after the stratified validation split."""
    counts = np.bincount([ex.label for ex in examples], minlength=3)
    return int(sum(n - int(round(VAL_SPLIT * n)) for n in counts))


@dataclass
class State:
    inputs: Inputs
    config_path: str
    paths: dict[str, str]
    partition: int
    pre_vocab: object
    pre_eval_batch: object
    model: object  # inference model when the spec fine-tunes in set-up


class Tally:
    """Operations attempted and failed over a run, with what went wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.check_failures: list[str] = []
        self.errors: list[str] = []

    def op(self, fn):
        self.attempted += 1
        try:
            return fn()
        except checks.CheckFailed as exc:
            self.failed += 1
            self.check_failures.append(str(exc))
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
            self.failed += 1
            self.errors.append(f"{type(exc).__name__}: {exc}")
        return None


class Workload:
    def __init__(self, name: str, seed: int, sb):
        self.spec = SPECS[name]
        self.seed = seed
        self.sb = sb

    # -- set-up ---------------------------------------------------------------

    def setup(self, workdir: Path) -> State:
        sb, spec = self.sb, self.spec
        workdir.mkdir(parents=True, exist_ok=True)
        inputs = make_inputs(spec, self.seed, sb)
        paths = {
            name: str(workdir / file)
            for name, file in (
                ("train_data", "train.jsonl"),
                ("eval_data", "test.jsonl"),
                ("vocab", "vocab.txt"),
                ("checkpoint", "model.ckpt"),
                ("curve", "curve.csv"),
                ("metrics", "metrics.json"),
                ("confusion", "confusion.csv"),
            )
        }
        sb.data.write_jsonl(inputs.chain_train, paths["train_data"])
        sb.data.write_jsonl(inputs.chain_test, paths["eval_data"])
        config = {
            "seed": self.seed,
            "encoder": ENCODER,
            "train": {"epochs": spec.chain_epochs, "batch_size": BATCH_SIZE, "val_split": VAL_SPLIT},
            "vocab": VOCAB,
            "paths": paths,
        }
        config_path = str(workdir / "config.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)

        sentences = [s for doc in inputs.docs for s in doc]
        pre_vocab = sb.tokenizer.build_vocab(sentences, VOCAB["max_size"], VOCAB["min_freq"])
        pre_eval_batch = sb.pretrain.build_masked_batch(
            balanced_pairs(inputs.docs, self.seed, sb), pre_vocab, ENCODER["max_len"], MASK_P,
            np.random.default_rng(self.seed + 2),
        )

        model = None
        if spec.model_from_setup:
            vocab = sb.tokenizer.build_vocab([ex.text for ex in inputs.setup_train], VOCAB["max_size"])
            model = sb.model.SentimentModel.init(vocab, sb.encoder.EncoderConfig(**ENCODER), self.seed)
            train_cfg = sb.classify.TrainConfig(epochs=SETUP_EPOCHS, batch_size=SETUP_BATCH, seed=self.seed)
            model, _ = sb.classify.train(inputs.setup_train, train_cfg, model)
            path = str(workdir / "setup.ckpt")
            sb.checkpoint.save_checkpoint(model, path)
            model = sb.checkpoint.load_checkpoint(path)
        return State(
            inputs=inputs,
            config_path=config_path,
            paths=paths,
            partition=train_partition(inputs.chain_train),
            pre_vocab=pre_vocab,
            pre_eval_batch=pre_eval_batch,
            model=model,
        )

    # -- one round --------------------------------------------------------------

    def run_round(self, state: State, tally: Tally, meter, recorder=None) -> "Round":
        """Run every operation of the round once (the inference block spec.repeats times)."""
        r = Round(tally, meter, recorder)
        spec, inputs = self.spec, state.inputs
        chain: dict[str, float] = {}
        for cmd in ("build-vocab", "train", "evaluate"):
            tally.op(lambda cmd=cmd: self._command(r, cmd, state, chain))
        if len(chain) == 3:
            r.add("cli_chain_s", sum(chain.values()))
            r.add("train_examples_per_s", state.partition * spec.chain_epochs / chain["train"])

        model = state.model
        if model is None:
            model = tally.op(lambda: r.timed("op.load", lambda: self.sb.checkpoint.load_checkpoint(state.paths["checkpoint"]))[0])
        for _ in range(spec.repeats):
            predicted = tally.op(lambda: self._predict(r, model, inputs.predict_texts))
            tally.op(lambda: self._evaluate(r, model, inputs.eval_set, predicted))
            for first in range(0, spec.n_classify, LOOP_CALLS):
                self._classify_loop(r, model, inputs.predict_texts, range(first, first + LOOP_CALLS), predicted)
            tally.op(lambda: self._pretrain(r, state))
        return r

    def _command(self, r: "Round", cmd: str, state: State, chain: dict) -> None:
        span_name = "cli." + cmd.replace("-", "_")
        (code, stderr), chain[cmd] = r.timed(span_name, lambda: _cli(self.sb, [cmd, "--config", state.config_path]))
        paths = state.paths
        with r.quiet():
            checks.exit_code(cmd, code, stderr)
            if cmd == "train":
                if self.spec.chain_accuracy_floor is not None:
                    checks.strictly_falling(checks.curve_train_losses(_read(paths["curve"])), "train loss")
                vocab_size = sum(1 for line in _read(paths["vocab"]).splitlines() if line)
                checks.checkpoint_size(paths["checkpoint"], ENCODER, vocab_size)
            elif cmd == "evaluate":
                accuracy = checks.accuracy_is_confusion_trace(_read(paths["metrics"]), _read(paths["confusion"]))
                if self.spec.chain_accuracy_floor is not None:
                    checks.at_least(accuracy, self.spec.chain_accuracy_floor, "test accuracy")

    def _predict(self, r: "Round", model, texts: list[str]):
        predict_batch = self.sb.classify.predict_batch
        results, elapsed = r.timed("op.predict", lambda: predict_batch(texts, model))
        r.add("predict_seq_per_s", len(texts) / elapsed)
        with r.quiet():
            checks.probability_rows([probs for _, probs in results])
            # pad isolation: the same texts reversed, each beside other neighbours
            n = min(ISOLATION_TEXTS, len(texts) // 2)
            mixed = []
            for i in reversed(range(n)):
                mixed += [texts[-1 - i], texts[i]]
            again = predict_batch(mixed, model)
            checks.rows_agree(
                [results[i][1] for i in reversed(range(n))],
                [again[2 * k + 1][1] for k in range(n)],
                "predict_batch rows when batch neighbours and positions change",
            )
        return results

    def _evaluate(self, r: "Round", model, eval_set, predicted) -> None:
        (rep, _), elapsed = r.timed("op.evaluate", lambda: self.sb.classify.evaluate(model, eval_set))
        r.add("eval_seq_per_s", len(eval_set) / elapsed)
        with r.quiet():
            if predicted is None:
                raise checks.CheckFailed("no predict_batch labels to recompute accuracy from")
            labels = [label for label, _ in predicted[: len(eval_set)]]
            checks.accuracy_from_labels(rep.accuracy, labels, [ex.label for ex in eval_set])
            if self.spec.eval_accuracy_floor is not None:
                checks.at_least(rep.accuracy, self.spec.eval_accuracy_floor, "held-out accuracy")

    def _classify_loop(self, r: "Round", model, texts: list[str], indices: range, predicted) -> None:
        """One client; each call is sent when the previous one has returned."""
        forward_classify = self.sb.classify.forward_classify
        raw_ms: list[float] = []

        def call(i: int) -> None:
            start = time.perf_counter()
            with r.span("op.classify"):
                probs = forward_classify(texts[i], model)
            raw_ms.append((time.perf_counter() - start) * 1e3)
            with r.quiet():
                checks.probability_rows([probs])
                if predicted is None:
                    raise checks.CheckFailed("no predict_batch row to compare forward_classify with")
                checks.rows_agree([probs], [predicted[i][1]], "forward_classify vs predict_batch")

        r.meter.start(samples=False)
        for i in indices:
            r.tally.op(lambda i=i: call(i))
        ref_s, raw_s = r.meter.stop()
        latencies = [ms * ref_s / raw_s for ms in raw_ms]
        r.op_s += sum(latencies) / 1e3
        if latencies:
            r.add("latency_ms_p50", float(np.percentile(latencies, 50)))
            r.add("latency_ms_tail", float(np.percentile(latencies, TAIL_PERCENTILE)))

    def _pretrain(self, r: "Round", state: State) -> None:
        sb, spec = self.sb, self.spec
        model = sb.model.SentimentModel.init(state.pre_vocab, sb.encoder.EncoderConfig(**ENCODER), self.seed)
        config = sb.pretrain.PretrainConfig(
            epochs=spec.pretrain_epochs, batch_size=PRETRAIN_BATCH, mask_probability=MASK_P, seed=self.seed
        )
        with r.quiet():
            initial = sb.pretrain.eval_losses(state.pre_eval_batch, model)
        history, elapsed = r.timed("op.pretrain", lambda: sb.pretrain.run_pretraining(state.inputs.docs, model, config))
        pairs = len(state.inputs.docs) * (SENTENCES_PER_DOC - 1)
        r.add("pretrain_pairs_per_s", pairs * spec.pretrain_epochs / elapsed)
        with r.quiet():
            final = sb.pretrain.eval_losses(state.pre_eval_batch, model)
            checks.all_finite(
                [row[k] for row in history for k in ("train_loss", "val_loss")]
                + [initial["mlm_loss"], initial["nsp_loss"], final["mlm_loss"], final["nsp_loss"]],
                "pretraining losses",
            )
            checks.near(initial["mlm_loss"], math.log(len(state.pre_vocab)), "initial MLM loss")
            checks.near(initial["nsp_loss"], math.log(2.0), "initial NSP loss")
            checks.strictly_falling([initial["mlm_loss"], final["mlm_loss"]], "eval MLM loss")


class Round:
    """One round's timings (reference seconds) and figures; with a recorder,
    each operation is a span and the benchmark's own checks are kept out of
    the spans."""

    def __init__(self, tally: Tally, meter, recorder=None):
        self.tally = tally
        self.meter = meter
        self.span = recorder.span if recorder else _no_span
        self.quiet = recorder.paused if recorder else contextlib.nullcontext
        self.op_s = 0.0  # reference seconds inside timed operations
        self.values: dict[str, list[float]] = {}

    def timed(self, name: str, fn):
        """Run fn as one timed operation; returns its result and reference seconds."""
        self.meter.start()
        with self.span(name):
            result = fn()
        elapsed, _ = self.meter.stop()
        self.op_s += elapsed
        return result, elapsed

    def add(self, metric: str, value: float) -> None:
        self.values.setdefault(metric, []).append(value)


@contextlib.contextmanager
def _no_span(name):
    yield


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _cli(sb, argv: list[str]) -> tuple[int, str]:
    """Run one CLI command in this process; returns its exit code and stderr."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        code = sb.cli.main(argv)
    return code, err.getvalue()


TAIL_PERCENTILE = 90  # the highest with ten of a loop's LOOP_CALLS calls beyond it
FIGURES = {
    "cli_chain_s": "cli_chain_s",
    "train_examples_per_s": "train_examples_per_s",
    "predict_seq_per_s": "predict_seq_per_s",
    "eval_seq_per_s": "eval_seq_per_s",
    "classify_latency_ms_p50": "latency_ms_p50",
    "classify_latency_ms_tail": "latency_ms_tail",
    "pretrain_pairs_per_s": "pretrain_pairs_per_s",
}


def summarize(rounds: list[Round]) -> dict[str, float]:
    """End-to-end figures of a run: the median of each figure over every
    time the run measured it (latency percentiles are per closed loop)."""
    out = {}
    for metric, key in FIGURES.items():
        values = [v for r in rounds for v in r.values.get(key, [])]
        out[metric] = statistics.median(values) if values else float("nan")
    return out


def describe(name: str, seed: int, sb) -> list[dict]:
    """Measured make-up of a workload's inputs: token lengths, truncation, pad share."""
    spec = SPECS[name]
    inputs = make_inputs(spec, seed, sb)
    max_len = ENCODER["max_len"]
    sets = [
        ("chain train", [(ex.text, None) for ex in inputs.chain_train]),
        ("predict", [(t, None) for t in inputs.predict_texts]),
        ("pretrain pairs", [(a, b) for a, b, _ in sb.pretrain.nsp_pairs(inputs.docs, np.random.default_rng(seed + 1))]),
    ]
    vocab = sb.tokenizer.build_vocab([ex.text for ex in inputs.chain_train], VOCAB["max_size"])
    rows = []
    for label, items in sets:
        raw = [len(sb.tokenizer.tokenize(a)) + (len(sb.tokenizer.tokenize(b)) + 1 if b else 0) + 2 for a, b in items]
        real = [sb.tokenizer.encode_pair(a, b, vocab, max_len).real_length() for a, b in items]
        batches = [real[i : i + BATCH_SIZE] for i in range(0, len(real), BATCH_SIZE)]
        slots_max = sum(len(b) * max_len for b in batches)
        slots_longest = sum(len(b) * max(b) for b in batches)
        rows.append(
            {
                "workload": name,
                "inputs": label,
                "count": len(real),
                "tokens_mean": float(np.mean(real)),
                "tokens_max": int(max(real)),
                "truncated_share": float(np.mean([r > max_len for r in raw])),
                "pad_share_to_max_len": 1.0 - sum(real) / slots_max,
                "pad_share_to_longest": 1.0 - sum(real) / slots_longest,
            }
        )
    return rows
