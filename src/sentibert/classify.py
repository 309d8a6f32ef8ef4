"""Three-class sentiment head: fine-tuning loop with per-epoch curve
tracking, best-validation checkpoint retention, and batch inference.
"""

from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from .balance import STRATEGIES, ClassHistogram, class_weights, oversample, undersample
from .data import LABELS, NUM_CLASSES, LabeledExample
from .errors import ConfigError, check_field_types, check_finite_loss
from .metrics import MetricsReport, confusion, log_loss, report
from .model import SentimentModel, eval_chunks
from .optim import OptimizerConfig, make_optimizer
from .tensor import Graph, cross_entropy, softmax
from .tokenizer import EncodedSequence, encode_pair

CURVE_COLUMNS = ("epoch", "train_loss", "train_acc", "val_loss", "val_acc")
CURVE_HEADER = ",".join(CURVE_COLUMNS)


@dataclass
class TrainConfig:
    epochs: int = 5
    batch_size: int = 16
    lr: float = 1e-3
    seed: int = 0
    class_weights: Optional[Sequence[float]] = None
    val_split: float = 0.2
    keep_best: bool = True  # False returns the final-epoch parameters
    algorithm: str = "adam"
    balance: str = "none"  # applied to the training partition only

    def __post_init__(self):
        check_field_types(self)
        if self.epochs < 1:
            raise ConfigError(f"epochs must be at least 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be at least 1, got {self.batch_size}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if not 0.0 < self.val_split < 1.0:
            raise ConfigError(f"val_split must be in (0, 1), got {self.val_split}")
        OptimizerConfig(algorithm=self.algorithm, lr=self.lr)  # checks both
        if self.class_weights is not None:
            try:
                weights = np.asarray(self.class_weights, dtype=np.float64)
            except (TypeError, ValueError):
                weights = np.zeros(0)
            if weights.shape != (NUM_CLASSES,) or not np.all(np.isfinite(weights) & (weights > 0)):
                raise ConfigError(f"class_weights must be {NUM_CLASSES} positive numbers, got {self.class_weights!r}")
        if self.balance not in STRATEGIES:
            raise ConfigError(f"balance must be one of {STRATEGIES}, got {self.balance!r}")
        if self.balance == "class_weights" and self.class_weights is not None:
            raise ConfigError("give explicit class_weights or balance='class_weights', not both")


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    train_acc: float
    val_loss: float
    val_acc: float


def curve_to_csv(rows, columns: Sequence[str] = CURVE_COLUMNS) -> str:
    """A header of columns, then one line per epoch holding each value's repr.
    Rows are EpochRecords or dicts with those keys (pretraining history)."""
    lines = [",".join(columns)]
    for row in rows:
        values = row if isinstance(row, dict) else asdict(row)
        lines.append(",".join(repr(values[c]) for c in columns))
    return "\n".join(lines) + "\n"


def _probs_for(seqs: list[EncodedSequence], model: SentimentModel) -> np.ndarray:
    """Eval-mode probability rows over (negative, neutral, positive), in input order."""
    probs = np.empty((len(seqs), NUM_CLASSES))
    for idx in eval_chunks(seqs):
        probs[idx] = softmax(model.class_logits([seqs[i] for i in idx]).data)
    return probs


def forward_classify(text: str, model: SentimentModel) -> np.ndarray:
    """Probability vector over (negative, neutral, positive); sums to 1."""
    return _probs_for([encode_pair(text, None, model.vocab, model.config.max_len)], model)[0]


def predict_batch(texts: Sequence[str], model: SentimentModel) -> list[tuple[int, np.ndarray]]:
    """Per-text (argmax label, probabilities); ties resolve to the lower index."""
    seqs = [encode_pair(text, None, model.vocab, model.config.max_len) for text in texts]
    return [(int(np.argmax(probs)), probs) for probs in _probs_for(seqs, model)]


def _partition_scores(seqs, labels, model) -> tuple[float, float]:
    probs = _probs_for(seqs, model)
    preds = probs.argmax(axis=1)
    return log_loss(probs, labels), float((preds == np.asarray(labels)).mean())


def _stratified_split(
    dataset: list[LabeledExample], fraction: float, rng: np.random.Generator
) -> tuple[list[int], list[int]]:
    """Per-class split preserving prevalence; both partitions end up nonempty."""
    by_class: dict[int, list[int]] = {}
    for i, ex in enumerate(dataset):
        by_class.setdefault(ex.label, []).append(i)
    train_idx: list[int] = []
    val_idx: list[int] = []
    for label in sorted(by_class):
        members = np.array(by_class[label])
        rng.shuffle(members)
        n_val = int(round(fraction * len(members)))
        n_val = min(n_val, len(members))
        val_idx.extend(int(i) for i in members[:n_val])
        train_idx.extend(int(i) for i in members[n_val:])
    if not val_idx:
        val_idx.append(train_idx.pop())
    if not train_idx:
        train_idx.append(val_idx.pop())
    return sorted(train_idx), sorted(val_idx)


def train(
    dataset: list[LabeledExample], config: TrainConfig, model: SentimentModel
) -> tuple[SentimentModel, list[EpochRecord]]:
    """Shuffled mini-batch cross-entropy fine-tuning.

    Records eval-mode loss (unweighted log loss) and accuracy on both
    partitions after every epoch; with keep_best the parameters from the
    best-validation-loss epoch are what comes back. A step loss or re-scored
    loss that is not finite raises ConfigError naming the epoch and step.
    """
    hist = ClassHistogram.from_dataset(dataset)
    present = [c for c, n in enumerate(hist.counts) if n > 0]
    if len(present) < 2:
        missing = [LABELS[c] for c, n in enumerate(hist.counts) if n == 0]
        raise ConfigError(f"training needs at least 2 classes; missing: {', '.join(missing)}")

    rng = np.random.default_rng(config.seed)
    train_idx, val_idx = _stratified_split(dataset, config.val_split, rng)
    train_examples = [dataset[i] for i in train_idx]
    val_examples = [dataset[i] for i in val_idx]

    # rebalancing touches the training partition only; validation stays as-is
    weights = config.class_weights
    if config.balance == "oversample":
        train_examples = oversample(train_examples, rng)
    elif config.balance == "undersample":
        train_examples = undersample(train_examples, rng)
    elif config.balance == "class_weights":
        weights = class_weights(train_examples)

    cache: dict[str, EncodedSequence] = {}

    def _encode(text: str) -> EncodedSequence:
        if text not in cache:
            cache[text] = encode_pair(text, None, model.vocab, model.config.max_len)
        return cache[text]

    train_seqs = [_encode(ex.text) for ex in train_examples]
    train_labels = [ex.label for ex in train_examples]
    val_seqs = [_encode(ex.text) for ex in val_examples]
    val_labels = [ex.label for ex in val_examples]

    optimizer = make_optimizer(
        {**model.encoder_parameters(), "classifier.weight": model.cls_w, "classifier.bias": model.cls_b},
        OptimizerConfig(algorithm=config.algorithm, lr=config.lr),
    )

    curve: list[EpochRecord] = []
    best_loss = np.inf
    best_params: dict[str, np.ndarray] | None = None
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(len(train_seqs))
        for step, start in enumerate(range(0, len(order), config.batch_size), 1):
            chunk = order[start : start + config.batch_size]
            with Graph() as graph:
                logits = model.class_logits([train_seqs[i] for i in chunk], training=True, rng=rng)
                loss = cross_entropy(logits, [train_labels[i] for i in chunk], weights)
                check_finite_loss(f"epoch {epoch}, step {step}", loss.item())
                graph.backward(loss)
            optimizer.step()
        train_loss, train_acc = _partition_scores(train_seqs, train_labels, model)
        val_loss, val_acc = _partition_scores(val_seqs, val_labels, model)
        check_finite_loss(f"epoch {epoch}, after step {step}, re-scored training partition", train_loss)
        check_finite_loss(f"epoch {epoch}, after step {step}, re-scored validation partition", val_loss)
        curve.append(EpochRecord(epoch, train_loss, train_acc, val_loss, val_acc))
        if config.keep_best and val_loss < best_loss:
            best_loss = val_loss
            best_params = model.snapshot()

    if config.keep_best and best_params is not None:
        model.load_snapshot(best_params)
    return model, curve


def evaluate(model: SentimentModel, dataset: list[LabeledExample]) -> tuple[MetricsReport, np.ndarray]:
    """Deterministic eval-mode metrics; all arithmetic lives in the metrics module."""
    if not dataset:
        raise ConfigError("evaluate: empty dataset")
    seqs = [encode_pair(ex.text, None, model.vocab, model.config.max_len) for ex in dataset]
    labels = [ex.label for ex in dataset]
    probs = _probs_for(seqs, model)
    preds = probs.argmax(axis=1)
    cm = confusion(preds, labels)
    return report(cm, probs, labels), cm
