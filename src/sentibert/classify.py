"""Three-class sentiment head: fine-tuning on the shared epoch loop with
per-epoch curve tracking and best-validation checkpoint retention, and
batch inference.
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .balance import STRATEGIES, ClassHistogram, by_class, class_weights, rebalance
from .data import NUM_CLASSES, LabeledExample
from .errors import ConfigError, ContractError, check_finite_loss
from .metrics import MetricsReport, confusion, log_loss, report
from .model import SentimentModel, eval_chunks, map_chunks
from .optim import OPTIMIZERS, LoopConfig, descend, run_epochs
from .tensor import cross_entropy, softmax
from .tokenizer import EncodedSequence, encode_pair


@dataclass
class TrainConfig(LoopConfig):
    val_split: float = 0.2
    keep_best: bool = True  # False returns the final-epoch parameters
    algorithm: str = "adam"
    balance: str = "none"  # applied to the training partition only

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 < self.val_split < 1.0:
            raise ConfigError(f"val_split must be in (0, 1), got {self.val_split}")
        if self.balance not in STRATEGIES:
            raise ConfigError(f"balance must be one of {STRATEGIES}, got {self.balance!r}")


def curve_to_csv(rows: Sequence[dict]) -> str:
    """A header of the records' keys, then one line of value reprs per record;
    ContractError unless there are records, all with the same keys in order."""
    if not rows or any(list(row) != list(rows[0]) for row in rows):
        raise ContractError("curve_to_csv: needs one or more records, all with the same keys in the same order")
    lines = [",".join(rows[0])] + [",".join(map(repr, row.values())) for row in rows]
    return "\n".join(lines) + "\n"


def kept_record(curve: Sequence[dict], keep_best: bool) -> dict:
    """The epoch record whose parameters train returns: with keep_best the
    first of least val_loss, else the last."""
    return min(curve, key=lambda row: row["val_loss"]) if keep_best else curve[-1]


def _probs_for(seqs: list[EncodedSequence], model: SentimentModel) -> np.ndarray:
    """Eval-mode probability rows over (negative, neutral, positive), in input
    order; a batch's length-sorted chunks run on map_chunks' workers."""
    if len(seqs) == 1:  # one sequence is its own chunk: no sort, no scatter
        return softmax(model.class_logits(seqs).data)
    chunks = eval_chunks(seqs)
    rows = map_chunks(lambda idx: softmax(model.class_logits([seqs[i] for i in idx]).data), chunks)
    probs = np.empty((len(seqs), NUM_CLASSES))
    for idx, chunk_probs in zip(chunks, rows):
        probs[idx] = chunk_probs
    return probs


def forward_classify(text: str, model: SentimentModel) -> np.ndarray:
    """Probability vector over (negative, neutral, positive); sums to 1."""
    return _probs_for([encode_pair(text, None, model.vocab, model.config.max_len)], model)[0]


def predict_batch(texts: Sequence[str], model: SentimentModel) -> list[tuple[int, np.ndarray]]:
    """Per-text (argmax label, probabilities); ties resolve to the lower index."""
    seqs = [encode_pair(text, None, model.vocab, model.config.max_len) for text in texts]
    probs = _probs_for(seqs, model)
    return list(zip(probs.argmax(axis=1).tolist(), probs))


def _labels(examples: list[LabeledExample]) -> np.ndarray:
    """The examples' labels as an int64 array, which the metrics take unscanned:
    a LabeledExample's label is checked already."""
    return np.array([ex.label for ex in examples], dtype=np.int64)


def _partition_scores(seqs, labels: np.ndarray, model) -> tuple[float, float]:
    probs = _probs_for(seqs, model)
    return log_loss(probs, labels), float((probs.argmax(axis=1) == labels).mean())


def _stratified_split(
    dataset: list[LabeledExample], fraction: float, rng: np.random.Generator
) -> tuple[list[int], list[int]]:
    """Per-class split preserving prevalence; both partitions end up nonempty."""
    train_idx: list[int] = []
    val_idx: list[int] = []
    for group in by_class(dataset):
        members = rng.permutation(group)  # an absent class is a shuffle of nothing: no draw
        n_val = int(round(fraction * len(members)))
        val_idx.extend(int(i) for i in members[:n_val])
        train_idx.extend(int(i) for i in members[n_val:])
    if not val_idx:
        val_idx.append(train_idx.pop())
    if not train_idx:
        train_idx.append(val_idx.pop())
    return sorted(train_idx), sorted(val_idx)


def train(
    dataset: list[LabeledExample], config: TrainConfig, model: SentimentModel
) -> tuple[SentimentModel, list[dict]]:
    """Shuffled mini-batch cross-entropy fine-tuning.

    One record per epoch, keyed epoch, train_loss, train_acc, val_loss,
    val_acc: train_loss and train_acc are the epoch's step figures (mean
    loss; share of examples whose logits put their label first), val_loss
    (log loss) and val_acc an eval-mode re-score of the validation
    partition. The model returned holds the parameters of the epoch
    kept_record names. A step or validation loss that is not finite raises
    ConfigError naming the epoch and step.
    """
    missing = ClassHistogram.from_dataset(dataset).missing()
    if len(missing) > NUM_CLASSES - 2:
        raise ConfigError(f"training needs at least 2 classes; missing: {', '.join(missing)}")

    rng = np.random.default_rng(config.seed)
    train_idx, val_idx = _stratified_split(dataset, config.val_split, rng)
    train_examples = [dataset[i] for i in train_idx]
    val_examples = [dataset[i] for i in val_idx]

    # rebalancing touches the training partition only; validation stays as-is
    train_examples = rebalance(train_examples, config.balance, rng)
    weights = class_weights(train_examples) if config.balance == "class_weights" else None

    # one encoding per distinct text: oversampled copies share it
    encoded = {
        text: encode_pair(text, None, model.vocab, model.config.max_len)
        for text in dict.fromkeys(ex.text for ex in train_examples + val_examples)
    }
    train_seqs = [encoded[ex.text] for ex in train_examples]
    train_labels = [ex.label for ex in train_examples]
    val_seqs = [encoded[ex.text] for ex in val_examples]
    val_labels = _labels(val_examples)

    optimizer = OPTIMIZERS[config.algorithm](model.named_parameters("classifier"), config.lr)

    # hits: this epoch's training examples whose step logits put their label first
    hits, records, kept = 0, [], None

    def step(where: str, idx) -> float:
        def loss():
            nonlocal hits
            labels = [train_labels[i] for i in idx]
            logits = model.class_logits([train_seqs[i] for i in idx], training=True, rng=rng)
            hits += int((logits.data.argmax(axis=1) == labels).sum())
            return (cross_entropy(logits, labels, weights),)

        return descend(optimizer, where, loss)

    def end_epoch(where: str, step_losses: list[float]) -> dict:
        nonlocal hits, kept
        train_acc, hits = hits / len(train_seqs), 0
        val_loss, val_acc = _partition_scores(val_seqs, val_labels, model)
        check_finite_loss(f"{where}, re-scored validation partition", val_loss)
        train_loss = float(np.mean(step_losses))
        records.append({"train_loss": train_loss, "train_acc": train_acc, "val_loss": val_loss, "val_acc": val_acc})
        if config.keep_best and kept_record(records, True) is records[-1]:
            kept = model.snapshot()
        return records[-1]

    curve = run_epochs(config, len(train_seqs), rng, step, end_epoch)
    if kept_record(curve, config.keep_best) is not curve[-1]:  # the last epoch's parameters are in place
        model.load_snapshot(kept)
    return model, curve


def evaluate(model: SentimentModel, dataset: list[LabeledExample]) -> tuple[MetricsReport, np.ndarray]:
    """Deterministic eval-mode metrics; all arithmetic lives in the metrics module."""
    if not dataset:
        raise ConfigError("evaluate: empty dataset")
    seqs = [encode_pair(ex.text, None, model.vocab, model.config.max_len) for ex in dataset]
    labels = _labels(dataset)
    probs = _probs_for(seqs, model)
    cm = confusion(probs.argmax(axis=1), labels)
    return report(cm, probs, labels), cm
