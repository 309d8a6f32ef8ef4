"""Toy-scale pretraining objectives: masked-token prediction and
next-sentence prediction with tied MLM output weights.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, SamplingError, check_field_types, check_finite_loss
from .model import SentimentModel, eval_chunks, row_starts
from .optim import Adam, check_optimizer
from .tensor import Graph, Tensor, add, cross_entropy
from .tokenizer import (
    CLS_ID,
    MASK_ID,
    NUM_SPECIALS,
    SEP_ID,
    EncodedSequence,
    Vocab,
    encode_pair,
)

SENTINEL = -1  # mlm target at positions not selected for prediction
HISTORY_COLUMNS = ("epoch", "train_loss", "val_loss", "mlm_loss", "nsp_loss", "mlm_acc")


@dataclass
class MaskedBatch:
    sequences: list[EncodedSequence]
    mlm_targets: list[list[int]]  # per sequence, SENTINEL where unselected
    nsp_labels: list[int]  # 1 = genuinely consecutive


def mask_tokens(
    seq: EncodedSequence, p: float, rng: np.random.Generator, vocab_size: int
) -> tuple[EncodedSequence, list[int]]:
    """Select eligible positions independently with probability p; replace
    80% with [MASK], 10% with a random non-special token, 10% unchanged.

    [CLS] and [SEP] positions are never eligible.
    """
    if not 0.0 <= p < 1.0:
        raise ContractError(f"mask probability must be in [0, 1), got {p}")
    new_ids = list(seq.token_ids)
    targets = [SENTINEL] * len(new_ids)
    for i, token_id in enumerate(seq.token_ids):
        if token_id in (CLS_ID, SEP_ID):
            continue
        if rng.random() >= p:
            continue
        targets[i] = token_id
        roll = rng.random()
        if roll < 0.8:
            new_ids[i] = MASK_ID
        elif roll < 0.9:
            if vocab_size <= NUM_SPECIALS:
                raise ConfigError("random-token replacement needs a non-special vocab entry")
            new_ids[i] = int(rng.integers(NUM_SPECIALS, vocab_size))
        # else: keep the original token
    return EncodedSequence(token_ids=new_ids, segment_ids=list(seq.segment_ids)), targets


def nsp_pairs(
    corpus: list[list[str]], rng: np.random.Generator
) -> list[tuple[str, str, int]]:
    """For each adjacent sentence pair: emit the true successor with
    probability 0.5 (label 1), else a sentence from a different document (label 0).
    """
    for doc_index, doc in enumerate(corpus):
        if len(doc) < 2:
            raise ConfigError(f"document {doc_index} has {len(doc)} sentence(s); need at least 2")
    pairs: list[tuple[str, str, int]] = []
    for doc_index, doc in enumerate(corpus):
        for first, successor in zip(doc, doc[1:]):
            if rng.random() < 0.5:
                pairs.append((first, successor, 1))
            else:
                others = [i for i in range(len(corpus)) if i != doc_index]
                if not others:
                    raise SamplingError(
                        "cannot sample a non-successor: corpus has a single document"
                    )
                other_doc = corpus[others[int(rng.integers(len(others)))]]
                pairs.append((first, other_doc[int(rng.integers(len(other_doc)))], 0))
    return pairs


def build_masked_batch(
    pairs: list[tuple[str, str, int]],
    vocab: Vocab,
    max_len: int,
    p: float,
    rng: np.random.Generator,
) -> MaskedBatch:
    sequences, targets, labels = [], [], []
    for first, second, label in pairs:
        seq = encode_pair(first, second, vocab, max_len)
        masked, mlm_targets = mask_tokens(seq, p, rng, len(vocab))
        sequences.append(masked)
        targets.append(mlm_targets)
        labels.append(label)
    return MaskedBatch(sequences=sequences, mlm_targets=targets, nsp_labels=labels)


def _batch_losses(
    batch: MaskedBatch,
    model: SentimentModel,
    training: bool,
    rng: np.random.Generator | None,
) -> tuple[Tensor | None, Tensor, np.ndarray | None, list[int]]:
    """Forward the batch at once; returns (mlm_loss or None, nsp_loss, mlm logits, mlm targets).

    The encoder computes its last layer only at the rows the heads read: each
    sequence's [CLS], then every masked position."""
    starts = row_starts(batch.sequences)
    rows, targets = [], []
    for start, seq_targets in zip(starts, batch.mlm_targets):
        for i, t in enumerate(seq_targets):
            if t != SENTINEL:
                rows.append(start + i)
                targets.append(t)
    hidden = model.hidden_states(batch.sequences, training, rng, rows=starts + rows)
    b = len(starts)
    nsp_loss = cross_entropy(model.nsp_logits(hidden, range(b)), batch.nsp_labels)
    if not rows:
        return None, nsp_loss, None, []
    mlm_logits = model.mlm_logits(hidden, range(b, b + len(rows)))
    return cross_entropy(mlm_logits, targets), nsp_loss, mlm_logits.data, targets


def pretrain_step(
    batch: MaskedBatch,
    model: SentimentModel,
    optimizer,
    rng: np.random.Generator | None = None,
) -> dict[str, float]:
    """One combined MLM+NSP optimization step; returns both loss values.

    A batch with zero selected positions trains NSP only and reports mlm_loss 0.
    """
    if not batch.sequences:
        raise ContractError("pretrain_step: empty batch")
    with Graph() as graph:
        mlm_loss, nsp_loss, _, _ = _batch_losses(batch, model, training=True, rng=rng)
        total = nsp_loss if mlm_loss is None else add(mlm_loss, nsp_loss)
        graph.backward(total)
    optimizer.step()
    return {
        "mlm_loss": 0.0 if mlm_loss is None else mlm_loss.item(),
        "nsp_loss": nsp_loss.item(),
    }


def eval_losses(batch: MaskedBatch, model: SentimentModel) -> dict[str, float]:
    """Eval-mode MLM/NSP losses and masked-token top-1 accuracy on a fixed batch."""
    if not batch.sequences:
        raise ContractError("eval_losses: empty batch")
    mlm_sum = nsp_sum = 0.0
    hits = total = 0
    for idx in eval_chunks(batch.sequences):
        chunk = MaskedBatch(
            sequences=[batch.sequences[i] for i in idx],
            mlm_targets=[batch.mlm_targets[i] for i in idx],
            nsp_labels=[batch.nsp_labels[i] for i in idx],
        )
        mlm_loss, nsp_loss, logits, targets = _batch_losses(chunk, model, training=False, rng=None)
        nsp_sum += nsp_loss.item() * len(idx)
        if mlm_loss is not None:
            mlm_sum += mlm_loss.item() * len(targets)
            hits += int((logits.argmax(axis=1) == np.asarray(targets)).sum())
            total += len(targets)
    return {
        "mlm_loss": mlm_sum / total if total else 0.0,
        "nsp_loss": nsp_sum / len(batch.sequences),
        "mlm_accuracy": hits / total if total else 0.0,
    }


@dataclass
class PretrainConfig:
    epochs: int = 5
    batch_size: int = 8
    mask_probability: float = 0.15
    seed: int = 0
    lr: float = 1e-3  # pretraining runs Adam

    def __post_init__(self):
        check_field_types(self)
        if self.epochs < 1:
            raise ConfigError(f"epochs must be at least 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be at least 1, got {self.batch_size}")
        if not 0.0 <= self.mask_probability < 1.0:
            raise ConfigError(f"mask_probability must be in [0, 1), got {self.mask_probability}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        check_optimizer("adam", self.lr)


def run_pretraining(
    corpus: list[list[str]], model: SentimentModel, config: PretrainConfig
) -> list[dict[str, float]]:
    """Epochs of MLM+NSP training over the corpus's sentence pairs.

    One record per epoch, keyed by HISTORY_COLUMNS: train_loss is the mean
    MLM+NSP loss of the epoch's steps; val_loss, mlm_loss, nsp_loss and
    mlm_acc are eval-mode figures on a fixed masking of the whole pair set
    (val_loss = mlm_loss + nsp_loss). A step loss or val_loss that is not
    finite raises ConfigError naming the epoch and step.
    """
    rng = np.random.default_rng(config.seed)
    eval_rng = np.random.default_rng(config.seed + 1)
    pairs = nsp_pairs(corpus, rng)
    eval_batch = build_masked_batch(
        pairs, model.vocab, model.config.max_len, config.mask_probability, eval_rng
    )
    optimizer = Adam(model.named_parameters("nsp"), config.lr)
    history: list[dict[str, float]] = []
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(len(pairs))
        step_losses = []
        for step, start in enumerate(range(0, len(pairs), config.batch_size), 1):
            chunk = [pairs[i] for i in order[start : start + config.batch_size]]
            batch = build_masked_batch(
                chunk, model.vocab, model.config.max_len, config.mask_probability, rng
            )
            losses = pretrain_step(batch, model, optimizer, rng=rng)
            step_losses.append(losses["mlm_loss"] + losses["nsp_loss"])
            check_finite_loss(f"epoch {epoch}, step {step}", step_losses[-1])
        held = eval_losses(eval_batch, model)
        check_finite_loss(f"epoch {epoch}, after step {step}, held-out pairs", held["mlm_loss"] + held["nsp_loss"])
        history.append(
            {
                "epoch": epoch,
                "train_loss": float(np.mean(step_losses)),
                "val_loss": held["mlm_loss"] + held["nsp_loss"],
                "mlm_loss": held["mlm_loss"],
                "nsp_loss": held["nsp_loss"],
                "mlm_acc": held["mlm_accuracy"],
            }
        )
    return history
