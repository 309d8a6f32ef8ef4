"""Toy-scale pretraining objectives: masked-token prediction and
next-sentence prediction with tied MLM output weights.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, SamplingError, check_finite_loss
from .model import SentimentModel, eval_chunks, map_chunks
from .optim import OPTIMIZERS, LoopConfig, descend, run_epochs
from .tensor import Tensor, batch_layout, cross_entropy
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
    if p > 0 and vocab_size <= NUM_SPECIALS:  # whatever the draws: a run must not pass or fail by seed
        raise ConfigError("random-token replacement needs a non-special vocab entry")
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
            new_ids[i] = int(rng.integers(NUM_SPECIALS, vocab_size))
        # else: keep the original token
    return EncodedSequence(token_ids=new_ids, segment_ids=list(seq.segment_ids)), targets


def nsp_pairs(
    corpus: list[list[str]], rng: np.random.Generator
) -> list[tuple[str, str, int]]:
    """For each adjacent sentence pair: emit the true successor with
    probability 0.5 (label 1), else a sentence from a different document (label 0).
    A document of fewer than two sentences, or a non-successor draw from a
    one-document corpus, raises SamplingError.
    """
    for doc_index, doc in enumerate(corpus):
        if len(doc) < 2:
            raise SamplingError(f"document {doc_index} has {len(doc)} sentence(s); need at least 2")
    pairs: list[tuple[str, str, int]] = []
    for doc_index, doc in enumerate(corpus):
        for first, successor in zip(doc, doc[1:]):
            if rng.random() < 0.5:
                pairs.append((first, successor, 1))
            else:
                if len(corpus) < 2:
                    raise SamplingError(
                        "cannot sample a non-successor: corpus has a single document"
                    )
                other = int(rng.integers(len(corpus) - 1))
                other_doc = corpus[other + (other >= doc_index)]  # any document but this one
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
) -> tuple[Tensor | None, Tensor, np.ndarray | None, np.ndarray]:
    """Forward the batch at once; returns (mlm_loss or None, nsp_loss, mlm logits, mlm targets).

    The encoder computes its last layer only at the rows the heads read: each
    sequence's [CLS], then every masked position."""
    plan = batch_layout(tuple([s.real_length() for s in batch.sequences]))
    packed = np.concatenate(batch.mlm_targets)  # one target per packed row
    rows = np.flatnonzero(packed != SENTINEL)
    targets = packed[rows]
    hidden = model.hidden_states(batch.sequences, training, rng, np.concatenate((plan.start, rows)), plan)
    b = len(plan.start)
    nsp_loss = cross_entropy(model.nsp_logits(hidden, slice(0, b)), batch.nsp_labels)
    if not rows.size:
        return None, nsp_loss, None, targets
    mlm_logits = model.mlm_logits(hidden, slice(b, b + rows.size))
    return cross_entropy(mlm_logits, targets), nsp_loss, mlm_logits.data, targets


def pretrain_step(
    batch: MaskedBatch,
    model: SentimentModel,
    optimizer,
    rng: np.random.Generator | None = None,
    where: str = "pretrain step",
) -> dict[str, float]:
    """One combined MLM+NSP optimization step; returns both loss values.

    A batch with zero selected positions trains NSP only and reports mlm_loss 0.
    A combined loss that is not finite raises ConfigError naming where before
    backward, so the weights do not take the step.
    """
    if not batch.sequences:
        raise ContractError("pretrain_step: empty batch")
    losses = {}

    def both():
        mlm_loss, nsp_loss, _, _ = _batch_losses(batch, model, training=True, rng=rng)
        losses.update(mlm_loss=0.0 if mlm_loss is None else mlm_loss.item(), nsp_loss=nsp_loss.item())
        return (nsp_loss,) if mlm_loss is None else (mlm_loss, nsp_loss)

    descend(optimizer, where, both)
    return losses


def eval_losses(batch: MaskedBatch, model: SentimentModel) -> dict[str, float]:
    """Eval-mode figures on a fixed batch, keyed and ordered as the history's held-out
    columns: val_loss = mlm_loss + nsp_loss, mlm_loss, nsp_loss, masked-token top-1 mlm_acc."""
    if not batch.sequences:
        raise ContractError("eval_losses: empty batch")

    def sums(idx) -> tuple[float, float, int, int]:
        chunk = MaskedBatch(
            sequences=[batch.sequences[i] for i in idx],
            mlm_targets=[batch.mlm_targets[i] for i in idx],
            nsp_labels=[batch.nsp_labels[i] for i in idx],
        )
        mlm_loss, nsp_loss, logits, targets = _batch_losses(chunk, model, training=False, rng=None)
        if mlm_loss is None:
            return 0.0, nsp_loss.item() * len(idx), 0, 0
        hits = int((logits.argmax(axis=1) == np.asarray(targets)).sum())
        return mlm_loss.item() * len(targets), nsp_loss.item() * len(idx), hits, len(targets)

    mlm_sum = nsp_sum = 0.0
    hits = total = 0
    for chunk_mlm, chunk_nsp, chunk_hits, chunk_total in map_chunks(sums, eval_chunks(batch.sequences)):
        mlm_sum += chunk_mlm  # on the caller in chunk order: the same float sums as one loop
        nsp_sum += chunk_nsp
        hits += chunk_hits
        total += chunk_total
    mlm_loss, nsp_loss = mlm_sum / total if total else 0.0, nsp_sum / len(batch.sequences)
    mlm_acc = hits / total if total else 0.0
    return {"val_loss": mlm_loss + nsp_loss, "mlm_loss": mlm_loss, "nsp_loss": nsp_loss, "mlm_acc": mlm_acc}


@dataclass
class PretrainConfig(LoopConfig):
    batch_size: int = 8
    mask_probability: float = 0.15
    # pretraining runs Adam: algorithm stays LoopConfig's class attribute

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 <= self.mask_probability < 1.0:
            raise ConfigError(f"mask_probability must be in [0, 1), got {self.mask_probability}")


def run_pretraining(
    corpus: list[list[str]], model: SentimentModel, config: PretrainConfig
) -> list[dict[str, float]]:
    """Epochs of MLM+NSP training over the corpus's sentence pairs.

    One record per epoch, keyed epoch, train_loss, val_loss, mlm_loss,
    nsp_loss, mlm_acc: train_loss is the mean MLM+NSP loss of the epoch's
    steps, the rest are eval_losses on a fixed masking of the whole pair set.
    A corpus with no documents raises ConfigError, as does a step loss or
    val_loss that is not finite, naming the epoch and step; a corpus
    nsp_pairs cannot sample raises SamplingError.
    """
    if not corpus:
        raise ConfigError("pretraining corpus has no documents")
    rng = np.random.default_rng(config.seed)
    eval_rng = np.random.default_rng(config.seed + 1)
    pairs = nsp_pairs(corpus, rng)
    eval_batch = build_masked_batch(
        pairs, model.vocab, model.config.max_len, config.mask_probability, eval_rng
    )
    optimizer = OPTIMIZERS[config.algorithm](model.named_parameters("nsp"), config.lr)

    def step(where: str, idx) -> float:
        chunk = [pairs[i] for i in idx]
        batch = build_masked_batch(chunk, model.vocab, model.config.max_len, config.mask_probability, rng)
        losses = pretrain_step(batch, model, optimizer, rng=rng, where=where)
        return losses["mlm_loss"] + losses["nsp_loss"]

    def end_epoch(where: str, step_losses: list[float]) -> dict[str, float]:
        held = eval_losses(eval_batch, model)
        check_finite_loss(f"{where}, held-out pairs", held["val_loss"])
        return {"train_loss": float(np.mean(step_losses)), **held}

    return run_epochs(config, len(pairs), rng, step, end_epoch)
