"""Token + segment + position embedding tables and their summation."""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .tensor import Tensor, add, gather_rows, parameter
from .tokenizer import NUM_SPECIALS, EncodedSequence

INIT_STD = 0.02  # shared scale for every randomly initialized weight


@dataclass
class EmbeddingTables:
    token: Tensor  # [V x d]
    segment: Tensor  # [2 x d]
    position: Tensor  # [max_len x d]

    def width(self) -> int:
        return self.token.data.shape[1]


def _init_tables(vocab_size: int, width: int, max_len: int, rng: np.random.Generator) -> EmbeddingTables:
    return EmbeddingTables(
        token=parameter(rng.normal(0.0, INIT_STD, (vocab_size, width)), name="embeddings.token"),
        segment=parameter(rng.normal(0.0, INIT_STD, (2, width)), name="embeddings.segment"),
        position=parameter(rng.normal(0.0, INIT_STD, (max_len, width)), name="embeddings.position"),
    )


def init_tables(vocab_size: int, width: int, max_len: int, seed: int) -> EmbeddingTables:
    """Tables drawn i.i.d. normal(0, 0.02^2) from a generator seeded with seed."""
    if vocab_size < NUM_SPECIALS:
        raise ConfigError(f"vocab_size must be at least {NUM_SPECIALS}, got {vocab_size}")
    if width < 1 or max_len < 1:
        raise ConfigError(f"width and max_len must be positive, got {width} and {max_len}")
    return _init_tables(vocab_size, width, max_len, np.random.default_rng(seed))


def embed(seqs: list[EncodedSequence], tables: EmbeddingTables) -> Tensor:
    """Packed rows of a batch, each sequence's rows back to back: the row of
    token i = token_table[token_ids[i]] + segment_table[segment_ids[i]] + position_table[i]."""
    if tables.segment.data.shape[1] != tables.width() or tables.position.data.shape[1] != tables.width():
        raise ShapeError("embedding tables disagree on feature width")
    tok = gather_rows(tables.token, [t for s in seqs for t in s.token_ids])
    seg = gather_rows(tables.segment, [t for s in seqs for t in s.segment_ids])
    pos = gather_rows(tables.position, [i for s in seqs for i in range(s.real_length())])
    return add(add(tok, seg), pos)
