"""Token + segment + position embedding tables and their summation."""

from dataclasses import dataclass

from .tensor import Tensor, add, gather_rows
from .tokenizer import EncodedSequence


@dataclass
class EmbeddingTables:
    token: Tensor  # [V x d]
    segment: Tensor  # [2 x d]
    position: Tensor  # [max_len x d]


def embed(seqs: list[EncodedSequence], tables: EmbeddingTables) -> Tensor:
    """Packed rows of a batch, each sequence's rows back to back: the row of
    token i = token_table[token_ids[i]] + segment_table[segment_ids[i]] + position_table[i].
    Tables that disagree on width fail in add with a ShapeError."""
    tok = gather_rows(tables.token, [t for s in seqs for t in s.token_ids])
    seg = gather_rows(tables.segment, [t for s in seqs for t in s.segment_ids])
    pos = gather_rows(tables.position, [i for s in seqs for i in range(s.real_length())])
    return add(add(tok, seg), pos)
