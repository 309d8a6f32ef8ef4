"""Token + segment + position embedding lookup and summation."""

from .tensor import Tensor, gather_rows
from .tokenizer import EncodedSequence


def embed(seqs: list[EncodedSequence], params: dict[str, Tensor]) -> Tensor:
    """Packed rows of a batch, each sequence's rows back to back: the row of
    token i = (token_table[token_ids[i]] + segment_table[segment_ids[i]]) + position_table[i],
    one gather over the embeddings.* tables of params. Tables that disagree on
    width fail with a ShapeError."""
    return gather_rows(
        (params["embeddings.token"], [t for s in seqs for t in s.token_ids]),
        (params["embeddings.segment"], [t for s in seqs for t in s.segment_ids]),
        (params["embeddings.position"], [i for s in seqs for i in range(s.real_length())]),
    )
