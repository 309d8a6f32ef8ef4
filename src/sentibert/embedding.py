"""Token + segment + position embedding lookup and summation."""

from .tensor import Tensor, batch_layout, gather_rows
from .tokenizer import EncodedSequence


def embed(seqs: list[EncodedSequence], params: dict[str, Tensor]) -> Tensor:
    """Packed rows of a batch, each sequence's rows back to back: the row of
    token i = (token_table[token_ids[i]] + segment_table[segment_ids[i]]) + position_table[i],
    one gather over the embeddings.* tables of params, the positions read from
    the batch's plan (tensor.batch_layout). Tables that disagree on width fail
    with a ShapeError."""
    return gather_rows(
        (params["embeddings.token"], [t for s in seqs for t in s.token_ids]),
        (params["embeddings.segment"], [t for s in seqs for t in s.segment_ids]),
        (params["embeddings.position"], batch_layout(tuple(s.real_length() for s in seqs)).positions),
    )
