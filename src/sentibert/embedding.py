"""Token + segment + position embedding lookup and summation."""

from .tensor import Tensor, gather_rows
from .tokenizer import EncodedSequence


def embed(seqs: list[EncodedSequence], params: dict[str, Tensor], plan) -> Tensor:
    """Packed rows of a batch, each sequence's rows back to back: the row of
    token i = (token_table[token_ids[i]] + segment_table[segment_ids[i]]) + position_table[i],
    one gather over the embeddings.* tables of params, the positions read from
    the batch's plan (tensor.batch_layout). Tables that disagree on width fail
    with a ShapeError."""
    if len(seqs) == 1:  # one sequence's ids are its own lists
        token_ids, segment_ids = seqs[0].token_ids, seqs[0].segment_ids
    else:
        token_ids, segment_ids = [t for s in seqs for t in s.token_ids], [t for s in seqs for t in s.segment_ids]
    return gather_rows(
        (params["embeddings.token"], token_ids),
        (params["embeddings.segment"], segment_ids),
        (params["embeddings.position"], plan.positions),
    )
