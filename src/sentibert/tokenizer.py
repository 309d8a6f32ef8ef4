"""Frequency vocabulary and text-pair encoding into id sequences.

A sequence holds only its real tokens, token i at position i; batches of
unequal lengths are padded inside the attention op alone.

Tokenization is deliberately simple: lowercase, split on Unicode whitespace,
and break out punctuation characters as standalone tokens. Subword schemes
are an extension point, not implemented here.
"""

import hashlib
import unicodedata
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import ConfigError, check_type
from .fileio import atomic_open

PAD_ID = 0
UNK_ID = 1
CLS_ID = 2
SEP_ID = 3
MASK_ID = 4
SPECIAL_TOKENS = ("[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]")
NUM_SPECIALS = len(SPECIAL_TOKENS)


def _is_punctuation(ch: str) -> bool:
    return unicodedata.category(ch).startswith("P")


def tokenize(text: str) -> list[str]:
    """Lowercased word tokens; each punctuation character is its own token.

    A whitespace-separated chunk of letters and digits alone passes whole: no
    punctuation character is alphanumeric. Other chunks are scanned
    character by character.
    """
    tokens: list[str] = []
    for chunk in text.lower().split():
        if chunk.isalnum():
            tokens.append(chunk)
            continue
        start = 0
        for i, ch in enumerate(chunk):
            if _is_punctuation(ch):
                if i > start:
                    tokens.append(chunk[start:i])
                tokens.append(ch)
                start = i + 1
        if start < len(chunk):
            tokens.append(chunk[start:])
    return tokens


class Vocab:
    """Injective token -> id mapping with the five specials pinned at ids 0-4."""

    def __init__(self, tokens: Sequence[str]):
        if tuple(tokens[:NUM_SPECIALS]) != SPECIAL_TOKENS:
            raise ConfigError(f"vocab must start with the special tokens {SPECIAL_TOKENS}")
        if not all(isinstance(tok, str) for tok in tokens):
            raise ConfigError("vocab tokens must be strings")
        self._id_to_token = list(tokens)
        self._token_to_id = {tok: i for i, tok in enumerate(self._id_to_token)}
        if len(self._token_to_id) != len(self._id_to_token):
            raise ConfigError("vocab contains duplicate tokens")

    def __len__(self) -> int:
        return len(self._id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self._token_to_id

    def lookup(self, token: str) -> int:
        """Id of the token, falling back to [UNK]."""
        return self._token_to_id.get(token, UNK_ID)

    def token(self, token_id: int) -> str:
        if not 0 <= token_id < len(self._id_to_token):
            raise IndexError(f"token id {token_id} outside vocabulary of size {len(self._id_to_token)}")
        return self._id_to_token[token_id]

    def tokens(self) -> list[str]:
        return list(self._id_to_token)

    def content_hash(self) -> str:
        return hashlib.sha256("\n".join(self._id_to_token).encode("utf-8")).hexdigest()

    def save(self, path: str) -> None:
        with atomic_open(path) as fh:
            fh.write("\n".join(self._id_to_token))
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "Vocab":
        with open(path, "r", encoding="utf-8") as fh:
            tokens = [line.rstrip("\n") for line in fh if line.rstrip("\n")]
        return cls(tokens)


def build_vocab(corpus: Iterable[str], max_size: int, min_freq: int = 1) -> Vocab:
    """Frequency vocabulary: the max_size-5 most frequent tokens with count >=
    min_freq get ids 5.. in descending frequency, ties broken lexicographically.
    """
    check_type("max_size", max_size, int)
    check_type("min_freq", min_freq, int)
    if max_size < NUM_SPECIALS + 1:
        raise ConfigError(f"max_size must be at least {NUM_SPECIALS + 1}, got {max_size}")
    if min_freq < 1:
        raise ConfigError(f"min_freq must be positive, got {min_freq}")
    counts: Counter[str] = Counter()
    seen_any = False
    for doc in corpus:
        seen_any = True
        counts.update(tokenize(doc))
    if not seen_any:
        raise ConfigError("build_vocab: empty corpus")
    admitted = sorted(
        (tok for tok, n in counts.items() if n >= min_freq),
        key=lambda tok: (-counts[tok], tok),
    )[: max_size - NUM_SPECIALS]
    return Vocab(list(SPECIAL_TOKENS) + admitted)


@dataclass
class EncodedSequence:
    """One model input: the real token ids, token i at position i.

    segment_ids are 0 through the first [SEP] and 1 for segment-B tokens
    and their [SEP].
    """

    token_ids: list[int]
    segment_ids: list[int]

    def real_length(self) -> int:
        return len(self.token_ids)


def encode_pair(text_a: str, text_b: Optional[str], vocab: Vocab, max_len: int) -> EncodedSequence:
    """Lay out [CLS] A... [SEP] (B... [SEP]) truncated to at most max_len tokens.

    Truncation trims the longer segment first, one token at a time from its
    end; ties trim B. Unknown tokens map to [UNK].
    """
    if max_len < 3:
        raise ConfigError(f"max_len must be at least 3, got {max_len}")
    ids_a = [vocab.lookup(t) for t in tokenize(text_a)]
    ids_b = [vocab.lookup(t) for t in tokenize(text_b)] if text_b is not None else None

    n_special = 2 if ids_b is None else 3
    budget = max_len - n_special
    while len(ids_a) + (len(ids_b) if ids_b is not None else 0) > budget:
        if ids_b is not None and len(ids_b) >= len(ids_a) and ids_b:
            ids_b.pop()
        else:
            ids_a.pop()

    token_ids = [CLS_ID] + ids_a + [SEP_ID]
    segment_ids = [0] * len(token_ids)
    if ids_b is not None:
        token_ids += ids_b + [SEP_ID]
        segment_ids += [1] * (len(ids_b) + 1)
    return EncodedSequence(token_ids=token_ids, segment_ids=segment_ids)


def decode(ids: Sequence[int], vocab: Vocab) -> list[str]:
    """Inverse of the id mapping; specials render literally."""
    return [vocab.token(i) for i in ids]
