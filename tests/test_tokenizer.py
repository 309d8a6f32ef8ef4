import unicodedata

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sentibert.errors import ConfigError
from sentibert.tokenizer import (
    CLS_ID,
    PAD_ID,
    SEP_ID,
    SPECIAL_TOKENS,
    UNK_ID,
    Vocab,
    build_vocab,
    decode,
    encode_pair,
    tokenize,
)


class TestTokenize:
    def test_lowercases_and_splits_whitespace(self):
        assert tokenize("Good\tRoom  here") == ["good", "room", "here"]

    def test_punctuation_becomes_own_token(self):
        assert tokenize("great, really!") == ["great", ",", "really", "!"]

    def test_empty(self):
        assert tokenize("") == []
        assert tokenize("   \n\t ") == []


def reference_tokenize(text: str) -> list[str]:
    """The tokenizer's definition, one character at a time: whitespace ends a
    word, a Unicode P* character ends a word and is a token itself."""
    tokens, word = [], ""
    for ch in text.lower():
        if ch.isspace() or unicodedata.category(ch).startswith("P"):
            if word:
                tokens.append(word)
            word = ""
            if not ch.isspace():
                tokens.append(ch)
        else:
            word += ch
    return tokens + [word] if word else tokens


@settings(max_examples=400, deadline=None)
@given(st.text())
def test_tokenize_matches_per_character_reference(text):
    assert tokenize(text) == reference_tokenize(text)


class TestBuildVocab:
    def test_frequency_order(self):
        vocab = build_vocab(["a a b"], max_size=10, min_freq=1)
        assert vocab.lookup("a") == 5
        assert vocab.lookup("b") == 6

    def test_empty_documents_yield_only_specials(self):
        vocab = build_vocab(["", "   "], max_size=10, min_freq=1)
        assert vocab.tokens() == list(SPECIAL_TOKENS)

    def test_min_freq_filters(self):
        vocab = build_vocab(["a b", "a c"], max_size=10, min_freq=2)
        assert "a" in vocab
        assert "b" not in vocab and "c" not in vocab

    def test_tie_break_lexicographic(self):
        vocab = build_vocab(["b a c a b c z"], max_size=10, min_freq=1)
        assert [vocab.lookup(t) for t in ("a", "b", "c", "z")] == [5, 6, 7, 8]

    def test_max_size_caps_vocab(self):
        vocab = build_vocab(["a b c d e f g"], max_size=7, min_freq=1)
        assert len(vocab) == 7
        assert "c" not in vocab  # only the 2 lexicographically-first ties fit

    def test_max_size_too_small(self):
        with pytest.raises(ConfigError):
            build_vocab(["a"], max_size=5)

    def test_empty_corpus(self):
        with pytest.raises(ConfigError):
            build_vocab([], max_size=10)

    def test_deterministic(self):
        docs = ["the room was fine", "the pool was cold", "fine room"]
        assert build_vocab(docs, 50).tokens() == build_vocab(docs, 50).tokens()


class TestEncodePair:
    @pytest.fixture
    def vocab(self):
        return Vocab(list(SPECIAL_TOKENS) + ["good", "room", "a", "b"])

    def test_empty_text(self, vocab):
        seq = encode_pair("", None, vocab, 8)
        assert seq.token_ids == [CLS_ID, SEP_ID]
        assert seq.segment_ids == [0, 0]
        assert seq.real_length() == 2

    def test_single_segment_layout(self, vocab):
        seq = encode_pair("good room", None, vocab, 5)
        assert seq.token_ids == [CLS_ID, 5, 6, SEP_ID]
        assert seq.segment_ids == [0, 0, 0, 0]

    def test_pair_segments(self, vocab):
        seq = encode_pair("a", "b", vocab, 8)
        assert seq.token_ids == [CLS_ID, 7, SEP_ID, 8, SEP_ID]
        assert seq.segment_ids == [0, 0, 0, 1, 1]

    def test_unknown_tokens_become_unk(self, vocab):
        seq = encode_pair("good mystery", None, vocab, 6)
        assert seq.token_ids[:4] == [CLS_ID, 5, UNK_ID, SEP_ID]

    def test_truncation_trims_longer_segment_first(self, vocab):
        seq = encode_pair("a a a a", "b", vocab, 6)
        # A shrinks from 4 to 2 so [CLS] a a [SEP] b [SEP] fits exactly
        assert seq.token_ids == [CLS_ID, 7, 7, SEP_ID, 8, SEP_ID]

    def test_truncation_tie_trims_b(self, vocab):
        seq = encode_pair("a a", "b b", vocab, 6)
        assert seq.token_ids == [CLS_ID, 7, 7, SEP_ID, 8, SEP_ID]

    def test_single_segment_truncates_a(self, vocab):
        seq = encode_pair("a a a a a", None, vocab, 4)
        assert seq.token_ids == [CLS_ID, 7, 7, SEP_ID]

    def test_max_len_too_small(self, vocab):
        with pytest.raises(ConfigError):
            encode_pair("a", None, vocab, 2)


class TestDecode:
    def test_inverse_of_build(self):
        vocab = build_vocab(["a a b"], max_size=10)
        assert decode([2, 5, 3], vocab) == ["[CLS]", "a", "[SEP]"]

    def test_empty(self):
        vocab = build_vocab(["a"], max_size=10)
        assert decode([], vocab) == []

    def test_out_of_range(self):
        vocab = build_vocab(["a"], max_size=10)
        with pytest.raises(IndexError):
            decode([len(vocab)], vocab)

    def test_round_trip(self):
        vocab = build_vocab(["the room was very good indeed"], max_size=50)
        text = "the room was good"
        seq = encode_pair(text, None, vocab, 16)
        real = [t for t in decode(seq.token_ids, vocab) if t not in SPECIAL_TOKENS]
        assert real == tokenize(text)


word = st.text(alphabet=st.characters(min_codepoint=97, max_codepoint=122), min_size=1, max_size=6)


@settings(max_examples=60, deadline=None)
@given(
    words_a=st.lists(word, max_size=12),
    words_b=st.one_of(st.none(), st.lists(word, max_size=12)),
    max_len=st.integers(min_value=3, max_value=20),
)
def test_encoded_sequence_invariants(words_a, words_b, max_len):
    vocab = build_vocab([" ".join(words_a) + " extra words here"], max_size=40)
    seq = encode_pair(" ".join(words_a), None if words_b is None else " ".join(words_b), vocab, max_len)
    # real tokens only: no [PAD], and truncation keeps within max_len
    assert len(seq.token_ids) == len(seq.segment_ids) == seq.real_length() <= max_len
    assert PAD_ID not in seq.token_ids
    full = 2 + len(words_a) + (0 if words_b is None else 1 + len(words_b))
    assert seq.real_length() == min(full, max_len)
    assert seq.token_ids[0] == CLS_ID
    # one [SEP] per segment
    expected_seps = 1 if words_b is None else 2
    assert seq.token_ids.count(SEP_ID) == expected_seps
    # segments: 0 through the first [SEP], 1 for B tokens and its [SEP]
    first_sep = seq.token_ids.index(SEP_ID)
    assert all(s == 0 for s in seq.segment_ids[: first_sep + 1])
    if expected_seps == 2:
        assert all(s == 1 for s in seq.segment_ids[first_sep + 1 :])


class TestVocabFile:
    def test_save_load_round_trip(self, tmp_path):
        vocab = build_vocab(["the room was good", "bad room"], max_size=20)
        path = tmp_path / "vocab.txt"
        vocab.save(str(path))
        loaded = Vocab.load(str(path))
        assert loaded.tokens() == vocab.tokens()
        assert loaded.content_hash() == vocab.content_hash()

    def test_line_number_is_id(self, tmp_path):
        vocab = build_vocab(["a b a"], max_size=10)
        path = tmp_path / "vocab.txt"
        vocab.save(str(path))
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "[PAD]"
        assert lines[5] == "a"
        assert lines[6] == "b"

    def test_rejects_missing_specials(self):
        with pytest.raises(ConfigError):
            Vocab(["a", "b"])

    def test_rejects_duplicates(self):
        with pytest.raises(ConfigError):
            Vocab(list(SPECIAL_TOKENS) + ["a", "a"])
