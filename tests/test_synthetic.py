import re

import pytest

from sentibert.errors import ConfigError
from sentibert.synthetic import (
    LEXICON,
    generate_dataset,
    generate_documents,
    generate_imbalanced,
    generate_split,
)
from sentibert.tokenizer import tokenize


def test_counts_respected():
    data = generate_dataset((5, 7, 11), seed=0)
    counts = [0, 0, 0]
    for ex in data:
        counts[ex.label] += 1
    assert counts == [5, 7, 11]
    with pytest.raises(ConfigError, match=re.escape("counts must be 3 nonnegative ints, got (1, 2)")):
        generate_dataset((1, 2), seed=0)


def test_deterministic_per_seed():
    assert generate_dataset((4, 4, 4), seed=9) == generate_dataset((4, 4, 4), seed=9)
    assert generate_dataset((4, 4, 4), seed=9) != generate_dataset((4, 4, 4), seed=10)


def test_lexeme_words_stay_in_their_class():
    data = generate_dataset((50, 50, 50), seed=3)
    vocab_by_class = [set(words) for words in LEXICON]
    for ex in data:
        tokens = set(tokenize(ex.text))
        for other in range(3):
            if other != ex.label:
                assert not tokens & vocab_by_class[other], ex


def test_split_sizes():
    train, test = generate_split(600, 200, seed=13)
    assert len(train) == 600 and len(test) == 200


def test_imbalanced_counts():
    data = generate_imbalanced(100, 0.3, minority_label=0, seed=1)
    counts = [0, 0, 0]
    for ex in data:
        counts[ex.label] += 1
    assert counts == [30, 100, 100]
    with pytest.raises(ConfigError):
        generate_imbalanced(100, 0.0, 0, seed=1)
    with pytest.raises(ConfigError, match=re.escape("minority_label must be in 0..2, got 3")):
        generate_imbalanced(5, 0.5, 3, seed=0)


def test_documents_shape():
    docs = generate_documents(5, 4, seed=2)
    assert len(docs) == 5
    assert all(len(d) == 4 for d in docs)
    with pytest.raises(ConfigError):
        generate_documents(2, 1, seed=2)
