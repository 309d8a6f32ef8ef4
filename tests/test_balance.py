from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sentibert.balance import (
    STRATEGIES,
    ClassHistogram,
    by_class,
    class_weights,
    imbalance_ratio,
    oversample,
    rebalance,
    undersample,
)
from sentibert.data import LabeledExample
from sentibert.errors import ConfigError


def make_dataset(counts):
    return [
        LabeledExample(f"text {label} {i}", label)
        for label, n in enumerate(counts)
        for i in range(n)
    ]


def multiset(dataset):
    return Counter((ex.text, ex.label) for ex in dataset)


class TestImbalanceRatio:
    def test_balanced(self):
        assert imbalance_ratio(make_dataset([10, 10, 10])) == 1.0

    def test_three_class(self):
        assert imbalance_ratio(make_dataset([30, 60, 100])) == pytest.approx(0.3)

    def test_single_class(self):
        assert imbalance_ratio(make_dataset([0, 7, 0])) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            imbalance_ratio([])


class TestOversample:
    def test_counting_oracle(self):
        data = make_dataset([10, 90, 0])
        out = oversample(data, np.random.default_rng(0))
        hist = ClassHistogram.from_dataset(out)
        assert hist.counts == [90, 90, 0]
        # originals all present
        assert multiset(data) <= multiset(out)

    def test_empty_rejected(self):
        with pytest.raises(ConfigError, match="^oversample: empty dataset$"):
            oversample([], np.random.default_rng(0))

    def test_already_balanced_unchanged_as_multiset(self):
        data = make_dataset([5, 5, 5])
        out = oversample(data, np.random.default_rng(1))
        assert multiset(out) == multiset(data)

    def test_single_minority_example_duplicated(self):
        data = make_dataset([1, 5, 0])
        out = oversample(data, np.random.default_rng(2))
        only = [ex for ex in out if ex.label == 0]
        assert len(only) == 5
        assert len({ex.text for ex in only}) == 1

    def test_deterministic(self):
        data = make_dataset([3, 9, 6])
        a = oversample(data, np.random.default_rng(7))
        b = oversample(data, np.random.default_rng(7))
        assert a == b


class TestUndersample:
    def test_counting_oracle(self):
        data = make_dataset([10, 90, 30])
        out = undersample(data, np.random.default_rng(0))
        assert ClassHistogram.from_dataset(out).counts == [10, 10, 10]

    def test_balanced_input_unchanged_as_multiset(self):
        data = make_dataset([4, 4, 4])
        out = undersample(data, np.random.default_rng(1))
        assert multiset(out) == multiset(data)

    def test_output_is_submultiset(self):
        data = make_dataset([8, 20, 14])
        out = undersample(data, np.random.default_rng(2))
        assert multiset(out) <= multiset(data)

    def test_missing_class_rejected(self):
        with pytest.raises(ConfigError, match="positive"):
            undersample(make_dataset([4, 4, 0]), np.random.default_rng(0))

    def test_deterministic(self):
        data = make_dataset([6, 9, 12])
        a = undersample(data, np.random.default_rng(7))
        b = undersample(data, np.random.default_rng(7))
        assert a == b


class TestClassWeights:
    def test_balanced(self):
        assert class_weights(make_dataset([4, 4, 4])) == [1.0, 1.0, 1.0]

    def test_formula(self):
        assert class_weights(make_dataset([10, 10, 40])) == pytest.approx([2.0, 2.0, 0.5])

    def test_prevalence_weighted_mean_is_one(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            counts = [int(rng.integers(1, 40)) for _ in range(3)]
            data = make_dataset(counts)
            weights = class_weights(data)
            mean = sum(w * n for w, n in zip(weights, counts)) / sum(counts)
            assert mean == pytest.approx(1.0, abs=1e-12)

    def test_missing_class_rejected(self):
        with pytest.raises(ConfigError, match="negative"):
            class_weights(make_dataset([0, 5, 5]))


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_rebalance_matches_the_direct_call(strategy):
    data = make_dataset([3, 7, 5])
    direct = {"oversample": oversample, "undersample": undersample}.get(strategy)
    rng, direct_rng = np.random.default_rng(8), np.random.default_rng(8)
    result = rebalance(data, strategy, rng)
    if direct is None:  # "none" and "class_weights" resample nothing
        assert result is data
    else:
        assert result == direct(data, direct_rng)
    assert rng.random() == direct_rng.random()  # the same draws were taken


def test_rebalance_rejects_an_unknown_strategy():
    rng = np.random.default_rng(8)
    with pytest.raises(ConfigError, match="'oversampel'") as err:
        rebalance(make_dataset([3, 7, 5]), "oversampel", rng)
    assert str(STRATEGIES) in str(err.value)
    assert rng.random() == np.random.default_rng(8).random()  # rejected before any draw


@settings(max_examples=100, deadline=None)
@given(
    counts=st.tuples(st.integers(0, 25), st.integers(0, 25), st.integers(0, 25)).filter(
        lambda c: sum(1 for n in c if n > 0) >= 2
    ),
    seed=st.integers(0, 2**31),
)
def test_resampling_invariants(counts, seed):
    data = make_dataset(counts)
    rng = np.random.default_rng(seed)
    over = oversample(data, rng)
    over_counts = [n for n in ClassHistogram.from_dataset(over).counts if n > 0]
    assert len(set(over_counts)) == 1  # balanced among present classes
    assert multiset(data) <= multiset(over)
    assert imbalance_ratio(over) == 1.0
    if all(n > 0 for n in counts):
        under = undersample(data, rng)
        under_counts = ClassHistogram.from_dataset(under).counts
        assert len(set(under_counts)) == 1
        assert multiset(under) <= multiset(data)


def test_histogram_counts_sum_to_total():
    data = make_dataset([2, 0, 5])
    hist = ClassHistogram.from_dataset(data)
    assert sum(hist.counts) == hist.total == 7
    assert hist.to_dict() == {"counts": {"negative": 2, "neutral": 0, "positive": 5}, "total": 7}


def test_by_class_keeps_dataset_order_and_lists_absent_labels_empty():
    labels = [2, 0, 2, 2, 0]
    data = [LabeledExample(f"text {i}", label) for i, label in enumerate(labels)]
    assert by_class(data) == [[1, 4], [], [0, 2, 3]]
    assert by_class([]) == [[], [], []]
    assert ClassHistogram.from_dataset(data).missing() == ["neutral"]
    assert ClassHistogram.from_dataset([]).missing() == ["negative", "neutral", "positive"]
    assert ClassHistogram.from_dataset(make_dataset([1, 1, 1])).missing() == []


def test_resampling_draw_order_is_pinned():
    # present classes in ascending label order, and nothing drawn for an absent class
    from sentibert.classify import _stratified_split

    data = make_dataset([5, 0, 3])  # negatives at 0..4, positives at 5..7, no neutral
    rng, hand = np.random.default_rng(21), np.random.default_rng(21)
    train_idx, _ = _stratified_split(data, 0.4, rng)
    negative, positive = hand.permutation(5), 5 + hand.permutation(3)  # each class's positions, shuffled
    assert train_idx == sorted([*negative[2:], *positive[1:]])  # 2 of 5 and 1 of 3 go to validation
    train = [data[i] for i in train_idx]
    over = oversample(train, rng)
    expected = train + [train[3 + int(hand.integers(2))]]  # positive's one missing copy, drawn among its two
    hand.shuffle(expected)
    assert over == expected
    with pytest.raises(ConfigError, match="neutral"):
        undersample(over, rng)
    assert rng.bit_generator.state == hand.bit_generator.state  # undersample drew nothing

    full = make_dataset([2, 4, 3])  # negatives at 0..1, neutrals at 2..5, positives at 6..8
    rng, hand = np.random.default_rng(5), np.random.default_rng(5)
    expected = full + [full[int(hand.integers(2))] for _ in range(2)] + [full[6 + int(hand.integers(3))]]
    hand.shuffle(expected)
    assert oversample(full, rng) == expected
    expected = []
    for start, n in ((0, 2), (2, 4), (6, 3)):  # each class keeps 2, drawn without replacement
        expected += [full[start + i] for i in sorted(hand.choice(n, size=2, replace=False))]
    hand.shuffle(expected)
    assert undersample(full, rng) == expected
    assert rng.bit_generator.state == hand.bit_generator.state
