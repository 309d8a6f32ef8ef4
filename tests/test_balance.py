from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sentibert.balance import (
    STRATEGIES,
    ClassHistogram,
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
