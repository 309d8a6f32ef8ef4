import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sentibert.errors import ContractError, DataError
from sentibert.metrics import (
    MetricsReport,
    accuracy,
    cm_from_csv,
    cm_to_csv,
    confusion,
    f1_class,
    log_loss,
    macro,
    precision_class,
    recall_class,
    report,
)


def brute_force_metrics(preds, labels):
    """Recount every metric from scratch, one comparison at a time."""
    out = {"per_class": {}}
    n = len(labels)
    correct = sum(1 for p, a in zip(preds, labels) if p == a)
    out["accuracy"] = correct / n
    for c in range(3):
        tp = sum(1 for p, a in zip(preds, labels) if p == c and a == c)
        fp = sum(1 for p, a in zip(preds, labels) if p == c and a != c)
        fn = sum(1 for p, a in zip(preds, labels) if p != c and a == c)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0
        out["per_class"][c] = (precision, recall, f1)
    return out


class TestConfusion:
    def test_perfect_predictions_are_diagonal(self):
        cm = confusion([0, 1, 2, 1], [0, 1, 2, 1])
        assert np.array_equal(cm, np.diag([1, 2, 1]))

    def test_hand_count(self):
        cm = confusion([1, 1, 1], [0, 1, 2])
        assert np.array_equal(cm[:, 1], [1, 1, 1])
        cm[:, 1] = 0
        assert np.all(cm == 0)

    def test_empty_input(self):
        assert np.all(confusion([], []) == 0)

    def test_length_mismatch(self):
        with pytest.raises(ContractError):
            confusion([0, 1], [0])

    def test_bad_class_value(self):
        with pytest.raises(ContractError):
            confusion([3], [0])


class TestPerClassMetrics:
    # actual 0: 8 predicted 0, 2 predicted 1; two class-1 rows predicted 0
    CM = np.array([[8, 2, 0], [2, 3, 0], [0, 0, 5]])

    def test_precision_eq7(self):
        assert precision_class(self.CM, 0) == pytest.approx(0.8)

    def test_recall_eq8(self):
        assert recall_class(self.CM, 0) == pytest.approx(0.8)

    def test_f1_eq9(self):
        assert f1_class(self.CM, 0) == pytest.approx(16 / 20)

    def test_perfect_precision(self):
        cm = np.array([[3, 0, 0], [0, 2, 0], [1, 0, 4]])
        assert precision_class(cm, 1) == 1.0

    def test_perfect_recall(self):
        cm = np.array([[3, 0, 0], [0, 2, 0], [1, 0, 4]])
        assert recall_class(cm, 0) == 1.0

    def test_degenerate_zero_with_flag(self):
        empty_col = np.array([[0, 2, 0], [0, 3, 0], [0, 1, 5]])  # nothing predicted negative
        assert precision_class(empty_col, 0) == 0.0
        assert "precision.negative" in report(empty_col).degenerate_flags
        empty_row = np.array([[0, 0, 0], [2, 3, 0], [0, 1, 5]])  # nothing actually negative
        assert recall_class(empty_row, 0) == 0.0
        assert "recall.negative" in report(empty_row).degenerate_flags
        zero_tp = np.array([[0, 2, 0], [2, 3, 0], [0, 1, 5]])  # tp 0 but fp+fn > 0: plain 0, no flag
        assert f1_class(zero_tp, 0) == 0.0
        assert "f1.negative" not in report(zero_tp).degenerate_flags

    def test_f1_is_harmonic_mean_when_defined(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            cm = rng.integers(0, 10, size=(3, 3))
            for c in range(3):
                p, r = precision_class(cm, c), recall_class(cm, c)
                if p + r > 0:
                    assert f1_class(cm, c) == pytest.approx(2 * p * r / (p + r), abs=1e-12)


class TestAccuracy:
    def test_diagonal(self):
        assert accuracy(np.diag([3, 4, 5])) == 1.0

    def test_trace_arithmetic(self):
        cm = np.array([[30, 5, 0], [5, 30, 5], [0, 0, 25]])
        assert accuracy(cm) == pytest.approx(0.85)

    def test_uniform_matrix(self):
        assert accuracy(np.full((3, 3), 7)) == pytest.approx(1 / 3)

    def test_empty_matrix_rejected(self):
        with pytest.raises(ContractError):
            accuracy(np.zeros((3, 3)))

    def test_equals_prevalence_weighted_recall(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            cm = rng.integers(0, 9, size=(3, 3))
            if cm.sum() == 0:
                continue
            weighted = sum(recall_class(cm, c) * cm[c, :].sum() for c in range(3)) / cm.sum()
            assert accuracy(cm) == pytest.approx(weighted, abs=1e-12)


class TestMacro:
    def test_all_ones(self):
        assert macro([1.0, 1.0, 1.0]) == 1.0

    def test_mean(self):
        assert macro([0.5, 1.0, 0.0]) == pytest.approx(0.5)

    def test_symmetric_cm(self):
        cm = np.array([[4, 1, 1], [1, 4, 1], [1, 1, 4]])
        per = [f1_class(cm, c) for c in range(3)]
        assert macro(per) == pytest.approx(per[0], abs=1e-12)


class TestLogLoss:
    def test_near_one_probability(self):
        p = 1.0 - 1e-15
        rest = (1.0 - p) / 2
        assert log_loss([[p, rest, rest]], [0]) == pytest.approx(0.0, abs=1e-12)

    def test_uniform(self):
        assert log_loss([[1 / 3, 1 / 3, 1 / 3]], [1]) == pytest.approx(math.log(3.0))

    def test_hand_arithmetic(self):
        probs = [[0.5, 0.25, 0.25], [0.25, 0.5, 0.25]]
        got = log_loss(probs, [0, 2])
        assert got == pytest.approx((math.log(2) + math.log(4)) / 2, abs=1e-12)

    def test_clamps_zero_probability(self):
        value = log_loss([[0.0, 1.0, 0.0]], [0])
        assert value == pytest.approx(-math.log(1e-15))

    def test_rejects_unnormalized(self):
        with pytest.raises(ContractError):
            log_loss([[0.5, 0.5, 0.5]], [0])


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=1, max_size=50)
)
def test_brute_force_oracle_equivalence(pairs):
    preds = [p for p, _ in pairs]
    labels = [a for _, a in pairs]
    cm = confusion(preds, labels)
    expected = brute_force_metrics(preds, labels)
    assert accuracy(cm) == pytest.approx(expected["accuracy"], abs=1e-12)
    for c in range(3):
        p, r, f = expected["per_class"][c]
        assert precision_class(cm, c) == pytest.approx(p, abs=1e-12)
        assert recall_class(cm, c) == pytest.approx(r, abs=1e-12)
        assert f1_class(cm, c) == pytest.approx(f, abs=1e-12)
    rep = report(cm)
    assert rep.precision_macro == pytest.approx(macro([expected["per_class"][c][0] for c in range(3)]), abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=1, max_size=50),
    st.permutations([0, 1, 2]),
)
def test_permutation_invariance(pairs, perm):
    preds = [p for p, _ in pairs]
    labels = [a for _, a in pairs]
    cm = confusion(preds, labels)
    cm_perm = confusion([perm[p] for p in preds], [perm[a] for a in labels])
    assert accuracy(cm) == pytest.approx(accuracy(cm_perm), abs=1e-12)
    for c in range(3):
        assert precision_class(cm, c) == pytest.approx(precision_class(cm_perm, perm[c]), abs=1e-12)
        assert recall_class(cm, c) == pytest.approx(recall_class(cm_perm, perm[c]), abs=1e-12)
        assert f1_class(cm, c) == pytest.approx(f1_class(cm_perm, perm[c]), abs=1e-12)


class TestSerialization:
    def test_report_json_round_trip(self):
        cm = confusion([0, 1, 2, 2], [0, 1, 1, 2])
        probs = [[0.8, 0.1, 0.1], [0.2, 0.6, 0.2], [0.1, 0.3, 0.6], [0.05, 0.05, 0.9]]
        rep = report(cm, probs, [0, 1, 1, 2])
        restored = MetricsReport.from_dict(__import__("json").loads(rep.to_json()))
        assert restored == rep

    @pytest.mark.parametrize(
        "path, value",
        [("accuracy", "x"), ("accuracy", None), ("precision.per_class", [1.0]), ("log_loss", float("inf"))],
    )
    def test_from_dict_rejects_a_mistyped_field_naming_it(self, path, value):
        raw = json.loads(report(confusion([0, 1, 2], [0, 1, 1])).to_json())
        *parents, last = path.split(".")
        target = raw
        for key in parents:
            target = target[key]
        target[last] = value
        with pytest.raises(DataError, match=re.escape(path)):
            MetricsReport.from_dict(raw)

    def test_from_dict_rejects_a_non_object(self):
        with pytest.raises(DataError, match="precision.per_class"):
            MetricsReport.from_dict([1, 2, 3])

    def test_report_field_names(self):
        raw = __import__("json").loads(report(confusion([0], [0])).to_json())
        assert set(raw) == {"precision", "recall", "f1", "accuracy", "log_loss", "degenerate_flags"}
        assert set(raw["precision"]) == {"per_class", "macro"}

    def test_cm_csv_round_trip(self):
        cm = confusion([0, 1, 2, 0, 1], [0, 2, 2, 0, 1])
        text = cm_to_csv(cm)
        lines = text.strip().split("\n")
        assert lines[0] == ",negative,neutral,positive"
        assert len(lines) == 4
        assert np.array_equal(cm_from_csv(text), cm)

    def test_report_values_in_range(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(1, 40))
            preds = rng.integers(0, 3, n)
            labels = rng.integers(0, 3, n)
            rep = report(confusion(preds, labels))
            for v in (
                rep.accuracy,
                rep.precision_macro,
                rep.recall_macro,
                rep.f1_macro,
                *rep.precision_per_class,
                *rep.recall_per_class,
                *rep.f1_per_class,
            ):
                assert 0.0 <= v <= 1.0
            assert rep.log_loss >= 0.0
