"""Confusion-matrix construction and the classification metric suite.

Per-class precision/recall/F1 use the one-vs-rest view of the 3x3 matrix
and are macro-averaged. Accuracy is trace/total, the proportion of
correctly classified samples. Any 0/0 metric is defined as 0 and the
report records which entries were degenerate instead of emitting NaN.
"""

import io
import json
import numbers
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .data import LABELS, NUM_CLASSES
from .errors import ContractError, DataError, is_int

PROB_CLAMP = 1e-15  # log-loss probabilities are clamped to [1e-15, 1 - 1e-15]


def _class_values(values, op: str) -> np.ndarray:
    """values as an int64 array; ContractError naming the first that is not an
    integer, such as a float, NaN, bool or string. A list or tuple is scanned
    as given (numpy makes [1, True] an integer array), an integer array not at all."""
    listed = isinstance(values, (list, tuple))
    arr = np.asarray(values)
    if listed or arr.dtype.kind not in "iu":
        bad = [v for v in (values if listed else arr.reshape(-1).tolist()) if not is_int(v)]
        if bad:
            raise ContractError(f"{op}: class value {bad[0]!r} is not an integer")
    return arr.astype(np.int64, copy=False)


def confusion(predictions, labels) -> np.ndarray:
    """3x3 integer counts, rows = actual class, columns = predicted class."""
    preds = _class_values(predictions, "confusion")
    actual = _class_values(labels, "confusion")
    if preds.shape != actual.shape or preds.ndim != 1:
        raise ContractError(
            f"confusion: predictions and labels must be equal-length 1-D, got {preds.shape} and {actual.shape}"
        )
    bad = np.flatnonzero((np.minimum(actual, preds) < 0) | (np.maximum(actual, preds) >= NUM_CLASSES))
    if bad.size:
        a, p = actual[bad[0]], preds[bad[0]]
        raise ContractError(f"confusion: class index outside 0..{NUM_CLASSES - 1}: actual={a}, predicted={p}")
    return np.bincount(actual * NUM_CLASSES + preds, minlength=NUM_CLASSES**2).reshape(NUM_CLASSES, NUM_CLASSES)


def _check_cm(cm) -> np.ndarray:
    arr = np.asarray(cm)
    if arr.shape != (NUM_CLASSES, NUM_CLASSES):
        raise ContractError(f"expected a {NUM_CLASSES}x{NUM_CLASSES} confusion matrix, got shape {arr.shape}")
    return arr


def _ratios(cm) -> dict[str, list[tuple[float, bool]]]:
    """Per metric, per class: the one-vs-rest ratio and whether it is
    degenerate, a 0 denominator, for which the value is 0."""
    arr = _check_cm(cm)
    tp, predicted, actual = np.diagonal(arr), arr.sum(axis=0), arr.sum(axis=1)
    # TP / (TP + FP), TP / (TP + FN) and 2TP / (2TP + FP + FN)
    fractions = {"precision": (tp, predicted), "recall": (tp, actual), "f1": (2 * tp, predicted + actual)}
    return {
        metric: [(float(n / d), False) if d > 0 else (0.0, True) for n, d in zip(num, den)]
        for metric, (num, den) in fractions.items()
    }


def _class_ratio(metric: str, cm, c: int) -> float:
    row = _ratios(cm)[metric]
    if not is_int(c) or not 0 <= c < NUM_CLASSES:
        raise IndexError(f"{metric}: class index {c!r} outside 0..{NUM_CLASSES - 1}")
    return row[c][0]


def precision_class(cm, c: int) -> float:
    """TP / (TP + FP) for class c; 0 when column c is empty."""
    return _class_ratio("precision", cm, c)


def recall_class(cm, c: int) -> float:
    """TP / (TP + FN) for class c; 0 when row c is empty."""
    return _class_ratio("recall", cm, c)


def f1_class(cm, c: int) -> float:
    """2TP / (2TP + FP + FN) for class c; 0 when that denominator is 0."""
    return _class_ratio("f1", cm, c)


def accuracy(cm) -> float:
    """trace / total: the proportion of correctly classified samples."""
    arr = _check_cm(cm)
    total = arr.sum()
    if total == 0:
        raise ContractError("accuracy: empty confusion matrix")
    return float(np.trace(arr) / total)


def macro(per_class) -> float:
    """Unweighted mean over the classes."""
    values = list(per_class)
    if len(values) != NUM_CLASSES:
        raise ContractError(f"macro: expected {NUM_CLASSES} per-class values, got {len(values)}")
    return float(sum(values) / NUM_CLASSES)


def log_loss(probabilities, labels) -> float:
    """Mean -log p_label with clamping; every vector must sum to 1 within 1e-6."""
    probs = np.asarray(probabilities, dtype=np.float64)
    actual = _class_values(labels, "log_loss")
    if probs.ndim != 2 or actual.ndim != 1 or probs.shape[0] != actual.shape[0]:
        raise ContractError(f"log_loss: got {probs.shape} probabilities for {actual.shape} labels")
    if probs.shape[0] == 0:
        raise ContractError("log_loss: empty input")
    sums = probs.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > 1e-6):
        worst = int(np.argmax(np.abs(sums - 1.0)))
        raise ContractError(f"log_loss: probability vector {worst} sums to {sums[worst]!r}, not 1")
    if actual.min() < 0 or actual.max() >= probs.shape[1]:
        raise IndexError(f"log_loss: label out of range [0, {probs.shape[1]})")
    picked = probs[np.arange(probs.shape[0]), actual]
    picked = np.clip(picked, PROB_CLAMP, 1.0 - PROB_CLAMP)
    return float(-np.log(picked).mean())


@dataclass
class ClassMetric:
    per_class: list[float]  # one value per label, in LABELS order
    macro: float  # their unweighted mean


@dataclass
class MetricsReport:
    """The metrics file's layout, field for field: to_dict is dataclasses.asdict.
    degenerate_flags names each "metric.label" entry whose denominator was 0, sorted."""

    precision: ClassMetric
    recall: ClassMetric
    f1: ClassMetric
    accuracy: float
    log_loss: float
    degenerate_flags: list[str]

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, raw) -> "MetricsReport":
        """Inverse of to_dict; DataError naming the first field that is missing
        or mistyped. Each per_class list holds NUM_CLASSES finite numbers, the
        macro values, accuracy and log_loss are finite numbers, and
        degenerate_flags is a list of strings."""

        def field(path: str, valid, expected: str):
            value = raw
            for key in path.split("."):
                value = value.get(key) if isinstance(value, dict) else None
            if not valid(value):
                raise DataError(f"metrics field {path} must be {expected}, got {value!r}")
            return value

        def finite(v) -> bool:  # compared, not converted: an int past the float range is not finite
            return isinstance(v, numbers.Real) and not isinstance(v, bool) and abs(v) <= sys.float_info.max

        def real(path: str) -> float:
            return float(field(path, finite, "a finite number"))

        def metric(name: str) -> ClassMetric:
            valid = lambda v: isinstance(v, list) and len(v) == NUM_CLASSES and all(map(finite, v))
            per_class = field(f"{name}.per_class", valid, f"a list of {NUM_CLASSES} finite numbers")
            return ClassMetric([float(v) for v in per_class], real(f"{name}.macro"))

        metrics = [metric(name) for name in ("precision", "recall", "f1")]  # checked in file order
        scalars = [real("accuracy"), real("log_loss")]
        flags = lambda v: isinstance(v, list) and all(isinstance(flag, str) for flag in v)
        return cls(*metrics, *scalars, list(field("degenerate_flags", flags, "a list of strings")))


def report(cm, probabilities=None, labels=None) -> MetricsReport:
    """Assemble the full report; log_loss is 0 when probabilities are absent."""
    ratios = _ratios(cm)
    metrics = {name: ClassMetric(values := [v for v, _ in row], macro(values)) for name, row in ratios.items()}
    flags = [f"{m}.{LABELS[c]}" for m, row in ratios.items() for c, (_, degenerate) in enumerate(row) if degenerate]
    ll = log_loss(probabilities, labels) if probabilities is not None else 0.0
    return MetricsReport(**metrics, accuracy=accuracy(cm), log_loss=ll, degenerate_flags=sorted(flags))


def cm_to_csv(cm) -> str:
    """Header row/column labels negative,neutral,positive plus the 3 count rows."""
    arr = _check_cm(cm)
    buf = io.StringIO()
    buf.write("," + ",".join(LABELS) + "\n")
    for c in range(NUM_CLASSES):
        buf.write(LABELS[c] + "," + ",".join(str(int(v)) for v in arr[c]) + "\n")
    return buf.getvalue()
