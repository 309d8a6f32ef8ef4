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
from dataclasses import dataclass

import numpy as np

from .data import LABELS, NUM_CLASSES
from .errors import ContractError, DataError

PROB_CLAMP = 1e-15  # log-loss probabilities are clamped to [1e-15, 1 - 1e-15]


def confusion(predictions, labels) -> np.ndarray:
    """3x3 integer counts, rows = actual class, columns = predicted class."""
    preds = np.asarray(predictions, dtype=np.int64)
    actual = np.asarray(labels, dtype=np.int64)
    if preds.shape != actual.shape or preds.ndim != 1:
        raise ContractError(
            f"confusion: predictions and labels must be equal-length 1-D, got {preds.shape} and {actual.shape}"
        )
    cm = np.zeros((NUM_CLASSES, NUM_CLASSES), dtype=np.int64)
    for a, p in zip(actual, preds):
        if not (0 <= a < NUM_CLASSES and 0 <= p < NUM_CLASSES):
            raise ContractError(f"confusion: class index outside 0..{NUM_CLASSES - 1}: actual={a}, predicted={p}")
        cm[a, p] += 1
    return cm


def _check_cm(cm) -> np.ndarray:
    arr = np.asarray(cm)
    if arr.shape != (NUM_CLASSES, NUM_CLASSES):
        raise ContractError(f"expected a {NUM_CLASSES}x{NUM_CLASSES} confusion matrix, got shape {arr.shape}")
    return arr


def precision_class(cm, c: int) -> float:
    """TP / (TP + FP) for class c; 0 when column c is empty."""
    arr = _check_cm(cm)
    tp = arr[c, c]
    col = arr[:, c].sum()
    return float(tp / col) if col > 0 else 0.0


def recall_class(cm, c: int) -> float:
    """TP / (TP + FN) for class c; 0 when row c is empty."""
    arr = _check_cm(cm)
    tp = arr[c, c]
    row = arr[c, :].sum()
    return float(tp / row) if row > 0 else 0.0


def f1_class(cm, c: int) -> float:
    """2TP / (2TP + FP + FN) for class c; 0 when that denominator is 0."""
    arr = _check_cm(cm)
    tp = arr[c, c]
    denom = 2 * tp + (arr[:, c].sum() - tp) + (arr[c, :].sum() - tp)
    return float(2 * tp / denom) if denom > 0 else 0.0


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
    actual = np.asarray(labels, dtype=np.int64)
    if probs.ndim != 2 or probs.shape[0] != actual.shape[0]:
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
class MetricsReport:
    precision_per_class: list[float]
    precision_macro: float
    recall_per_class: list[float]
    recall_macro: float
    f1_per_class: list[float]
    f1_macro: float
    accuracy: float
    log_loss: float
    degenerate_flags: list[str]

    def to_dict(self) -> dict:
        return {
            "precision": {"per_class": self.precision_per_class, "macro": self.precision_macro},
            "recall": {"per_class": self.recall_per_class, "macro": self.recall_macro},
            "f1": {"per_class": self.f1_per_class, "macro": self.f1_macro},
            "accuracy": self.accuracy,
            "log_loss": self.log_loss,
            "degenerate_flags": self.degenerate_flags,
        }

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

        def per_class(path: str) -> list[float]:
            valid = lambda v: isinstance(v, list) and len(v) == NUM_CLASSES and all(map(finite, v))
            return [float(v) for v in field(path, valid, f"a list of {NUM_CLASSES} finite numbers")]

        flags = lambda v: isinstance(v, list) and all(isinstance(flag, str) for flag in v)
        return cls(
            precision_per_class=per_class("precision.per_class"),
            precision_macro=real("precision.macro"),
            recall_per_class=per_class("recall.per_class"),
            recall_macro=real("recall.macro"),
            f1_per_class=per_class("f1.per_class"),
            f1_macro=real("f1.macro"),
            accuracy=real("accuracy"),
            log_loss=real("log_loss"),
            degenerate_flags=list(field("degenerate_flags", flags, "a list of strings")),
        )


def report(cm, probabilities=None, labels=None) -> MetricsReport:
    """Assemble the full report; log_loss is 0 when probabilities are absent."""
    arr = _check_cm(cm)
    flags = []
    precisions, recalls, f1s = [], [], []
    for c in range(NUM_CLASSES):
        tp = arr[c, c]
        if arr[:, c].sum() == 0:
            flags.append(f"precision.{LABELS[c]}")
        if arr[c, :].sum() == 0:
            flags.append(f"recall.{LABELS[c]}")
        if 2 * tp + (arr[:, c].sum() - tp) + (arr[c, :].sum() - tp) == 0:
            flags.append(f"f1.{LABELS[c]}")
        precisions.append(precision_class(arr, c))
        recalls.append(recall_class(arr, c))
        f1s.append(f1_class(arr, c))
    ll = log_loss(probabilities, labels) if probabilities is not None else 0.0
    return MetricsReport(
        precision_per_class=precisions,
        precision_macro=macro(precisions),
        recall_per_class=recalls,
        recall_macro=macro(recalls),
        f1_per_class=f1s,
        f1_macro=macro(f1s),
        accuracy=accuracy(arr),
        log_loss=ll,
        degenerate_flags=sorted(flags),
    )


def cm_to_csv(cm) -> str:
    """Header row/column labels negative,neutral,positive plus the 3 count rows."""
    arr = _check_cm(cm)
    buf = io.StringIO()
    buf.write("," + ",".join(LABELS) + "\n")
    for c in range(NUM_CLASSES):
        buf.write(LABELS[c] + "," + ",".join(str(int(v)) for v in arr[c]) + "\n")
    return buf.getvalue()


def cm_from_csv(text: str) -> np.ndarray:
    lines = [ln for ln in text.splitlines() if ln]
    if len(lines) != NUM_CLASSES + 1 or lines[0] != "," + ",".join(LABELS):
        raise ContractError("confusion CSV does not match the expected 3-class layout")
    rows = []
    for c, line in enumerate(lines[1:]):
        fields = line.split(",")
        if fields[0] != LABELS[c] or len(fields) != NUM_CLASSES + 1:
            raise ContractError(f"confusion CSV row {c + 1} is malformed")
        rows.append([int(v) for v in fields[1:]])
    return np.asarray(rows, dtype=np.int64)
