"""Correctness checks on the program's outputs.

Every check compares against a property the method must have or against
arithmetic done here, apart from the program; none compares against a stored
copy of earlier output. A check raises CheckFailed naming what went wrong.
"""

import csv
import io
import json
import math
import os
import struct

import numpy as np

PROB_SUM_TOL = 1e-12
AGREEMENT_TOL = 1e-9
INITIAL_LOSS_REL = 0.15


class CheckFailed(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def exit_code(cmd: str, code: int, stderr: str = "") -> None:
    _require(code == 0, f"sentibert {cmd} exited {code}: {stderr.strip()}")


def strictly_falling(values, what: str) -> None:
    values = [float(v) for v in values]
    _require(len(values) >= 2, f"{what}: need at least two points, got {len(values)}")
    _require(all(b < a for a, b in zip(values, values[1:])), f"{what} does not fall strictly: {values}")


def curve_train_losses(curve_csv: str) -> list[float]:
    rows = list(csv.DictReader(io.StringIO(curve_csv)))
    return [float(r["train_loss"]) for r in rows]


def at_least(value: float, floor: float, what: str) -> None:
    _require(value >= floor, f"{what} {value} is below the floor {floor}")


def accuracy_is_confusion_trace(metrics_json: str, confusion_csv: str) -> float:
    """metrics.json accuracy equals trace / sum of the confusion matrix CSV."""
    accuracy = float(json.loads(metrics_json)["accuracy"])
    rows = list(csv.reader(io.StringIO(confusion_csv)))
    counts = np.array([[int(x) for x in row[1:]] for row in rows[1:]], dtype=np.int64)
    _require(counts.shape == (3, 3), f"confusion matrix has shape {counts.shape}, expected (3, 3)")
    total = int(counts.sum())
    _require(total > 0, "confusion matrix is empty")
    expected = int(np.trace(counts)) / total
    _require(abs(accuracy - expected) <= 1e-12, f"accuracy {accuracy} != trace/sum {expected}")
    return accuracy


def parameter_count(config: dict, vocab_size: int) -> int:
    """Learnable scalars of the model, from the encoder config and vocab size alone."""
    d, ff, heads = config["d_model"], config["d_ff"], config["num_heads"]
    d_k = d // heads
    embeddings = vocab_size * d + 2 * d + config["max_len"] * d
    per_layer = 3 * heads * d * d_k + d * d + d * ff + ff + ff * d + d + 4 * d
    heads_out = d * 3 + 3 + d * 2 + 2  # sentiment and NSP heads
    return embeddings + config["num_layers"] * per_layer + heads_out


def checkpoint_size(path: str, config: dict, vocab_size: int) -> int:
    """File size equals the 4-byte length, the header, and 4 bytes per parameter."""
    with open(path, "rb") as fh:
        (header_len,) = struct.unpack("<I", fh.read(4))
    size = os.path.getsize(path)
    expected = 4 + header_len + 4 * parameter_count(config, vocab_size)
    _require(size == expected, f"checkpoint is {size} bytes, expected {expected}")
    return size


def probability_rows(rows) -> None:
    probs = np.asarray(rows, dtype=np.float64)
    _require(probs.ndim == 2 and probs.shape[1] == 3, f"probabilities have shape {probs.shape}")
    _require(bool(np.isfinite(probs).all()), "a probability is not finite")
    _require(bool((probs >= 0.0).all()), "a probability is negative")
    worst = float(np.abs(probs.sum(axis=1) - 1.0).max())
    _require(worst <= PROB_SUM_TOL, f"a probability row sums to 1 only within {worst:.3e}")


def rows_agree(a, b, what: str, tol: float = AGREEMENT_TOL) -> None:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    _require(a.shape == b.shape, f"{what}: shapes {a.shape} and {b.shape} differ")
    worst = float(np.abs(a - b).max()) if a.size else 0.0
    _require(worst <= tol, f"{what}: rows differ by {worst:.3e} (> {tol:g})")


def accuracy_from_labels(reported: float, predicted, labels) -> None:
    predicted = np.asarray(predicted)
    labels = np.asarray(labels)
    expected = float((predicted == labels).mean())
    _require(abs(reported - expected) <= 1e-12, f"reported accuracy {reported} != recomputed {expected}")


def near(value: float, target: float, what: str, rel: float = INITIAL_LOSS_REL) -> None:
    _require(abs(value - target) <= rel * abs(target), f"{what} {value} is not within {rel:.0%} of {target}")


def all_finite(values, what: str) -> None:
    bad = [v for v in values if not math.isfinite(v)]
    _require(not bad, f"{what}: non-finite values {bad}")
