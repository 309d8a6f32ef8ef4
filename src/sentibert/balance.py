"""Dataset rebalancing: random over/undersampling and inverse-frequency
class weights. Resampling belongs on the training split only; evaluating on
a rebalanced set would skew every downstream metric comparison.
"""

from dataclasses import dataclass

import numpy as np

from .data import LABELS, NUM_CLASSES, LabeledExample
from .errors import ConfigError

STRATEGIES = ("none", "oversample", "undersample", "class_weights")


@dataclass
class ClassHistogram:
    counts: list[int]  # one slot per label index
    total: int

    @classmethod
    def from_dataset(cls, dataset: list[LabeledExample]) -> "ClassHistogram":
        counts = [0] * NUM_CLASSES
        for ex in dataset:
            counts[ex.label] += 1
        return cls(counts=counts, total=len(dataset))

    def to_dict(self) -> dict:
        return {"counts": dict(zip(LABELS, self.counts)), "total": self.total}


def imbalance_ratio(dataset: list[LabeledExample]) -> float:
    """Minority count / majority count over the classes actually present;
    1.0 means perfectly balanced, 0.0 when fewer than two classes appear.
    """
    if not dataset:
        raise ConfigError("imbalance_ratio: empty dataset")
    present = [c for c in ClassHistogram.from_dataset(dataset).counts if c > 0]
    if len(present) < 2:
        return 0.0
    return min(present) / max(present)


def _by_class(dataset: list[LabeledExample]) -> dict[int, list[LabeledExample]]:
    groups: dict[int, list[LabeledExample]] = {}
    for ex in dataset:
        groups.setdefault(ex.label, []).append(ex)
    return groups


def oversample(dataset: list[LabeledExample], rng: np.random.Generator) -> list[LabeledExample]:
    """Duplicate minority examples (uniform, with replacement) until every
    present class matches the majority count; originals are all retained.
    """
    if not dataset:
        raise ConfigError("oversample: empty dataset")
    groups = _by_class(dataset)
    target = max(len(g) for g in groups.values())
    result = list(dataset)
    for label in sorted(groups):
        group = groups[label]
        deficit = target - len(group)
        for _ in range(deficit):
            result.append(group[int(rng.integers(len(group)))])
    rng.shuffle(result)
    return result


def undersample(dataset: list[LabeledExample], rng: np.random.Generator) -> list[LabeledExample]:
    """Uniformly drop examples (without replacement) until every class
    matches the minority count; requires every class to be present.
    """
    groups = _by_class(dataset)
    missing = [LABELS[c] for c in range(NUM_CLASSES) if c not in groups]
    if missing:
        raise ConfigError(f"undersample: dataset has no examples of: {', '.join(missing)}")
    target = min(len(g) for g in groups.values())
    result: list[LabeledExample] = []
    for label in sorted(groups):
        group = groups[label]
        keep = rng.choice(len(group), size=target, replace=False)
        result.extend(group[i] for i in sorted(keep))
    rng.shuffle(result)
    return result


def rebalance(dataset: list[LabeledExample], strategy: str, rng: np.random.Generator) -> list[LabeledExample]:
    """The examples as a STRATEGIES entry resamples them: oversampled,
    undersampled, or ("none", "class_weights") the input list itself."""
    if strategy == "oversample":
        return oversample(dataset, rng)
    if strategy == "undersample":
        return undersample(dataset, rng)
    return dataset


def class_weights(dataset: list[LabeledExample]) -> list[float]:
    """Inverse-frequency weights total / (num_classes * count_c); the
    prevalence-weighted mean of the weights is exactly 1.
    """
    hist = ClassHistogram.from_dataset(dataset)
    missing = [LABELS[c] for c, n in enumerate(hist.counts) if n == 0]
    if missing:
        raise ConfigError(f"class_weights: dataset has no examples of: {', '.join(missing)}")
    return [hist.total / (NUM_CLASSES * n) for n in hist.counts]
