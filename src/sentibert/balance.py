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
        return cls(counts=[len(group) for group in by_class(dataset)], total=len(dataset))

    def missing(self) -> list[str]:
        """Names of the labels with no example, in label order."""
        return [LABELS[c] for c, n in enumerate(self.counts) if n == 0]

    def to_dict(self) -> dict:
        return {"counts": dict(zip(LABELS, self.counts)), "total": self.total}


def by_class(dataset: list[LabeledExample]) -> list[list[int]]:
    """Per label index, the positions of its examples in dataset order (empty for an absent label)."""
    groups: list[list[int]] = [[] for _ in range(NUM_CLASSES)]
    for i, ex in enumerate(dataset):
        groups[ex.label].append(i)
    return groups


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


def oversample(dataset: list[LabeledExample], rng: np.random.Generator) -> list[LabeledExample]:
    """Duplicate minority examples (uniform, with replacement) until every
    present class matches the majority count; originals are all retained.
    """
    if not dataset:
        raise ConfigError("oversample: empty dataset")
    groups = [group for group in by_class(dataset) if group]  # an absent class draws nothing
    target = max(map(len, groups))
    result = list(dataset)
    for group in groups:
        for _ in range(target - len(group)):
            result.append(dataset[group[int(rng.integers(len(group)))]])
    rng.shuffle(result)
    return result


def undersample(dataset: list[LabeledExample], rng: np.random.Generator) -> list[LabeledExample]:
    """Uniformly drop examples (without replacement) until every class
    matches the minority count; requires every class to be present.
    """
    missing = ClassHistogram.from_dataset(dataset).missing()
    if missing:
        raise ConfigError(f"undersample: dataset has no examples of: {', '.join(missing)}")
    groups = by_class(dataset)
    target = min(map(len, groups))
    result: list[LabeledExample] = []
    for group in groups:
        keep = rng.choice(len(group), size=target, replace=False)
        result.extend(dataset[group[i]] for i in sorted(keep))
    rng.shuffle(result)
    return result


def rebalance(dataset: list[LabeledExample], strategy: str, rng: np.random.Generator) -> list[LabeledExample]:
    """The examples as a STRATEGIES entry resamples them: oversampled, undersampled,
    or ("none", "class_weights") the input list itself; any other strategy is a ConfigError."""
    if strategy == "oversample":
        return oversample(dataset, rng)
    if strategy == "undersample":
        return undersample(dataset, rng)
    if strategy not in STRATEGIES:
        raise ConfigError(f"rebalance: strategy must be one of {STRATEGIES}, got {strategy!r}")
    return dataset


def class_weights(dataset: list[LabeledExample]) -> list[float]:
    """Inverse-frequency weights total / (num_classes * count_c); the
    prevalence-weighted mean of the weights is exactly 1.
    """
    hist = ClassHistogram.from_dataset(dataset)
    missing = hist.missing()
    if missing:
        raise ConfigError(f"class_weights: dataset has no examples of: {', '.join(missing)}")
    return [hist.total / (NUM_CLASSES * n) for n in hist.counts]
