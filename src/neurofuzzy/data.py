"""Loading, validation, encoding, and partitioning of user knowledge data.

The expected CSV schema is a header row naming the five study-behavior
attributes plus the knowledge label (any column order):

    STG, SCG, STR, LPR, PEG, UNS

Attributes are decimals in [0, 1]; UNS is one of very_low / low /
middle / high (case and separators are ignored on load).  Values outside
those contracts are load errors naming the offending row and column --
nothing is imputed.

Published summaries of this dataset disagree on the per-class counts
(one widely-copied table totals 431 while the distributed file has 403
rows); the loader makes no assumption and always reports what is in the
file.
"""

from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataLoadError, SplitError

__all__ = [
    "ATTRIBUTES",
    "CLASS_LABELS",
    "RawSample",
    "EncodedSample",
    "DatasetSplit",
    "normalize_label",
    "load_dataset",
    "binarize",
    "passthrough",
    "split_stratified",
    "predefined_split",
    "kfold",
    "class_distribution",
    "to_arrays",
    "split_to_json",
    "split_from_json",
]

ATTRIBUTES = ("STG", "SCG", "STR", "LPR", "PEG")
LABEL_COLUMN = "UNS"
CLASS_LABELS = ("VeryLow", "Low", "Middle", "High")
_LABEL_LOOKUP = {"verylow": 0, "low": 1, "middle": 2, "high": 3}


def normalize_label(text):
    """Canonical class index for a label string, or None if unknown."""
    key = re.sub(r"[\s_\-]+", "", str(text).strip().lower())
    return _LABEL_LOOKUP.get(key)


@dataclass(frozen=True)
class RawSample:
    """One student record as it appears in the file.

    ``str_`` carries a trailing underscore only to dodge the builtin.
    """

    stg: float
    scg: float
    str_: float
    lpr: float
    peg: float
    uns: str

    def __post_init__(self):
        for name, value in zip(ATTRIBUTES, self.features):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} value {value} outside [0, 1]")
        if self.uns not in CLASS_LABELS:
            raise ValueError(f"unknown knowledge label {self.uns!r}")

    @property
    def features(self):
        return (self.stg, self.scg, self.str_, self.lpr, self.peg)

    @property
    def class_index(self):
        return CLASS_LABELS.index(self.uns)


@dataclass(frozen=True, eq=False)
class EncodedSample:
    """A sample after feature encoding and label expansion.

    With the default binarized encoding every feature is -1 or +1; the
    pass-through ablation keeps the raw decimals instead.  The label is
    carried three ways: a 0-based class index, the single-output
    regression target (index + 1), and a one-hot vector for
    one-against-all training.
    """

    features: np.ndarray
    class_index: int
    class_value: float = field(init=False)
    oaa_targets: np.ndarray = field(init=False)

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=float)
        object.__setattr__(self, "features", feats)
        if not 0 <= self.class_index < len(CLASS_LABELS):
            raise ValueError(f"class index {self.class_index} out of range")
        object.__setattr__(self, "class_value", float(self.class_index + 1))
        onehot = np.zeros(len(CLASS_LABELS))
        onehot[self.class_index] = 1.0
        object.__setattr__(self, "oaa_targets", onehot)

    @property
    def label(self):
        return CLASS_LABELS[self.class_index]


def load_dataset(path):
    """Parse a dataset file into RawSamples, in file order.

    Raises DataLoadError for a missing/duplicated column, a non-numeric
    or out-of-range attribute, or an unrecognized label; messages name
    the 1-based data row and the column.
    """
    path = Path(path)
    if not path.is_file():
        raise DataLoadError(f"dataset file not found: {path}")

    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataLoadError(f"{path}: file is empty") from None

        positions = {}
        for idx, name in enumerate(header):
            key = name.strip().upper()
            if key in positions:
                raise DataLoadError(f"{path}: duplicated column {key}")
            positions[key] = idx
        for name in ATTRIBUTES + (LABEL_COLUMN,):
            if name not in positions:
                raise DataLoadError(f"{path}: missing column {name}")

        samples = []
        for row_no, row in enumerate(reader, start=1):
            if not row or all(not cell.strip() for cell in row):
                continue  # trailing blank line
            values = {}
            for name in ATTRIBUTES:
                idx = positions[name]
                if idx >= len(row):
                    raise DataLoadError(
                        f"{path}: data row {row_no}, column {name}: missing value")
                cell = row[idx].strip()
                try:
                    value = float(cell)
                except ValueError:
                    raise DataLoadError(
                        f"{path}: data row {row_no}, column {name}: "
                        f"non-numeric value {cell!r}") from None
                if not 0.0 <= value <= 1.0:
                    raise DataLoadError(
                        f"{path}: data row {row_no}, column {name}: "
                        f"value {value} outside [0, 1]")
                values[name] = value

            label_idx = positions[LABEL_COLUMN]
            label_cell = row[label_idx].strip() if label_idx < len(row) else ""
            class_index = normalize_label(label_cell)
            if class_index is None:
                raise DataLoadError(
                    f"{path}: data row {row_no}, column {LABEL_COLUMN}: "
                    f"unknown label {label_cell!r}")

            samples.append(RawSample(
                stg=values["STG"], scg=values["SCG"], str_=values["STR"],
                lpr=values["LPR"], peg=values["PEG"],
                uns=CLASS_LABELS[class_index]))

    return samples


def binarize(samples, threshold=0.5):
    """Map each attribute to -1/+1 at ``threshold`` (ties go to +1)."""
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    encoded = []
    for s in samples:
        feats = np.where(np.asarray(s.features) >= threshold, 1.0, -1.0)
        encoded.append(EncodedSample(features=feats, class_index=s.class_index))
    return encoded


def passthrough(samples):
    """Ablation encoding: keep the raw [0, 1] attribute values."""
    return [EncodedSample(features=np.asarray(s.features, dtype=float),
                          class_index=s.class_index)
            for s in samples]


@dataclass(frozen=True, eq=False)
class DatasetSplit:
    """A train/test partition plus the recipe that produced it."""

    train: list
    test: list
    seed: int
    ratio: float
    train_indices: list
    test_indices: list


def _make_split(samples, train_idx, test_idx, seed, ratio):
    return DatasetSplit(
        train=[samples[i] for i in train_idx],
        test=[samples[i] for i in test_idx],
        seed=seed, ratio=ratio,
        train_indices=train_idx, test_indices=test_idx)


def _indices_by_class(samples):
    buckets = {c: [] for c in range(len(CLASS_LABELS))}
    for idx, s in enumerate(samples):
        buckets[s.class_index].append(idx)
    return buckets


def split_stratified(samples, ratio, seed):
    """Stratified shuffle split; per-class train counts are round(ratio * n_c).

    Deterministic for a fixed seed.  Empty classes are a SplitError.
    """
    if not 0.0 < ratio < 1.0:
        raise SplitError(f"ratio must be in (0, 1), got {ratio}")
    if not samples:
        raise SplitError("cannot split an empty sample list")
    buckets = _indices_by_class(samples)

    rng = np.random.default_rng(seed)
    train_idx, test_idx = [], []
    for c in range(len(CLASS_LABELS)):
        if not buckets[c]:
            continue  # stratify over the classes actually present
        idxs = np.array(buckets[c])
        rng.shuffle(idxs)
        n_train = int(round(ratio * len(idxs)))
        train_idx.extend(idxs[:n_train].tolist())
        test_idx.extend(idxs[n_train:].tolist())
    train_idx.sort()
    test_idx.sort()
    return _make_split(samples, train_idx, test_idx, seed, ratio)


def predefined_split(samples, train_count=258):
    """Fixed split: the first ``train_count`` rows train, the rest test.

    Mirrors the distribution of the original file as two blocks.
    """
    if not 0 < train_count < len(samples):
        raise SplitError(
            f"train_count {train_count} invalid for {len(samples)} samples")
    train_idx = list(range(train_count))
    test_idx = list(range(train_count, len(samples)))
    return _make_split(samples, train_idx, test_idx, 0, train_count / len(samples))


def kfold(samples, k, seed):
    """Stratified k folds: fold i tests on fold i, trains on the rest.

    Requires every class to hold at least k samples.
    """
    if k < 2:
        raise SplitError(f"k must be >= 2, got {k}")
    if not samples:
        raise SplitError("cannot split an empty sample list")
    buckets = _indices_by_class(samples)
    for c, idxs in buckets.items():
        if idxs and len(idxs) < k:
            raise SplitError(
                f"class {CLASS_LABELS[c]} has {len(idxs)} samples, fewer "
                f"than k={k}")

    rng = np.random.default_rng(seed)
    fold_members = [[] for _ in range(k)]
    for c in range(len(CLASS_LABELS)):
        if not buckets[c]:
            continue
        idxs = np.array(buckets[c])
        rng.shuffle(idxs)
        for f in range(k):
            fold_members[f].extend(idxs[f::k].tolist())

    splits = []
    for f in range(k):
        test_idx = sorted(fold_members[f])
        train_idx = sorted(i for g in range(k) if g != f for i in fold_members[g])
        splits.append(_make_split(samples, train_idx, test_idx, seed,
                                  len(train_idx) / len(samples)))
    return splits


def class_distribution(samples):
    """Per-class sample counts, in label order."""
    counts = [0] * len(CLASS_LABELS)
    for s in samples:
        counts[s.class_index] += 1
    return tuple(counts)


def to_arrays(samples):
    """Stack encoded samples into (X, values, onehot, labels) arrays."""
    X = np.array([s.features for s in samples], dtype=float)
    values = np.array([s.class_value for s in samples])
    onehot = np.array([s.oaa_targets for s in samples])
    labels = np.array([s.class_index for s in samples], dtype=int)
    return X, values, onehot, labels


def split_to_json(split):
    """Serialize a split as indices + recipe; byte-stable for fixed inputs."""
    payload = {
        "seed": split.seed,
        "ratio": split.ratio,
        "train_indices": list(split.train_indices),
        "test_indices": list(split.test_indices),
    }
    return json.dumps(payload, indent=2) + "\n"


def split_from_json(text, samples):
    """Rebuild a DatasetSplit over ``samples`` from its JSON form."""
    payload = json.loads(text)
    train_idx = list(payload["train_indices"])
    test_idx = list(payload["test_indices"])
    n = len(samples)
    for i in train_idx + test_idx:
        if not 0 <= i < n:
            raise SplitError(f"split index {i} out of range for {n} samples")
    return _make_split(samples, train_idx, test_idx,
                       int(payload["seed"]), float(payload["ratio"]))
