"""Loading, validation, encoding, and partitioning of user knowledge data.

The expected CSV schema is a header row naming the five study-behavior
attributes plus the knowledge label (any column order):

    STG, SCG, STR, LPR, PEG, UNS

Attributes are decimals in [0, 1]; UNS is one of very_low / low /
middle / high (case and separators are ignored on load).  Values outside
those contracts are load errors naming the offending row and column --
nothing is imputed.

A dataset is one ``Dataset``: a float feature matrix ``X`` with one row
per sample and an integer class index per row.  Loading, encoding,
splitting and ``to_arrays`` all work on those two columns; no step
builds an object per row.

Rows are parsed by numpy's C reader, ``loadtxt``, which rounds as ``float()``
does, where its result must be the per-cell loop's; the loop reads any other
file, so it alone raises DataLoadError, and it is the fast path's oracle.

Published summaries of this dataset disagree on the per-class counts
(one widely-copied table totals 431 while the distributed file has 403
rows); the loader makes no assumption and always reports what is in the
file.
"""

from __future__ import annotations

import csv
import io
import json
import re
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataLoadError, SplitError

__all__ = [
    "ATTRIBUTES",
    "CLASS_LABELS",
    "Dataset",
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


@dataclass(frozen=True, eq=False)
class Dataset:
    """Samples held as columns: features ``X`` (n, d) and class indices
    ``labels`` (n,) in 0..3.

    ``load_dataset`` gives the file's attribute values in ``ATTRIBUTES``
    order; ``binarize`` and ``passthrough`` give the encoded features
    under the same labels.
    """

    X: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        labels = np.asarray(self.labels, dtype=int)
        if X.ndim != 2 or labels.shape != (len(X),):
            raise ValueError(
                f"features of shape {X.shape} do not match labels of shape "
                f"{labels.shape}")
        bad = labels[(labels < 0) | (labels >= len(CLASS_LABELS))]
        if bad.size:
            raise ValueError(f"class index {bad[0]} out of range")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "labels", labels)

    def __len__(self):
        return len(self.labels)

    def take(self, indices):
        """The rows at ``indices``, in that order."""
        indices = np.asarray(indices, dtype=int)
        return Dataset(self.X[indices], self.labels[indices])


def _fault(path, row_no, column, what):
    return DataLoadError(f"{path}: data row {row_no}, column {column}: {what}")


def load_dataset(path):
    """Parse a dataset file into a Dataset of attribute values, in file order.

    Raises DataLoadError for text that is not UTF-8, a field over the csv
    size limit, a missing/duplicated column, a non-numeric or out-of-range
    attribute, or an unrecognized label; messages name the 1-based data
    row and the column of the first fault, checking each row's attributes
    in ``ATTRIBUTES`` order and then its label.  The rows are read by
    ``loadtxt`` where that gives the loop's result.
    """
    path = Path(path)
    if not path.is_file():
        raise DataLoadError(f"dataset file not found: {path}")
    raw = path.read_bytes()
    try:
        raw.decode("utf-8")                 # whole, so no row fault comes first
    except UnicodeDecodeError as exc:
        raise DataLoadError(f"{path}: not UTF-8 text ({exc.reason}, "
                            f"byte 0x{raw[exc.start]:02x})") from None
    return _parse(path, raw)


def _parse(path, raw):
    with io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", newline="") as fh:
        reader = csv.reader(iter(fh.readline, ""))    # leaves fh.tell() usable
        try:
            header = next(reader)
        except StopIteration:
            raise DataLoadError(f"{path}: file is empty") from None
        except csv.Error as exc:                      # a field over the csv limit
            raise DataLoadError(f"{path}: header: {exc}") from None

        positions = {}
        for idx, name in enumerate(header):
            key = name.strip().upper()
            if key in positions:
                raise DataLoadError(f"{path}: duplicated column {key}")
            positions[key] = idx
        for name in ATTRIBUTES + (LABEL_COLUMN,):
            if name not in positions:
                raise DataLoadError(f"{path}: missing column {name}")
        columns = [(name, positions[name]) for name in ATTRIBUTES]
        label_idx = positions[LABEL_COLUMN]

        start = fh.tell()
        dataset = _read_columns(raw, fh, [i for _, i in columns] + [label_idx])
        if dataset is not None:
            return dataset
        fh.seek(start)
        values, labels, label_index = [], [], {}   # label text -> class index
        for row_no, row in _numbered(path, reader):
            if not any(cell.strip() for cell in row):
                continue  # trailing blank line
            for name, idx in columns:
                if idx >= len(row):
                    raise _fault(path, row_no, name, "missing value")
                cell = row[idx].strip()
                try:
                    value = float(cell)
                except ValueError:
                    raise _fault(path, row_no, name,
                                 f"non-numeric value {cell!r}") from None
                if not 0.0 <= value <= 1.0:
                    raise _fault(path, row_no, name, f"value {value} outside [0, 1]")
                values.append(value)
            label_cell = row[label_idx].strip() if label_idx < len(row) else ""
            if label_cell not in label_index:
                label_index[label_cell] = normalize_label(label_cell)
            class_index = label_index[label_cell]
            if class_index is None:
                raise _fault(path, row_no, LABEL_COLUMN,
                             f"unknown label {label_cell!r}")
            labels.append(class_index)

    return Dataset(np.reshape(values, (-1, len(ATTRIBUTES))), labels)


def _numbered(path, reader):
    """``reader``'s rows numbered from 1; a csv refusal names its row."""
    row_no = 0
    try:
        for row_no, row in enumerate(reader, start=1):
            yield row_no, row
    except csv.Error as exc:
        raise DataLoadError(f"{path}: data row {row_no + 1}: {exc}") from None


def _read_columns(raw, fh, usecols):
    """The rest of ``fh`` in one ``loadtxt`` pass; None unless it is the loop's."""
    limit = csv.field_size_limit()
    # the loop's csv reader refuses a longer field; unquoted, a field is within a line
    if len(raw) > limit and (b'"' in raw or np.diff(np.flatnonzero(np.frombuffer(
            raw, np.uint8) == 10), prepend=-1, append=len(raw)).max() > limit):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = np.loadtxt(fh, [("X", float, len(usecols) - 1), ("label", object)],
                              delimiter=",", comments=None, quotechar='"',
                              usecols=usecols, ndmin=1, encoding="utf-8")
    except (ValueError, Warning):
        return None
    X, texts = rows["X"], rows["label"].tolist()
    keys = {text: text.strip() for text in dict.fromkeys(texts)}   # first appearance
    known = {key: normalize_label(key) for key in dict.fromkeys(keys.values())}
    if texts and np.all((X >= 0.0) & (X <= 1.0)) and None not in known.values():
        return Dataset(np.ascontiguousarray(X), [known[keys[t]] for t in texts])


def binarize(dataset, threshold=0.5):
    """Map each attribute to -1/+1 at ``threshold`` (ties go to +1)."""
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    return Dataset(np.where(dataset.X >= threshold, 1.0, -1.0), dataset.labels)


def passthrough(dataset):
    """Ablation encoding: keep the raw [0, 1] attribute values."""
    return Dataset(dataset.X.copy(), dataset.labels)


@dataclass(frozen=True, eq=False)
class DatasetSplit:
    """A train/test partition plus the recipe that produced it."""

    train: Dataset
    test: Dataset
    seed: int
    ratio: float
    train_indices: list
    test_indices: list


def _make_split(dataset, train_idx, test_idx, seed, ratio):
    return DatasetSplit(
        train=dataset.take(train_idx), test=dataset.take(test_idx),
        seed=seed, ratio=ratio,
        train_indices=train_idx, test_indices=test_idx)


def _indices_by_class(dataset):
    return [np.flatnonzero(dataset.labels == c) for c in range(len(CLASS_LABELS))]


def split_stratified(dataset, ratio, seed):
    """Stratified shuffle split; per-class train counts are round(ratio * n_c).

    Deterministic for a fixed seed.  Empty classes are a SplitError.
    """
    if not 0.0 < ratio < 1.0:
        raise SplitError(f"ratio must be in (0, 1), got {ratio}")
    if not dataset:
        raise SplitError("cannot split an empty sample list")

    rng = np.random.default_rng(seed)
    train_idx, test_idx = [], []
    for idxs in _indices_by_class(dataset):
        if not idxs.size:
            continue  # stratify over the classes actually present
        rng.shuffle(idxs)
        n_train = int(round(ratio * len(idxs)))
        train_idx.extend(idxs[:n_train].tolist())
        test_idx.extend(idxs[n_train:].tolist())
    train_idx.sort()
    test_idx.sort()
    return _make_split(dataset, train_idx, test_idx, seed, ratio)


def predefined_split(dataset, train_count=258):
    """Fixed split: the first ``train_count`` rows train, the rest test.

    Mirrors the distribution of the original file as two blocks.
    """
    if not 0 < train_count < len(dataset):
        raise SplitError(
            f"train_count {train_count} invalid for {len(dataset)} samples")
    train_idx = list(range(train_count))
    test_idx = list(range(train_count, len(dataset)))
    return _make_split(dataset, train_idx, test_idx, 0, train_count / len(dataset))


def kfold(dataset, k, seed):
    """Stratified k folds: fold i tests on fold i, trains on the rest.

    Requires every class to hold at least k samples.
    """
    if k < 2:
        raise SplitError(f"k must be >= 2, got {k}")
    if not dataset:
        raise SplitError("cannot split an empty sample list")
    buckets = _indices_by_class(dataset)
    for label, idxs in zip(CLASS_LABELS, buckets):
        if 0 < len(idxs) < k:
            raise SplitError(
                f"class {label} has {len(idxs)} samples, fewer than k={k}")

    rng = np.random.default_rng(seed)
    fold_members = [[] for _ in range(k)]
    for idxs in buckets:
        if not idxs.size:
            continue
        rng.shuffle(idxs)
        for f in range(k):
            fold_members[f].extend(idxs[f::k].tolist())

    splits = []
    for f in range(k):
        test_idx = sorted(fold_members[f])
        train_idx = sorted(i for g in range(k) if g != f for i in fold_members[g])
        splits.append(_make_split(dataset, train_idx, test_idx, seed,
                                  len(train_idx) / len(dataset)))
    return splits


def class_distribution(dataset):
    """Per-class sample counts, in label order."""
    return tuple(np.bincount(dataset.labels, minlength=len(CLASS_LABELS)).tolist())


def to_arrays(dataset):
    """(X, values, onehot, labels): the features, the single-output
    regression targets (class index + 1), the one-against-all targets and
    the class indices."""
    labels = dataset.labels
    return dataset.X, labels + 1.0, np.eye(len(CLASS_LABELS))[labels], labels


def split_to_json(split):
    """Serialize a split as indices + recipe; byte-stable for fixed inputs."""
    payload = {
        "seed": split.seed,
        "ratio": split.ratio,
        "train_indices": list(split.train_indices),
        "test_indices": list(split.test_indices),
    }
    return json.dumps(payload, indent=2) + "\n"


def split_from_json(text, dataset):
    """Rebuild a DatasetSplit over ``dataset`` from its JSON form."""
    payload = json.loads(text)
    train_idx, test_idx = list(payload["train_indices"]), list(payload["test_indices"])
    n, seen = len(dataset), set()
    for i in train_idx + test_idx:    # bool is an int subclass, so test the type
        if type(i) is not int or not 0 <= i < n or i in seen:
            raise SplitError(f"split index {i!r} is repeated or not a row 0..{n - 1}")
        seen.add(i)
    return _make_split(dataset, train_idx, test_idx,
                       int(payload["seed"]), float(payload["ratio"]))
