"""Synthetic stand-in for the UCI User Knowledge Modeling dataset.

The original study data lives in the UCI repository and is not bundled
with this package.  This module generates a deterministic stand-in with
the same schema (STG, SCG, STR, LPR, PEG in [0, 1] plus a four-level
UNS label), the same size (403 rows), and a similar difficulty profile,
so the whole pipeline runs offline.  Point the loaders at the real CSV
whenever it is available; nothing downstream cares which file it gets.

Generative story: the knowledge level is driven by exam performance
(PEG) and prerequisite learning (LPR).  Each class owes its identity to
the (PEG >= 0.5, LPR >= 0.5) cell -- very_low (0,0), low (0,1), middle
(1,0), high (1,1) -- and a small fraction of samples flip one of those
two bits, which caps attainable accuracy a little above 95%.  The other
three attributes are uninformative noise.
"""

from __future__ import annotations

import csv

import numpy as np

from .data import ATTRIBUTES, LABEL_COLUMN, Dataset

__all__ = ["DEFAULT_CLASS_COUNTS", "generate", "write_csv"]

# very_low, low, middle, high; totals 403 like the distributed file
DEFAULT_CLASS_COUNTS = (50, 129, 122, 102)

# (PEG high?, LPR high?) per class
_CLASS_BITS = {0: (0, 0), 1: (0, 1), 2: (1, 0), 3: (1, 1)}

_FILE_LABELS = ("very_low", "Low", "Middle", "High")


def _attribute(rng, high_bit):
    # keep a margin around the 0.5 cut so 2-decimal rounding cannot cross it
    lo, hi = (0.52, 0.98) if high_bit else (0.02, 0.48)
    return round(float(rng.uniform(lo, hi)), 2)


def generate(class_counts=DEFAULT_CLASS_COUNTS, seed=20240, flip_rate=0.04):
    """Build the Dataset; deterministic for fixed arguments."""
    rng = np.random.default_rng(seed)
    rows, labels = [], []
    for class_index, count in enumerate(class_counts):
        for _ in range(count):
            peg_bit, lpr_bit = _CLASS_BITS[class_index]
            if rng.random() < flip_rate:
                if rng.random() < 0.5:
                    peg_bit = 1 - peg_bit
                else:
                    lpr_bit = 1 - lpr_bit
            # drawn in column order: STG, SCG, STR, LPR, PEG
            rows.append([round(float(rng.uniform(0.0, 1.0)), 2) for _ in range(3)]
                        + [_attribute(rng, lpr_bit), _attribute(rng, peg_bit)])
            labels.append(class_index)
    order = rng.permutation(len(labels))
    return Dataset(np.reshape(rows, (-1, len(ATTRIBUTES))), labels).take(order)


def write_csv(dataset, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([*ATTRIBUTES, LABEL_COLUMN])
        writer.writerows([*(f"{v:.2f}" for v in row), _FILE_LABELS[label]]
                         for row, label in zip(dataset.X.tolist(),
                                               dataset.labels.tolist()))
