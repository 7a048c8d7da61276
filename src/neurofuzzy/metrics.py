"""Evaluation mathematics: one-against-all confusion decomposition,
accuracy, chance-corrected agreement (kappa), ROC/AUC, and the mean
wrong-count / percent-accuracy pair used for cross-method comparison.

Conventions:

- Multiclass predictions are decomposed one-against-all: class k is
  positive, everything else negative.
- Random accuracy is the chance agreement of the marginals,
  ((TN+FP)(TN+FN) + (TP+FN)(TP+FP)) / total^2, and kappa is
  (total_accuracy - random_accuracy) / (1 - random_accuracy).
- ROC sweeps descending distinct scores with a +inf sentinel, grouping
  ties at a single threshold; a point is emitted after each group, so
  the curve always starts at (0,0) and ends at (1,1).  The sweep is one
  stable sort and a cumulative sum, and ``RocCurve`` holds ``fpr``,
  ``tpr`` and ``thresholds`` as float arrays.  AUC is the trapezoidal
  integral, which equals the probability that a random positive
  outscores a random negative with ties counting one half.
- Labels and predictions are class indices 0..3; anything else is a
  ValueError, never a silently misplaced confusion count.
"""

from __future__ import annotations

import numpy as np

from .errors import UndefinedKappaError

__all__ = [
    "BinaryConfusion",
    "RocCurve",
    "EvalReport",
    "oaa_confusion",
    "total_accuracy",
    "random_accuracy",
    "cohen_kappa",
    "roc_curve",
    "auc",
    "mwcs_cap",
    "cap_consistent",
    "evaluate_multiclass",
    "roc_to_csv",
]


class BinaryConfusion:
    def __init__(self, tp, fp, tn, fn):
        if min(tp, fp, tn, fn) < 0:
            raise ValueError("confusion counts must be non-negative")
        self.tp, self.fp, self.tn, self.fn = tp, fp, tn, fn

    def __eq__(self, other):
        return type(other) is type(self) and vars(other) == vars(self)

    @property
    def total(self):
        return self.tp + self.fp + self.tn + self.fn


def oaa_confusion(true_labels, predicted, k):
    """Binary confusion counts with class ``k`` as the positive class."""
    true_labels = np.asarray(true_labels)
    predicted = np.asarray(predicted)
    if len(true_labels) != len(predicted):
        raise ValueError(
            f"label lists differ in length: {len(true_labels)} vs {len(predicted)}")
    if len(true_labels) == 0:
        raise ValueError("label lists must be non-empty")
    pos_true = true_labels == k
    pos_pred = predicted == k
    return BinaryConfusion(
        tp=int(np.sum(pos_true & pos_pred)),
        fp=int(np.sum(~pos_true & pos_pred)),
        tn=int(np.sum(~pos_true & ~pos_pred)),
        fn=int(np.sum(pos_true & ~pos_pred)))


def total_accuracy(c):
    """(TP + TN) / total."""
    if c.total < 1:
        raise ValueError("empty confusion")
    return (c.tp + c.tn) / c.total


def random_accuracy(c):
    """Chance agreement of the marginals."""
    if c.total < 1:
        raise ValueError("empty confusion")
    neg_true = c.tn + c.fp
    neg_pred = c.tn + c.fn
    pos_true = c.tp + c.fn
    pos_pred = c.tp + c.fp
    return (neg_true * neg_pred + pos_true * pos_pred) / (c.total**2)


def cohen_kappa(c):
    """Chance-corrected agreement; 1 for perfect, ~0 for chance level."""
    rand = random_accuracy(c)
    if rand >= 1.0:
        raise UndefinedKappaError(
            "kappa undefined: random accuracy equals 1")
    return (total_accuracy(c) - rand) / (1.0 - rand)


class RocCurve:
    """Ordered ROC points as float arrays, plus the threshold of each.

    ``thresholds[0]`` is +inf (nothing predicted positive); predicting
    positive means score >= threshold.
    """

    def __init__(self, fpr, tpr, thresholds):
        self.fpr, self.tpr, self.thresholds = (
            np.asarray(v, dtype=float) for v in (fpr, tpr, thresholds))
        if not len(self.fpr) == len(self.tpr) == len(self.thresholds):
            raise ValueError("one threshold per point required")
        if (self.fpr[0], self.tpr[0], self.fpr[-1], self.tpr[-1]) != (0, 0, 1, 1):
            raise ValueError("curve must run from (0,0) to (1,1)")
        if np.any(np.diff(self.fpr) < 0):
            raise ValueError("fpr must be non-decreasing")
        if np.any(np.diff(self.tpr) < 0):
            raise ValueError("tpr must be non-decreasing")


def roc_curve(scores, labels):
    """Threshold sweep over the distinct scores, ties grouped.

    ``labels`` are binary (1 = positive); both classes must be present,
    and no score may be NaN (+-inf rank first or last).  Rows are ranked
    by a stable descending sort; the running positive and negative
    counts are read at the last row of each tie group (Fawcett, Pattern
    Recognition Letters 27, 2006, Algorithm 2).
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    if len(scores) != len(labels):
        raise ValueError("scores and labels differ in length")
    if np.any(np.isnan(scores)):
        raise ValueError("ROC scores must not be NaN")
    n_pos = int(np.sum(labels == 1))
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("ROC needs at least one positive and one negative")

    order = np.argsort(-scores, kind="stable")
    ranked = scores[order]
    tp = np.cumsum(labels[order] == 1)
    fp = np.arange(1, len(order) + 1) - tp
    last = np.flatnonzero(np.append(ranked[1:] != ranked[:-1], True))
    first = np.append(0, last[:-1] + 1)
    return RocCurve(fpr=np.append(0.0, fp[last] / n_neg),
                    tpr=np.append(0.0, tp[last] / n_pos),
                    thresholds=np.append(np.inf, ranked[first]))


def auc(curve):
    """Trapezoidal area under the ROC curve."""
    return float(np.trapezoid(curve.tpr, curve.fpr))


def mwcs_cap(per_run_wrong_counts, test_size):
    """Mean wrong-classified count across runs, and accuracy percentage."""
    if test_size < 1:
        raise ValueError(f"test_size must be >= 1, got {test_size}")
    counts = list(per_run_wrong_counts)
    if not counts:
        raise ValueError("need at least one run")
    for c in counts:
        if c < 0 or c > test_size:
            raise ValueError(f"wrong count {c} outside [0, {test_size}]")
    mwcs = float(np.mean(counts))
    cap = 100.0 * (1.0 - mwcs / test_size)
    return mwcs, cap


def cap_consistent(mwcs, cap_percent, test_size, tol=0.005):
    """Whether a reported (MWCS, CAP) pair matches the claimed test size.

    ``tol`` defaults to half an ulp of a two-decimal percentage, i.e. the
    slack a correctly rounded CAP could carry.
    """
    if test_size < 1:
        raise ValueError(f"test_size must be >= 1, got {test_size}")
    implied = 100.0 * (1.0 - mwcs / test_size)
    return abs(implied - cap_percent) <= tol + 1e-12


class EvalReport:
    """Multiclass confusion plus per-class one-against-all statistics."""

    def __init__(self, confusion, n_samples, overall_accuracy, wrong_count, mwcs, cap,
                 per_class):
        self.confusion, self.n_samples = confusion, n_samples
        self.overall_accuracy, self.wrong_count = overall_accuracy, wrong_count
        self.mwcs, self.cap, self.per_class = mwcs, cap, per_class

    def to_dict(self):
        return {
            "n_samples": self.n_samples,
            "confusion": self.confusion.tolist(),
            "overall_accuracy": self.overall_accuracy,
            "wrong_count": self.wrong_count,
            "mwcs": self.mwcs,
            "cap": self.cap,
            "per_class": [dict(row) for row in self.per_class],
        }


def _rate(num, den):
    return num / den if den > 0 else None


def evaluate_multiclass(true_labels, predicted, scores=None, class_names=None):
    """Full evaluation of hard predictions, optionally with ROC scores.

    Labels are class indices 0..3.  ``scores`` is an (n_samples, 4)
    array of per-class ranking scores; without it the AUC column is left
    null.  Per-class rows carry the one-against-all statistics in
    reporting column order.
    """
    true_labels = np.asarray(true_labels)
    predicted = np.asarray(predicted)
    if len(true_labels) != len(predicted):
        raise ValueError("label lists differ in length")
    if len(true_labels) == 0:
        raise ValueError("label lists must be non-empty")

    for what, values in (("label", true_labels), ("prediction", predicted)):
        bad = values[~((values >= 0) & (values <= 3) & (np.floor(values) == values))]
        if bad.size:
            raise ValueError(f"{what} {bad[0]} outside 0..3")
    true_labels, predicted = true_labels.astype(int), predicted.astype(int)
    n = len(true_labels)
    if scores is not None and np.shape(scores) != (n, 4):
        raise ValueError(f"scores must be ({n}, 4), got {np.shape(scores)}")
    if class_names is not None and len(class_names) != 4:
        raise ValueError(f"class_names must be 4 names, got {len(class_names)}")
    confusion = np.bincount(4 * true_labels + predicted, minlength=16).reshape(4, 4)
    right = int(np.trace(confusion))
    wrong = n - right
    mwcs, cap = mwcs_cap([wrong], n)

    rows = []
    for k in range(4):
        c = oaa_confusion(true_labels, predicted, k)
        rand = random_accuracy(c)
        if rand >= 1.0:
            kappa = None
        else:
            kappa = cohen_kappa(c)
        if scores is not None and 0 < c.tp + c.fn < n:
            curve = roc_curve(np.asarray(scores)[:, k],
                              (true_labels == k).astype(int))
            area = auc(curve)
        else:
            area = None
        name = class_names[k] if class_names else str(k)
        rows.append({
            "class_index": k,
            "class_label": name,
            "tpr": _rate(c.tp, c.tp + c.fn),
            "fpr": _rate(c.fp, c.fp + c.tn),
            "tnr": _rate(c.tn, c.fp + c.tn),
            "fnr": _rate(c.fn, c.tp + c.fn),
            "total_accuracy": total_accuracy(c),
            "random_accuracy": rand,
            "kappa": kappa,
            "auc": area,
        })

    return EvalReport(
        confusion=confusion, n_samples=n,
        overall_accuracy=right / n, wrong_count=wrong,
        mwcs=mwcs, cap=cap, per_class=tuple(rows))


def roc_to_csv(curve):
    """Render a curve as ``threshold,fpr,tpr`` CSV text."""
    rows = zip(curve.thresholds.tolist(), curve.fpr.tolist(), curve.tpr.tolist())
    return "threshold,fpr,tpr\n" + "".join(f"{thr!r},{f!r},{t!r}\n"
                                            for thr, f, t in rows)
