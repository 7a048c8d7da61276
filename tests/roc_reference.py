"""ROC sweep one row at a time: the oracle for the sorted cumulative-sum
sweep in ``neurofuzzy.metrics.roc_curve``.

The loop walks the rows in stable descending score order, counts each
tie group's positives and negatives, and emits one point per group, so
nothing here shares code with the array path it checks.
"""

import numpy as np


def roc_points(scores, labels):
    """(points, thresholds): the (fpr, tpr) tuples and the +inf-led
    thresholds of the sweep, as Python floats."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    if len(scores) != len(labels):
        raise ValueError("scores and labels differ in length")
    n_pos = int(np.sum(labels == 1))
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("ROC needs at least one positive and one negative")

    order = np.argsort(-scores, kind="stable")
    points = [(0.0, 0.0)]
    thresholds = [float("inf")]
    tp = fp = 0
    i = 0
    while i < len(order):
        j = i
        while j < len(order) and scores[order[j]] == scores[order[i]]:
            if labels[order[j]] == 1:
                tp += 1
            else:
                fp += 1
            j += 1
        points.append((fp / n_neg, tp / n_pos))
        thresholds.append(float(scores[order[i]]))
        i = j
    return tuple(points), tuple(thresholds)
