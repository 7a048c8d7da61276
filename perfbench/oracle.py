"""Reference computations the benchmark checks the program against.

Nothing here imports ``neurofuzzy``.  Every result is derived from the
input CSV files, the saved ``model.json`` files and the published
definitions (Takagi-Sugeno inference with product AND, a one-hidden-layer
perceptron, one-against-all Cohen's kappa, and the Mann-Whitney reading of
the AUC), so a fault in the program cannot hide in the check.
"""

from __future__ import annotations

import csv
import json
import re

import numpy as np

ATTRIBUTES = ("STG", "SCG", "STR", "LPR", "PEG")
_LABELS = {"verylow": 0, "low": 1, "middle": 2, "high": 3}

# a decision whose two best candidates are closer than this is a near tie:
# the program and this module may break it differently in the last bits
TIE_TOL = 1e-9


def read_csv(path):
    """(features (n, 5) in ATTRIBUTES order, class indices (n,)) of a data file."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = [name.strip().upper() for name in next(reader)]
        cols = [header.index(name) for name in ATTRIBUTES]
        label_col = header.index("UNS")
        feats, labels = [], []
        for row in reader:
            if not row:
                continue
            feats.append([float(row[c]) for c in cols])
            labels.append(_LABELS[re.sub(r"[\s_\-]+", "", row[label_col].lower())])
    return np.array(feats), np.array(labels)


def encode(features, encoding, threshold=0.5):
    if encoding == "binarize":
        return np.where(features >= threshold, 1.0, -1.0)
    return features.copy()


def cell_rule_classes(features):
    """The generative class of each row: 2 * (PEG >= 0.5) + (LPR >= 0.5)."""
    peg = features[:, ATTRIBUTES.index("PEG")] >= 0.5
    lpr = features[:, ATTRIBUTES.index("LPR")] >= 0.5
    return 2 * peg.astype(int) + lpr.astype(int)


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _membership(mf, x):
    shape = mf["shape"]
    if shape == "gbell":
        with np.errstate(over="ignore"):
            return 1.0 / (1.0 + np.abs((x - mf["c"]) / mf["a"]) ** (2.0 * mf["b"]))
    if shape == "gauss2":
        left = np.exp(-0.5 * ((x - mf["c_left"]) / mf["sigma_left"]) ** 2)
        right = np.exp(-0.5 * ((x - mf["c_right"]) / mf["sigma_right"]) ** 2)
        return np.where(x < mf["c_left"], left,
                        np.where(x > mf["c_right"], right, 1.0))
    if shape == "triangular":
        rise = (x - mf["left"]) / (mf["peak"] - mf["left"])
        fall = (mf["right"] - x) / (mf["right"] - mf["peak"])
        return np.clip(np.minimum(rise, fall), 0.0, None)
    raise ValueError(f"unknown membership shape {shape!r}")


def sugeno_output(member, X):
    """Network output y of one rule network, recomputed layer by layer."""
    ant = np.array(member["antecedents"], dtype=int)      # (R, d)
    cons = np.array(member["consequents"], dtype=float)   # (R, d + 1)
    y = np.empty(len(X))
    for lo in range(0, len(X), 2048):
        xb = X[lo:lo + 2048]
        w = np.ones((len(xb), len(ant)))
        for j, mfs in enumerate(member["mf_bank"]):
            degrees = np.stack([_membership(mf, xb[:, j]) for mf in mfs], axis=1)
            w *= degrees[:, ant[:, j]]
        total = w.sum(axis=1, keepdims=True)
        wbar = np.where(total > 0, w / np.where(total > 0, total, 1.0),
                        1.0 / len(ant))
        f = cons[None, :, 0] + (xb[:, None, :] * cons[None, :, 1:]).sum(axis=2)
        y[lo:lo + 2048] = (wbar * f).sum(axis=1)
    return y


def anfis_outputs(model, X):
    """(per-class scores (n, 4), decisions (n,), near-tie flags (n,)).

    A one-against-all file scores each class by its member's output and
    decides by the largest score; a single-output file rounds y to the
    class value 1..4 and scores class k by -|y - (k + 1)|.
    """
    if model["output_mode"] == "oaa":
        members = sorted(model["members"], key=lambda m: m["positive_class"])
        scores = np.column_stack([sugeno_output(m, X) for m in members])
        return scores, np.argmax(scores, axis=1), _near_ties(scores)
    y = sugeno_output(model, X)
    decisions = np.clip(np.floor(y + 0.5), 1, 4).astype(int) - 1
    boundary = np.abs(y[:, None] - np.array([1.5, 2.5, 3.5])[None, :]).min(axis=1)
    scores = -np.abs(y[:, None] - np.arange(1.0, 5.0)[None, :])
    return scores, decisions, boundary < TIE_TOL


def mlp_outputs(model, X):
    """(per-class scores, decisions, near-tie flags) of a perceptron file."""
    act = {"tansig": np.tanh,
           "logsig": lambda z: 0.5 * (1.0 + np.tanh(0.5 * z))}
    h = act[model["hidden_activation"]](
        X @ np.array(model["w_hidden"]).T + np.array(model["b_hidden"]))
    o = act[model["output_activation"]](
        h @ np.array(model["w_out"]).T + np.array(model["b_out"]))
    scores = (o + 1.0) / 2.0 if model["output_activation"] == "tansig" else o
    return scores, np.argmax(scores, axis=1), _near_ties(scores)


def model_outputs(model, X):
    return (anfis_outputs if model["kind"] == "anfis" else mlp_outputs)(model, X)


def _near_ties(scores):
    top2 = np.sort(scores, axis=1)[:, -2:]
    return top2[:, 1] - top2[:, 0] < TIE_TOL


def confusion(labels, decisions, n_classes=4):
    out = np.zeros((n_classes, n_classes), dtype=int)
    np.add.at(out, (labels, decisions), 1)
    return out


def class_kappas(conf):
    """One-against-all Cohen's kappa per class (None where chance is 1)."""
    n = conf.sum()
    kappas = []
    for k in range(len(conf)):
        tp = conf[k, k]
        fn = conf[k].sum() - tp
        fp = conf[:, k].sum() - tp
        tn = n - tp - fn - fp
        observed = (tp + tn) / n
        chance = ((tn + fp) * (tn + fn) + (tp + fn) * (tp + fp)) / n**2
        kappas.append(None if chance >= 1.0
                      else (observed - chance) / (1.0 - chance))
    return kappas


def mann_whitney_auc(scores, positive):
    """P(a positive outscores a negative), ties counting one half."""
    n_pos = int(positive.sum())
    n_neg = len(positive) - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    _, inverse, counts = np.unique(scores, return_inverse=True,
                                   return_counts=True)
    midrank = np.cumsum(counts) - (counts - 1) / 2.0
    rank_sum = midrank[inverse][positive].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def report_mismatches(report, labels, scores, decisions, near_tie):
    """Ways an evaluate report disagrees with the recomputation (empty if none)."""
    problems = []
    conf = confusion(labels, decisions)
    n = len(labels)
    got = np.array(report["confusion"])
    # a near tie may fall either way, moving one row between two cells
    if (got.shape != conf.shape
            or np.abs(got - conf).sum() > 2 * int(near_tie.sum())):
        problems.append(f"confusion {got.tolist()} != {conf.tolist()}")
    if report["n_samples"] != n:
        problems.append(f"n_samples {report['n_samples']} != {n}")
    accuracy = np.trace(got) / n if got.shape == conf.shape else -1.0
    if abs(report["overall_accuracy"] - accuracy) > 1e-12:
        problems.append(f"overall_accuracy {report['overall_accuracy']} "
                        f"!= {accuracy}")
    if abs(report["cap"] - 100.0 * accuracy) > 1e-9:
        problems.append(f"cap {report['cap']} != {100.0 * accuracy}")
    kappas = class_kappas(got) if got.shape == conf.shape else []
    for k, row in enumerate(report["per_class"]):
        want = kappas[k] if k < len(kappas) else "missing"
        if (row["kappa"] is None) != (want is None) or (
                want is not None and abs(row["kappa"] - want) > 1e-12):
            problems.append(f"class {k} kappa {row['kappa']} != {want}")
        area = mann_whitney_auc(scores[:, k], labels == k)
        if (row["auc"] is None) != (area is None) or (
                area is not None and abs(row["auc"] - area) > 1e-9):
            problems.append(f"class {k} auc {row['auc']} != Mann-Whitney {area}")
    return problems
