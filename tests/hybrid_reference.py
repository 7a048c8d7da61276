"""Hybrid training on raw rows, one member at a time: the oracle for the
folded, member-axis epoch loop in ``neurofuzzy.anfis``.

Each epoch solves the consequents with the public ``lse_consequents``
on every training row, steps the premises against a gradient taken over
every training row (no folding), then runs a full forward pass for the
train RMSE.  One-against-all trains four independent copies in turn.
"""

import copy
import math

import numpy as np

from neurofuzzy.anfis import (AnfisEnsemble, TrainingTrace, _forward_batch,
                              lse_consequents)
from neurofuzzy.data import to_arrays
from neurofuzzy.errors import NumericError
from neurofuzzy.fuzzy import MF_SHAPES


def gathered_firing(model, D, skip=None):
    """(..., R, n): each rule's degrees on the inputs but ``skip``, gathered
    rule by rule from D (..., d, M, n) and multiplied by ``math.prod``."""
    return math.prod(D[..., j, model.antecedents[:, j], :]
                     for j in range(model.input_dim) if j != skip)


def premise_gradients(model, X, t):
    """Mean-squared-error loss and its (d, M, K) premise gradient, over
    every row of X."""
    X = np.asarray(X, dtype=float)
    t = np.asarray(t, dtype=float)
    n, d, M = len(X), model.input_dim, model.mfs_per_input
    y, W, Wbar, F, degenerate = _forward_batch(model, X)
    loss = float(np.mean((y - t) ** 2))

    shape = MF_SHAPES[model.mf_shape]
    P = shape.stack(model.mf_bank)
    if not shape.trainable:
        return loss, np.zeros_like(P)

    D, dD = shape.bank(P).degree_and_param_grads(
        np.ascontiguousarray(X.T)[:, None, :])
    dEdy = 2.0 * (y - t) / n
    S = W.sum(axis=1)
    ok = ~degenerate
    dEdW = np.zeros_like(W)
    dEdW[ok] = (dEdy[ok, None] * (F[ok] - y[ok, None])) / S[ok, None]

    onehot = np.eye(M)[model.antecedents.T]                      # (d, R, M)
    dEdD = np.empty_like(D)
    for j in range(d):
        dEdD[j] = onehot[j].T @ (dEdW.T * gathered_firing(model, D, skip=j))
    return loss, np.einsum("kjmn,jmn->jmk", dD, dEdD)


def premise_gradient_step(model, X, t, learn_rate):
    shape = MF_SHAPES[model.mf_shape]
    if not shape.trainable:
        return model
    _, grads = premise_gradients(model, X, t)
    P = shape.stack(model.mf_bank) - learn_rate * grads
    if not np.all(np.isfinite(P)):
        raise NumericError("premise step produced non-finite parameters")
    model.mf_bank = shape.unstack(shape.repair(P))
    return model


def _targets_for(model, samples):
    _, values, onehot, _ = to_arrays(samples)
    if model.output_mode == "single":
        return values
    if model.positive_class is None:
        raise ValueError("binary model needs positive_class set")
    return onehot[:, model.positive_class]


def train_hybrid(model, train, test, config):
    if not train:
        raise ValueError("training set is empty")
    model = copy.deepcopy(model)
    X_train, _, _, _ = to_arrays(train)
    t_train = _targets_for(model, train)

    trace = TrainingTrace()
    for _ in range(config.epochs):
        lse_consequents(model, X_train, t_train, ridge=config.ridge)
        premise_gradient_step(model, X_train, t_train, config.learn_rate)
        y, _, _, _, _ = _forward_batch(model, X_train)
        rmse = float(np.sqrt(np.mean((y - t_train) ** 2)))
        trace.train_rmse.append(rmse)
        trace.epochs_run += 1
        if config.early_stop_rmse > 0 and rmse <= config.early_stop_rmse:
            break

    if test:
        X_test = to_arrays(test)[0]
        t_test = _targets_for(model, test)
        y_test, _, _, _, _ = _forward_batch(model, X_test)
        trace.test_rmse = float(np.sqrt(np.mean((y_test - t_test) ** 2)))
    model.training = config.to_dict()
    return model, trace


def train_oaa(proto, train, test, config):
    members, traces = [], []
    for k in range(4):
        member = copy.deepcopy(proto)
        member.output_mode = "binary"
        member.positive_class = k
        trained, trace = train_hybrid(member, train, test, config)
        members.append(trained)
        traces.append(trace)
    return AnfisEnsemble(members=members), traces
