"""Full-batch backprop with two forward passes per epoch: the oracle for
the one-pass epoch loop in ``neurofuzzy.mlp.train_backprop``.

Each epoch takes the gradient with the public ``mlp_loss_and_gradients``,
which runs its own forward pass, steps every weight, then runs a second
forward pass for the non-finite check, the trace MSE and the early stop.
``logsig`` is the masked form: each sign's rows are gathered, mapped and
scattered back.
"""

import copy

import numpy as np

from neurofuzzy.data import to_arrays
from neurofuzzy.errors import NumericError
from neurofuzzy.mlp import mlp_forward, mlp_loss_and_gradients

WEIGHTS = ("w_out", "b_out", "w_hidden", "b_hidden")


def logsig(x):
    """Logistic sigmoid, exp taken only where it cannot overflow."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def train_full_batch(model, train, config):
    """(trained copy, train MSE per epoch) of full-batch gradient descent."""
    model = copy.deepcopy(model)
    X, _, T, _ = to_arrays(train)
    train_mse = []
    for _ in range(config.epochs):
        _, grads = mlp_loss_and_gradients(model, X, T, config.loss)
        for name in WEIGHTS:
            getattr(model, name)[...] -= config.learn_rate * grads[name]
        O, _ = mlp_forward(model, X)
        if not np.all(np.isfinite(O)):
            raise NumericError("training diverged to non-finite outputs")
        train_mse.append(float(np.mean((O - T) ** 2)))
        if config.early_stop_mse > 0 and train_mse[-1] <= config.early_stop_mse:
            break
    return model, train_mse
