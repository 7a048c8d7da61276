"""Small dense network baseline: one hidden layer, four output units.

Layout is fixed to the classification task: d inputs, one hidden layer
(sigmoid-family activation), four outputs trained against one-hot
targets and read by argmax.  Training is plain gradient descent on the
mean squared error over all output elements, full-batch by default,
with an optional per-sample (stochastic) mode and an optional
cross-entropy loss for logsig outputs.

Weight initialization draws uniformly from [-0.5, 0.5] in a fixed
order (hidden weights, hidden biases, output weights, output biases)
from a seeded generator, so a seed pins the whole training run.
"""

from __future__ import annotations

import copy
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .anfis import MODEL_FORMAT_VERSION
from .data import to_arrays
from .errors import NumericError

__all__ = [
    "MlpModel",
    "MlpTrainingConfig",
    "MlpTrainingTrace",
    "tansig",
    "logsig",
    "build_mlp",
    "mlp_forward",
    "mlp_loss_and_gradients",
    "train_backprop",
    "sweep_hidden",
]


def tansig(x):
    """Hyperbolic-tangent sigmoid, 2 / (1 + exp(-2x)) - 1, range (-1, 1)."""
    # tanh is the same function, computed without overflow at large |x|
    return np.tanh(np.asarray(x, dtype=float))


def logsig(x):
    """Logistic sigmoid, 1 / (1 + exp(-x)), range (0, 1)."""
    x = np.asarray(x, dtype=float)
    ex = np.exp(-np.abs(x))       # never overflows, unlike exp(-x) below 0
    return np.where(x >= 0, 1.0, ex) / (1.0 + ex)


# name: (activation, its derivative written in terms of the activation output)
_ACTIVATIONS = {"tansig": (tansig, lambda out: 1.0 - out**2),
                "logsig": (logsig, lambda out: out * (1.0 - out))}


@dataclass
class MlpTrainingConfig:
    epochs: int = 500
    learn_rate: float = 0.5
    loss: str = "mse"             # mse | cross_entropy
    batch_mode: str = "full"      # full | stochastic
    seed: int = 0
    early_stop_mse: float = 0.0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        # rate 0 is allowed: a null step leaves the weights unchanged;
        # the comparisons also reject nan and inf
        if not 0 <= self.learn_rate < math.inf:
            raise ValueError(
                f"learn_rate must be finite and >= 0, got {self.learn_rate}")
        if self.loss not in ("mse", "cross_entropy"):
            raise ValueError(f"unknown loss {self.loss!r}")
        if self.batch_mode not in ("full", "stochastic"):
            raise ValueError(f"unknown batch_mode {self.batch_mode!r}")
        if not 0 <= self.early_stop_mse < math.inf:
            raise ValueError(
                f"early_stop_mse must be finite and >= 0, got {self.early_stop_mse}")

    def to_dict(self):
        return asdict(self)


@dataclass
class MlpTrainingTrace:
    train_mse: list = field(default_factory=list)
    test_mse: float | None = None
    epochs_run: int = 0

    def to_dict(self):
        return asdict(self)


@dataclass(eq=False)
class MlpModel:
    input_dim: int
    hidden: int
    n_classes: int
    w_hidden: np.ndarray          # (hidden, input_dim)
    b_hidden: np.ndarray          # (hidden,)
    w_out: np.ndarray             # (n_classes, hidden)
    b_out: np.ndarray             # (n_classes,)
    hidden_activation: str = "tansig"
    output_activation: str = "logsig"
    seed: int = 0
    training: dict | None = None

    def __post_init__(self):
        for name in (self.hidden_activation, self.output_activation):
            if name not in _ACTIVATIONS:
                raise ValueError(f"unknown activation {name!r}")
        if (self.w_hidden.shape != (self.hidden, self.input_dim)
                or self.b_hidden.shape != (self.hidden,)
                or self.w_out.shape != (self.n_classes, self.hidden)
                or self.b_out.shape != (self.n_classes,)):
            raise ValueError("weight shapes do not match declared sizes")
        if not all(np.all(np.isfinite(w)) for w in (
                self.w_hidden, self.b_hidden, self.w_out, self.b_out)):
            raise ValueError("non-finite weights")

    def classify(self, X):
        """(argmax class indices (n,), per-class scores in [0, 1]); tansig
        outputs are rescaled (s + 1) / 2.  Ties go to the lower index."""
        O, _ = mlp_forward(self, X)
        scores = (O + 1.0) / 2.0 if self.output_activation == "tansig" else O
        return np.argmax(scores, axis=1), scores

    def to_dict(self):
        return {
            "format_version": MODEL_FORMAT_VERSION,
            "kind": "mlp",
            "input_dim": self.input_dim,
            "hidden": self.hidden,
            "n_classes": self.n_classes,
            "hidden_activation": self.hidden_activation,
            "output_activation": self.output_activation,
            "seed": self.seed,
            "w_hidden": self.w_hidden.tolist(),
            "b_hidden": self.b_hidden.tolist(),
            "w_out": self.w_out.tolist(),
            "b_out": self.b_out.tolist(),
            "training": self.training,
        }

    @classmethod
    def from_dict(cls, d):
        return cls(
            input_dim=int(d["input_dim"]),
            hidden=int(d["hidden"]),
            n_classes=int(d["n_classes"]),
            w_hidden=np.array(d["w_hidden"], dtype=float),
            b_hidden=np.array(d["b_hidden"], dtype=float),
            w_out=np.array(d["w_out"], dtype=float),
            b_out=np.array(d["b_out"], dtype=float),
            hidden_activation=d["hidden_activation"],
            output_activation=d["output_activation"],
            seed=int(d["seed"]),
            training=d["training"])


def build_mlp(hidden=10, seed=0, input_dim=5, n_classes=4,
              hidden_activation="tansig", output_activation="logsig"):
    """Fresh network with U[-0.5, 0.5] weights from a seeded generator."""
    if hidden < 1:
        raise ValueError(f"hidden must be >= 1, got {hidden}")
    rng = np.random.default_rng(seed)
    return MlpModel(
        input_dim=input_dim, hidden=hidden, n_classes=n_classes,
        w_hidden=rng.uniform(-0.5, 0.5, (hidden, input_dim)),
        b_hidden=rng.uniform(-0.5, 0.5, hidden),
        w_out=rng.uniform(-0.5, 0.5, (n_classes, hidden)),
        b_out=rng.uniform(-0.5, 0.5, n_classes),
        hidden_activation=hidden_activation,
        output_activation=output_activation,
        seed=seed)


def mlp_forward(model, X):
    """Returns (outputs (n, n_classes), hidden activations (n, hidden))."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.input_dim:
        raise ValueError(f"expected (n, {model.input_dim}) inputs, got {X.shape}")
    H = _ACTIVATIONS[model.hidden_activation][0](X @ model.w_hidden.T + model.b_hidden)
    O = _ACTIVATIONS[model.output_activation][0](H @ model.w_out.T + model.b_out)
    return O, H


def _loss_value(model, O, T, loss):
    if loss == "mse":
        return float(np.mean((O - T) ** 2))
    # cross-entropy over independent logistic outputs
    eps = 1e-12
    Oc = np.clip(O, eps, 1.0 - eps)
    return float(-np.mean(T * np.log(Oc) + (1.0 - T) * np.log(1.0 - Oc)))


def mlp_loss_and_gradients(model, X, T, loss="mse", *, forward=None):
    """Loss and its gradient in every weight and bias.

    The loss averages over all output elements, so gradients are
    per-element means.  ``forward``, the ``(O, H)`` of ``mlp_forward``
    on X under the current weights, stands in for that pass.  Returns
    (loss, grads dict keyed like the model fields).
    """
    X = np.asarray(X, dtype=float)
    T = np.asarray(T, dtype=float)
    if loss == "cross_entropy" and model.output_activation != "logsig":
        raise ValueError("cross_entropy needs a logsig output layer")
    O, H = mlp_forward(model, X) if forward is None else forward
    size = O.size
    if loss == "mse":
        slope = _ACTIVATIONS[model.output_activation][1]
        delta_out = 2.0 * (O - T) / size * slope(O)
    else:
        # logsig + cross-entropy: the sigmoid derivative cancels
        delta_out = (O - T) / size
    delta_hidden = ((delta_out @ model.w_out)
                    * _ACTIVATIONS[model.hidden_activation][1](H))
    grads = {
        "w_out": delta_out.T @ H,
        "b_out": delta_out.sum(axis=0),
        "w_hidden": delta_hidden.T @ X,
        "b_hidden": delta_hidden.sum(axis=0),
    }
    return _loss_value(model, O, T, loss), grads


def _apply_gradients(model, grads, learn_rate):
    for name, grad in grads.items():              # in place, field by field
        getattr(model, name)[...] -= learn_rate * grad


def train_backprop(model, train, test, config):
    """Gradient-descent training; deterministic under a fixed seed.

    Full-batch mode takes one step per epoch; stochastic mode takes one
    step per sample in a seeded shuffled order.  The trace records the
    full-set mean squared error after each epoch regardless of the
    training loss, from one forward pass that full-batch mode also hands
    to the next epoch's gradient: E epochs make E + 1 passes.
    """
    if not train:
        raise ValueError("training set is empty")
    model = copy.deepcopy(model)
    X, _, T, _ = to_arrays(train)
    rng = np.random.default_rng(config.seed)
    full = config.batch_mode == "full"
    forward = mlp_forward(model, X) if full else None

    trace = MlpTrainingTrace()
    for _ in range(config.epochs):
        if full:
            _, grads = mlp_loss_and_gradients(model, X, T, config.loss,
                                              forward=forward)
            _apply_gradients(model, grads, config.learn_rate)
        else:
            for k in rng.permutation(len(X)):
                _, grads = mlp_loss_and_gradients(
                    model, X[k:k + 1], T[k:k + 1], config.loss)
                _apply_gradients(model, grads, config.learn_rate)
        forward = O, _ = mlp_forward(model, X)
        if not np.all(np.isfinite(O)):
            raise NumericError("training diverged to non-finite outputs")
        mse = float(np.mean((O - T) ** 2))
        trace.train_mse.append(mse)
        trace.epochs_run += 1
        if config.early_stop_mse > 0 and mse <= config.early_stop_mse:
            break

    if test:
        X_test, _, T_test, _ = to_arrays(test)
        O_test, _ = mlp_forward(model, X_test)
        trace.test_mse = float(np.mean((O_test - T_test) ** 2))
    model.training = config.to_dict()
    return model, trace


def sweep_hidden(train, test, config, sizes=range(4, 21), seed=0):
    """Train one network per hidden size and score it on the test set.

    Returns (results, best_hidden): one dict per size, best picked by
    test accuracy with ties going to the smaller network.
    """
    X_test, _, _, true = to_arrays(test)
    results = []
    best_hidden, best_acc = None, -1.0
    for h in sizes:
        model = build_mlp(hidden=h, seed=seed)
        trained, trace = train_backprop(model, train, test, config)
        predicted, _ = trained.classify(X_test)
        wrong = int(np.sum(predicted != true))
        acc = float(np.mean(predicted == true))
        results.append({"hidden": int(h),
                        "train_mse": trace.train_mse[-1],
                        "test_mse": trace.test_mse,
                        "test_accuracy": acc,
                        "test_wrong": wrong})
        if acc > best_acc:
            best_hidden, best_acc = int(h), acc
    return results, best_hidden
