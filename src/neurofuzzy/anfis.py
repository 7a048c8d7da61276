"""Grid-partitioned adaptive Sugeno network with hybrid training.

The network alternates two parameter groups each epoch:

- consequent coefficients, solved globally by ridge-regularized linear
  least squares for the current premises (the solve is exact, so train
  RMSE can only drop across this half-step).  Repeated input rows are
  folded into weighted distinct rows, then the smaller ridge Gram
  matrix, dual or primal, is factored by Cholesky; a zero ridge falls
  back to minimum-norm SVD least squares;
- premise membership parameters, moved one gradient-descent step
  against the mean squared error (triangular premises are kept fixed:
  their vertices make the gradient undefined, so triangular models
  train consequents only).

Array conventions, for a model with d inputs, M membership functions
per input, K parameters per function, and R = M^d rules:

    X       (n, d)       encoded sample features
    P       (d, M, K)    premise parameters, in ``params()`` order
    D       (d, M, n)    membership degrees: the bank's (d, M, 1) fields
                         evaluated on X.T[:, None, :]
    W       (n, R)       rule firing strengths (product AND)
    Wbar    (n, R)       normalized strengths (uniform fallback rows
                         where the total strength is exactly zero)
    F       (n, R)       per-rule consequent values  p0 + p . x
    y       (n,)         network output, sum_i Wbar * F
    grads   (d, M, K)    loss gradient in P

A "single" model regresses the class value 1..4 and classifies by
rounding; a "binary" model is one member of a one-against-all ensemble
and regresses a 0/1 target for its positive class.
"""

from __future__ import annotations

import copy
import itertools
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .data import to_arrays
from .errors import NumericError
from .fuzzy import MF_SHAPES, mf_from_dict

__all__ = [
    "AnfisModel",
    "AnfisEnsemble",
    "TrainingConfig",
    "TrainingTrace",
    "ForwardDetail",
    "build_grid_model",
    "anfis_forward",
    "lse_consequents",
    "premise_gradients",
    "premise_gradient_step",
    "train_hybrid",
    "train_oaa",
    "decode_values",
    "predict_classes",
    "class_scores",
    "ensemble_predict_classes",
]

MODEL_FORMAT_VERSION = 1          # of every model file kind; model_io checks it


@dataclass
class TrainingConfig:
    epochs: int = 100
    learn_rate: float = 0.01
    ridge: float = 1e-8
    seed: int = 0
    early_stop_rmse: float = 0.0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        # the comparisons below also reject nan and inf
        if not 0 < self.learn_rate < math.inf:
            raise ValueError(
                f"learn_rate must be finite and > 0, got {self.learn_rate}")
        if not 0 <= self.ridge < math.inf:
            raise ValueError(f"ridge must be finite and >= 0, got {self.ridge}")
        if not 0 <= self.early_stop_rmse < math.inf:
            raise ValueError(
                f"early_stop_rmse must be finite and >= 0, got {self.early_stop_rmse}")

    def to_dict(self):
        return asdict(self)


@dataclass
class TrainingTrace:
    train_rmse: list = field(default_factory=list)
    test_rmse: float | None = None
    epochs_run: int = 0

    def to_dict(self):
        return asdict(self)


@dataclass(eq=False)
class AnfisModel:
    mf_shape: str
    mfs_per_input: int
    input_dim: int
    input_range: tuple
    mf_bank: list                 # per input: list of membership functions
    antecedents: np.ndarray       # (R, input_dim) int
    consequents: np.ndarray       # (R, input_dim + 1) float
    consequent_order: str = "linear"
    output_mode: str = "single"   # single | binary
    positive_class: int | None = None
    seed: int = 0
    training: dict | None = None

    @property
    def n_rules(self):
        return len(self.antecedents)

    def to_dict(self):
        return {
            "format_version": MODEL_FORMAT_VERSION,
            "kind": "anfis",
            "output_mode": self.output_mode,
            "mf_shape": self.mf_shape,
            "mfs_per_input": self.mfs_per_input,
            "input_dim": self.input_dim,
            "input_range": [float(self.input_range[0]), float(self.input_range[1])],
            "consequent_order": self.consequent_order,
            "positive_class": self.positive_class,
            "seed": self.seed,
            "mf_bank": [[mf.to_dict() for mf in per_input]
                        for per_input in self.mf_bank],
            "antecedents": self.antecedents.tolist(),
            "consequents": self.consequents.tolist(),
            "training": self.training,
        }

    @classmethod
    def from_dict(cls, d):
        model = cls(
            mf_shape=d["mf_shape"],
            mfs_per_input=int(d["mfs_per_input"]),
            input_dim=int(d["input_dim"]),
            input_range=tuple(d["input_range"]),
            mf_bank=[[mf_from_dict(m) for m in per_input]
                     for per_input in d["mf_bank"]],
            antecedents=np.array(d["antecedents"], dtype=int),
            consequents=np.array(d["consequents"], dtype=float),
            consequent_order=d["consequent_order"],
            output_mode=d["output_mode"],
            positive_class=d["positive_class"],
            seed=int(d["seed"]),
            training=d["training"])
        R = model.antecedents.shape[0] if model.antecedents.ndim == 2 else -1
        if (model.antecedents.shape != (R, model.input_dim)
                or model.consequents.shape != (R, model.input_dim + 1)
                or len(model.mf_bank) != model.input_dim
                or any(len(row) != model.mfs_per_input
                       for row in model.mf_bank)):
            raise ValueError("inconsistent rule table dimensions")
        if not np.all((model.antecedents >= 0)
                      & (model.antecedents < model.mfs_per_input)):
            raise ValueError("antecedent index out of range")
        premises = MF_SHAPES[model.mf_shape].stack(model.mf_bank)
        if not (np.all(np.isfinite(premises))
                and np.all(np.isfinite(model.consequents))):
            raise ValueError("non-finite premise or consequent parameters")
        return model


@dataclass(eq=False)
class AnfisEnsemble:
    """Four binary models, one per class; scores feed argmax and ROC."""

    members: list

    def to_dict(self):
        return {
            "format_version": MODEL_FORMAT_VERSION,
            "kind": "anfis",
            "output_mode": "oaa",
            "members": [m.to_dict() for m in self.members],
        }

    @classmethod
    def from_dict(cls, d):
        return cls(members=[AnfisModel.from_dict(m) for m in d["members"]])


def build_grid_model(mf_shape, mfs_per_input=2, input_range=(-1.0, 1.0),
                     seed=0, input_dim=5, consequent_order="linear",
                     output_mode="single", positive_class=None):
    """Enumerate the full rule grid with evenly spread membership functions.

    Centers sit on an even grid over ``input_range`` and widths are set
    so adjacent functions cross near degree 0.5.  Consequents start at
    zero.  Construction is deterministic; ``seed`` is recorded for the
    training config echo.
    """
    if mfs_per_input < 2:
        raise ValueError(f"mfs_per_input must be >= 2, got {mfs_per_input}")
    if mf_shape not in MF_SHAPES:
        raise ValueError(f"unknown mf_shape {mf_shape!r}")
    if consequent_order not in ("linear", "constant"):
        raise ValueError(f"unknown consequent_order {consequent_order!r}")
    if output_mode not in ("single", "binary"):
        raise ValueError(f"unknown output_mode {output_mode!r}")
    lo, hi = float(input_range[0]), float(input_range[1])
    if not hi > lo:
        raise ValueError(f"input_range must satisfy hi > lo, got {input_range}")

    mf_bank = [MF_SHAPES[mf_shape].grid(lo, hi, mfs_per_input)
               for _ in range(input_dim)]
    antecedents = np.array(
        list(itertools.product(range(mfs_per_input), repeat=input_dim)),
        dtype=int)
    consequents = np.zeros((len(antecedents), input_dim + 1))
    return AnfisModel(
        mf_shape=mf_shape, mfs_per_input=mfs_per_input, input_dim=input_dim,
        input_range=(lo, hi), mf_bank=mf_bank, antecedents=antecedents,
        consequents=consequents, consequent_order=consequent_order,
        output_mode=output_mode, positive_class=positive_class, seed=seed)


def _firing(model, D, skip=None):
    """(R, n): each rule's product of degrees over the inputs but ``skip``."""
    return math.prod(D[j][model.antecedents[:, j]]
                     for j in range(model.input_dim) if j != skip)


def _forward_batch(model, X):
    """Returns (y, W, Wbar, F, degenerate_rows)."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.input_dim:
        raise ValueError(
            f"expected (n, {model.input_dim}) inputs, got {X.shape}")
    shape = MF_SHAPES[model.mf_shape]
    bank = shape.bank(shape.stack(model.mf_bank))
    D = bank.degree(np.ascontiguousarray(X.T)[:, None, :])
    W = np.ascontiguousarray(_firing(model, D).T)
    S = W.sum(axis=1)
    degenerate = S == 0.0
    Wbar = np.empty_like(W)
    ok = ~degenerate
    Wbar[ok] = W[ok] / S[ok, None]
    Wbar[degenerate] = 1.0 / model.n_rules
    if __debug__:
        assert np.all(np.abs(Wbar.sum(axis=1) - 1.0) < 1e-9)

    X1 = np.hstack([np.ones((X.shape[0], 1)), X])
    F = X1 @ model.consequents.T
    y = (Wbar * F).sum(axis=1)
    return y, W, Wbar, F, degenerate


@dataclass(frozen=True)
class ForwardDetail:
    """One forward pass with every layer exposed."""

    y: float
    firing: np.ndarray
    normalized: np.ndarray
    rule_outputs: np.ndarray
    contributions: np.ndarray
    degenerate: bool


def anfis_forward(model, x):
    """Evaluate one input and return all intermediate layer outputs."""
    x = np.asarray(x, dtype=float)
    y, W, Wbar, F, degen = _forward_batch(model, x[None, :])
    return ForwardDetail(
        y=float(y[0]), firing=W[0], normalized=Wbar[0], rule_outputs=F[0],
        contributions=Wbar[0] * F[0], degenerate=bool(degen[0]))


def _design_matrix(model, Wbar, X):
    if model.consequent_order == "constant":
        return Wbar
    X1 = np.hstack([np.ones((X.shape[0], 1)), X])
    # rule-major blocks: [wbar_i, wbar_i * x_1, ..., wbar_i * x_d] per rule
    return (Wbar[:, :, None] * X1[:, None, :]).reshape(X.shape[0], -1)


def _fold_rows(X, targets):
    """Collapse repeated input rows.

    Returns ``(unique_rows, counts, mean_targets, within_ss)``, where
    ``within_ss`` is the targets' sum of squares about their group
    means: the part of any fit's residual that no consequent can remove.
    """
    unique, inverse, counts = np.unique(
        X, axis=0, return_inverse=True, return_counts=True)
    inverse = inverse.ravel()        # its shape under axis= varies across numpy 2.x
    means = np.bincount(inverse, weights=targets) / counts
    within_ss = float(np.sum((targets - means[inverse]) ** 2))
    return unique, counts, means, within_ss


def _cholesky_solve(G, rhs):
    """Solve G z = rhs for a symmetric positive definite G."""
    L = np.linalg.cholesky(G)
    return np.linalg.solve(L.T, np.linalg.solve(L, rhs))


def _ridge_solve(A, b, ridge):
    """argmin ||A p - b||^2 + ridge * ||p||^2, minimum-norm when ridge is 0.

    With ridge > 0 the smaller Gram matrix is factored: the dual form
    p = A'(AA' + ridge I)^-1 b when A has fewer rows than columns, else
    the primal (A'A + ridge I) p = A'b.  A zero ridge, or a Gram that is
    not numerically positive definite, falls back to least squares.
    """
    n, k = A.shape
    if ridge > 0:
        try:
            if n < k:
                return A.T @ _cholesky_solve(A @ A.T + ridge * np.eye(n), b)
            return _cholesky_solve(A.T @ A + ridge * np.eye(k), A.T @ b)
        except np.linalg.LinAlgError:
            A = np.vstack([A, math.sqrt(ridge) * np.eye(k)])
            b = np.concatenate([b, np.zeros(k)])
    return np.linalg.lstsq(A, b, rcond=None)[0]


def lse_consequents(model, X, targets, ridge=1e-8):
    """Globally optimal consequents for the current premises.

    Minimizes ||Phi p - t||^2 + ridge * ||p||^2 exactly; premises are
    untouched.  Repeated input rows are folded first: each distinct row
    enters once, weighted by the square root of its count, against its
    mean target, which changes the objective only by the targets'
    within-group sum of squares.  The folded problem is solved by a
    Cholesky factorization of the smaller ridge Gram matrix (dual when
    distinct rows are fewer than coefficients, primal otherwise), or by
    least squares when ``ridge`` is 0 or the Gram is not positive
    definite.  Returns the residual train RMSE over all rows.
    """
    X = np.asarray(X, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if len(X) < 1:
        raise ValueError("need at least one training sample")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(targets))):
        raise NumericError("consequent solve given non-finite inputs or targets")
    rows, counts, means, within_ss = _fold_rows(X, targets)
    _, _, Wbar, _, _ = _forward_batch(model, rows)
    weight = np.sqrt(counts)
    A = _design_matrix(model, Wbar, rows) * weight[:, None]
    b = means * weight
    solution = _ridge_solve(A, b, ridge)
    if not np.all(np.isfinite(solution)):
        raise NumericError("consequent solve produced non-finite values")

    if model.consequent_order == "constant":
        model.consequents[:, :] = 0.0
        model.consequents[:, 0] = solution
    else:
        model.consequents = solution.reshape(model.n_rules, model.input_dim + 1)
    residual = A @ solution - b
    return float(np.sqrt((residual @ residual + within_ss) / len(X)))


def premise_gradients(model, X, t):
    """Mean-squared-error loss and its gradient in the premise parameters.

    Returns ``(loss, grads)`` where ``grads[j]`` has one row per
    membership function of input j, (d, M, K) in all.  Rows where the
    total firing strength is exactly zero sit on the uniform fallback
    and contribute no gradient.  Triangular banks return zero gradients.
    """
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
    # dE/dW_i = dE/dy * (F_i - y) / S, valid only off the fallback rows
    dEdW = np.zeros_like(W)
    dEdW[ok] = (dEdy[ok, None] * (F[ok] - y[ok, None])) / S[ok, None]

    # dE/dD[j, m] sums dE/dW over the rules that use MF m on input j,
    # each times the product of that rule's degrees on the other inputs
    onehot = np.eye(M)[model.antecedents.T]                      # (d, R, M)
    dEdD = np.empty_like(D)
    for j in range(d):
        dEdD[j] = onehot[j].T @ (dEdW.T * _firing(model, D, skip=j))
    return loss, np.einsum("kjmn,jmn->jmk", dD, dEdD)


def premise_gradient_step(model, X, t, learn_rate):
    """One gradient-descent step on every trainable premise parameter.

    Widths are clamped positive and a crossed two-sided plateau is
    repaired by swapping sides, so membership invariants survive any
    step size.  Triangular premises are left untouched.  A non-finite
    gradient or stepped parameter raises ``NumericError`` and leaves the
    model unchanged.
    """
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
    """Hybrid training: per epoch, an exact consequent solve then one
    premise gradient step.  Deterministic; returns a trained copy and
    the per-epoch RMSE trace.
    """
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
    """Train four one-against-all copies of ``proto``, one per class.

    The members are independent; each regresses a 0/1 target for its
    own positive class.
    """
    members, traces = [], []
    for k in range(4):
        member = copy.deepcopy(proto)
        member.output_mode = "binary"
        member.positive_class = k
        trained, trace = train_hybrid(member, train, test, config)
        members.append(trained)
        traces.append(trace)
    return AnfisEnsemble(members=members), traces


def decode_values(y):
    """Map regression outputs to class indices: round, clamp to 1..4.

    Rounding is half away from zero, implemented as floor(y + 0.5);
    on the clamped target range the two rules agree.  The decision
    depends on y only through the boundaries 1.5, 2.5, 3.5.
    """
    values = np.clip(np.floor(np.asarray(y, dtype=float) + 0.5), 1, 4)
    return values.astype(int) - 1


def predict_classes(model, X):
    """Single-output class decisions for the rows of X."""
    y, _, _, _, _ = _forward_batch(model, np.asarray(X, dtype=float))
    return decode_values(y)


def class_scores(model, X):
    """Per-class ranking scores, (n, 4).

    An ensemble reports each member's raw output.  A single-output
    model ranks by closeness of y to each class value, -|y - (k + 1)|,
    which preserves the rounding decision's ordering.
    """
    X = np.asarray(X, dtype=float)
    if isinstance(model, AnfisEnsemble):
        cols = [_forward_batch(member, X)[0] for member in model.members]
        return np.column_stack(cols)
    y, _, _, _, _ = _forward_batch(model, X)
    return -np.abs(y[:, None] - (np.arange(4)[None, :] + 1.0))


def ensemble_predict_classes(ensemble, X):
    """Argmax of the member scores (ties go to the lower class index)."""
    return np.argmax(class_scores(ensemble, X), axis=1)
