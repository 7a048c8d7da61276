"""Grid-partitioned adaptive Sugeno network with hybrid training.

Each epoch alternates two parameter groups (Jang, IEEE SMC 23(3), 1993):

- consequent coefficients, solved exactly by ridge-regularized least
  squares for the current premises (``lse_consequents``), so train
  RMSE cannot rise across this half-step;
- premise membership parameters, moved one gradient-descent step
  against the mean squared error (triangular premises stay fixed: their
  vertices make the gradient undefined).

Training folds its n rows once into g distinct rows with counts c and
mean targets t.  On them dE/dy = 2 c (y - t) / n, and the error, which
adds back the targets' spread within each row, are exact.  The C
members of a run (4 for one-against-all) train along a member axis.

Array conventions, for d inputs, M functions per input (a model's
``mf_bank`` is d rows of M), K parameters each, and R = M^d rules:

    X       (g, d)          rows (n raw rows outside training)
    P       (C, d, M, K)    premise parameters, in ``params()`` order
    D       (C, d, M, g)    degrees: the bank's (C, d, M, 1) fields on
                            X.T[None, :, None, :]
    Wbar    (C, g, R)       firing strengths (product AND) over their total
                            S (C, g), uniform where S == 0; W: forward detail
    F       (C, g, R)       rule values p0 + p . x, consequents (C, R, d + 1)
    y       (C, g)          network output, sum_i Wbar * F
    grads   (C, d, M, K)    loss gradient in P

A "single" model regresses the class value 1..4 and classifies by
rounding; a "binary" model, one member of a one-against-all ensemble,
regresses a 0/1 target for its positive class.  Both model classes
answer ``classify(X) -> (class indices (n,), scores (n, 4))``, the one
call that evaluation, ROC and the command line make.
"""
from __future__ import annotations

import math
import operator

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
    "train_hybrid",
    "train_oaa",
    "decode_values",
    "predict_classes",
    "class_scores",
    "ensemble_predict_classes",
]

MODEL_FORMAT_VERSION = 1          # of every model file kind; model_io checks it
CONSEQUENT_ORDERS = ("linear", "constant")
# row blocks (_row_blocks): values per (C, rows, R) temporary, and
# the multiple of rows each block starts on, which keeps one pass's bytes
# on the GEMM row panels of OpenBLAS 0.3.31's SkylakeX kernels, where it
# was found; other BLAS kernels may split rows otherwise
BLOCK_VALUES = 2**14
BLOCK_ALIGN = 24


class Record:
    """Attribute equality; ``to_dict`` gives the attributes in ``__init__`` order."""

    def __eq__(self, other):
        return type(other) is type(self) and vars(other) == vars(self)

    def to_dict(self):
        return {key: list(value) if isinstance(value, list) else value
                for key, value in vars(self).items()}


def checked_epochs(epochs):
    """``epochs`` as an int >= 1."""
    try:
        epochs = operator.index(epochs)
    except TypeError:
        raise ValueError(f"epochs must be an integer, got {epochs!r}") from None
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    return epochs


def checked_nonnegative(name, value, zero_ok=True):
    """``value`` as a float, finite and >= 0 (> 0 unless ``zero_ok``); the
    comparisons also refuse nan."""
    if not (0 <= value if zero_ok else 0 < value) or not value < math.inf:
        raise ValueError(f"{name} must be finite and {'>=' if zero_ok else '>'} 0, "
                         f"got {value}")
    return float(value)


class TrainingConfig(Record):
    # each number as the model file's training block writes it
    def __init__(self, epochs=100, learn_rate=0.01, ridge=1e-8, seed=0,
                 early_stop_rmse=0.0):
        self.epochs = checked_epochs(epochs)
        self.learn_rate = checked_nonnegative("learn_rate", learn_rate, zero_ok=False)
        self.ridge = checked_nonnegative("ridge", ridge)
        self.seed = operator.index(seed)
        self.early_stop_rmse = checked_nonnegative("early_stop_rmse", early_stop_rmse)


class TrainingTrace(Record):
    def __init__(self):
        self.train_rmse, self.test_rmse, self.epochs_run = [], None, 0


class AnfisModel:
    # the grid's sizes are the bank's: d rows of M functions of one shape
    mf_class = property(lambda self: type(self.mf_bank[0][0]))
    mf_shape = property(lambda self: self.mf_class.shape_name)
    mfs_per_input = property(lambda self: len(self.mf_bank[0]))
    input_dim = property(lambda self: len(self.mf_bank))

    def __init__(self, input_range, mf_bank, consequents, consequent_order="linear",
                 output_mode="single", positive_class=None, seed=0, training=None):
        # each field as a model file holds it, as model_io loads a file only
        # if it saves back as itself; the comparison also rejects nan
        lo, hi = map(float, input_range)
        if not -math.inf < lo < hi < math.inf:
            raise ValueError(f"input_range must be two finite numbers lo < hi, "
                             f"got {input_range!r}")
        self.input_range = (lo, hi)
        self.mf_bank = mf_bank    # per input: list of membership functions
        self.consequents = np.array(consequents, dtype=float)  # rule r = grid cell r
        self.consequent_order, self.output_mode = consequent_order, output_mode
        self.seed, self.training = operator.index(seed), training
        self.positive_class = (None if positive_class is None
                               else operator.index(positive_class))
        if self.consequent_order not in CONSEQUENT_ORDERS:
            raise ValueError(f"unknown consequent_order {self.consequent_order!r}")
        if self.output_mode not in ("single", "binary"):
            raise ValueError(f"unknown output_mode {self.output_mode!r}")
        if self.output_mode == "binary" and self.positive_class not in range(4):
            raise ValueError(f"binary model needs positive_class 0..3, "
                             f"got {self.positive_class!r}")
        if self.output_mode == "single" and self.positive_class is not None:
            raise ValueError(f"single model takes no positive_class, "
                             f"got {self.positive_class!r}")
        # an empty bank or row first, as the sizes would raise IndexError
        if (not all(self.mf_bank) or len({len(row) for row in self.mf_bank}) != 1
                or self.consequents.shape != (self.n_rules, self.input_dim + 1)):
            raise ValueError("inconsistent rule table dimensions")
        premises = self.mf_class.stack(self.mf_bank)
        if not (np.all(np.isfinite(premises))
                and np.all(np.isfinite(self.consequents))):
            raise ValueError("non-finite premise or consequent parameters")

    @property
    def n_rules(self):
        return self.mfs_per_input ** self.input_dim

    @property
    def antecedents(self):
        """(R, input_dim) int: rule r's function on each input, the grid's
        cells in order with the last input varying fastest."""
        return np.indices((self.mfs_per_input,) * self.input_dim).reshape(
            self.input_dim, -1).T

    def classify(self, X):
        """(class indices (n,), scores (n, 4)) from one forward pass.

        The class rounds y (``decode_values``); the scores rank by
        closeness of y to each class value, -|y - (k + 1)|, which
        preserves the rounding decision's ordering.
        """
        y = _member_outputs([self], X)[:, 0]
        return decode_values(y), -np.abs(y[:, None] - (np.arange(4)[None, :] + 1.0))

    def to_dict(self):
        return {
            "format_version": MODEL_FORMAT_VERSION,
            "kind": "anfis",
            "output_mode": self.output_mode,
            "mf_shape": self.mf_shape,
            "mfs_per_input": self.mfs_per_input,
            "input_dim": self.input_dim,
            "input_range": list(self.input_range),
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
        bank = [[mf_from_dict(m) for m in row] for row in d["mf_bank"]]
        return cls(d["input_range"], bank, d["consequents"], d["consequent_order"],
                   d["output_mode"], d["positive_class"], d["seed"], d["training"])


class AnfisEnsemble:
    """Four binary models, member k scoring class k; scores feed argmax and ROC."""

    input_dim = property(lambda self: self.members[0].input_dim)

    def __init__(self, members):
        self.members = members
        if ([(m.output_mode, m.positive_class) for m in self.members]
                != [("binary", k) for k in range(4)]):
            raise ValueError("one-against-all needs four binary members, "
                             "member k with positive_class k")
        if len({(m.mf_shape, m.mfs_per_input, m.input_dim) for m in self.members}) > 1:
            raise ValueError("one-against-all members must share one rule grid")

    def classify(self, X):
        """(argmax of the member scores, each member's raw outputs (n, 4));
        ties go to the lower class index."""
        scores = _member_outputs(self.members, X)
        return np.argmax(scores, axis=1), scores

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
    """The full rule grid with evenly spread membership functions.

    Centers sit on an even grid over ``input_range`` and widths are set
    so adjacent functions cross near degree 0.5.  Consequents start at
    zero.  Construction is deterministic; ``seed`` is recorded for the
    training config echo.
    """
    if mfs_per_input < 2:
        raise ValueError(f"mfs_per_input must be >= 2, got {mfs_per_input}")
    if mf_shape not in MF_SHAPES:
        raise ValueError(f"unknown mf_shape {mf_shape!r}")
    lo, hi = float(input_range[0]), float(input_range[1])
    if not hi > lo:
        raise ValueError(f"input_range must satisfy hi > lo, got {input_range}")

    mf_bank = [MF_SHAPES[mf_shape].grid(lo, hi, mfs_per_input)
               for _ in range(input_dim)]
    consequents = np.zeros((mfs_per_input ** input_dim, input_dim + 1))
    return AnfisModel(
        input_range=(lo, hi), mf_bank=mf_bank,
        consequents=consequents, consequent_order=consequent_order,
        output_mode=output_mode, positive_class=positive_class, seed=seed)


def _firing(D):
    """(..., R, g): the grid of degree products over the inputs, taken in
    input order as outer products, so rule r is cell r."""
    *lead, d, M, g = D.shape
    grid = np.ones((*lead, 1, g))
    for j in range(d):            # no -1 in the shape: g may be 0
        grid = (grid[..., None, :] * D[..., j, None, :, :]).reshape(
            *lead, grid.shape[-2] * M, g)
    return grid


def _check_inputs(model, X):
    if X.ndim != 2 or X.shape[1] != model.input_dim:
        raise ValueError(f"expected (n, {model.input_dim}) inputs, got {X.shape}")


def _layers(model, P, X, grads=False):
    """(D, dD, S, Wbar, degenerate) of premises P on the rows of X: dD
    (K, C, d, M, g) only with ``grads``, totals S (C, g) zero on the
    ``degenerate`` rows; W is normalized in the array it is laid out in."""
    _check_inputs(model, X)
    bank = model.mf_class.bank(P)
    x = np.ascontiguousarray(X.T)[None, :, None, :]
    D, dD = bank.degree_and_param_grads(x) if grads else (bank.degree(x), None)
    Wbar = np.ascontiguousarray(np.swapaxes(_firing(D), -1, -2))
    S = Wbar.sum(axis=-1)
    if not np.all(np.isfinite(S)):
        raise NumericError("non-finite firing strengths: a membership degree overflowed")
    degenerate = S == 0.0
    np.divide(Wbar, S[..., None], out=Wbar, where=~degenerate[..., None])
    Wbar[degenerate] = 1.0 / model.n_rules
    assert np.all(np.abs(Wbar.sum(axis=-1) - 1.0) < 1e-9)
    return D, dD, S, Wbar, degenerate


def _outputs(X, consequents, Wbar):
    """(F, y) of the members with consequents (C, R, d + 1)."""
    X1 = np.concatenate([np.ones((X.shape[0], 1)), X], axis=1)
    F = X1 @ np.swapaxes(consequents, -1, -2)
    return F, (Wbar * F).sum(axis=-1)


def _forward_batch(model, X):
    """(y, W, Wbar, F, degenerate rows); the one place W (g, R) is formed."""
    X = np.asarray(X, dtype=float)
    P = model.mf_class.stack(model.mf_bank)
    D, _, _, Wbar, degenerate = _layers(model, P[None], X)
    F, y = _outputs(X, model.consequents[None], Wbar)
    return y[0], np.ascontiguousarray(_firing(D)[0].T), Wbar[0], F[0], degenerate[0]


def _row_blocks(n, width):
    """Slices over n rows, in blocks of a multiple of ``BLOCK_ALIGN`` rows
    whose (rows, width) temporaries hold ``BLOCK_VALUES`` float64s, 128 KiB,
    where width allows: under glibc's default mmap threshold, so they are
    not page-faulted in on every call.  The layers work row by row but for
    the consequent GEMM, whose bytes depend on a row's place among BLAS's
    row panels; aligned block starts, and a 1-row tail (which numpy sends to
    gemv) joined to the block before it, keep the bytes of one pass over all
    rows under one BLAS thread."""
    rows = max(1, BLOCK_VALUES // width // BLOCK_ALIGN) * BLOCK_ALIGN
    bounds = [0, *range(rows, n - 1, rows), n]
    return [slice(start, stop) for start, stop in zip(bounds, bounds[1:])]


def _member_outputs(members, X):
    """Outputs (n, C) of members sharing a rule grid on the rows of X, one
    ``_layers`` and ``_outputs`` call per row block, with one pass's bytes
    (``_row_blocks``)."""
    X = np.asarray(X, dtype=float)
    model, shape, C = members[0], members[0].mf_class, len(members)
    _check_inputs(model, X)
    P = np.array([shape.stack(m.mf_bank) for m in members])
    consequents = np.array([m.consequents for m in members])
    y = np.empty((len(X), C))
    with np.errstate(over="ignore", invalid="ignore"):   # refused below instead
        for b in _row_blocks(len(X), C * model.n_rules):
            Wbar = _layers(model, P, X[b])[3]
            y[b] = _outputs(X[b], consequents, Wbar)[1].T
    if not np.all(np.isfinite(y)):
        raise NumericError("non-finite model outputs have no class")
    return y


class ForwardDetail:
    """One forward pass with every layer exposed."""

    def __init__(self, y, firing, normalized, rule_outputs, contributions, degenerate):
        self.y, self.firing, self.normalized = y, firing, normalized
        self.rule_outputs, self.contributions = rule_outputs, contributions
        self.degenerate = degenerate


def anfis_forward(model, x):
    """Evaluate one input and return all intermediate layer outputs."""
    x = np.asarray(x, dtype=float)
    y, W, Wbar, F, degen = _forward_batch(model, x[None, :])
    return ForwardDetail(
        y=float(y[0]), firing=W[0], normalized=Wbar[0], rule_outputs=F[0],
        contributions=Wbar[0] * F[0], degenerate=bool(degen[0]))


def _design_matrix(model, Wbar, X, weight):
    """The solve's rows, each scaled by its weight; ``Wbar`` is not written.
    A constant consequent takes only the leading 1 of ``[1, x]``."""
    cols = 1 if model.consequent_order == "constant" else X.shape[1] + 1
    X1 = np.hstack([np.ones((X.shape[0], 1)), X])[:, :cols]
    # rule-major blocks: [wbar_i, wbar_i * x_1, ..., wbar_i * x_d] per rule
    A = Wbar[:, :, None] * X1[:, None, :]
    return np.multiply(A, weight[:, None, None], out=A).reshape(X.shape[0], -1)


def _fold_rows(X, targets):
    """Collapse repeated rows of X, given targets (C, n), into ``(rows,
    counts, means, within_ss)``: mean targets (C, g) and the targets' sums
    of squares about them (C,), which no consequent can remove."""
    if len(X) < 1:
        raise ValueError("need at least one training sample")
    if targets.shape[-1] != len(X):
        raise ValueError(f"{len(X)} input rows but {targets.shape[-1]} targets")
    unique, inverse, counts = np.unique(
        X, axis=0, return_inverse=True, return_counts=True)
    inverse = inverse.ravel()        # its shape under axis= varies across numpy 2.x
    means = np.array([np.bincount(inverse, weights=t) for t in targets]) / counts
    within_ss = np.sum((targets - means[:, inverse]) ** 2, axis=-1)
    return unique, counts, means, within_ss


def _ridge_solve(A, b, ridge):
    """argmin ||A p - b||^2 + ridge * ||p||^2, minimum-norm when ridge is 0.

    With ridge > 0 the smaller Gram matrix is factored by Cholesky: the
    dual form p = A'(AA' + ridge I)^-1 b when A has fewer rows than
    columns, else the primal (A'A + ridge I) p = A'b.  A zero ridge, or a
    Gram that is not numerically positive definite, falls back to least
    squares.
    """
    n, k = A.shape
    if ridge > 0:
        dual = n < k
        G, rhs = (A @ A.T, b) if dual else (A.T @ A, A.T @ b)
        try:
            L = np.linalg.cholesky(G + ridge * np.eye(len(G)))
            z = np.linalg.solve(L.T, np.linalg.solve(L, rhs))
            return A.T @ z if dual else z
        except np.linalg.LinAlgError:
            A = np.vstack([A, math.sqrt(ridge) * np.eye(k)])
            b = np.concatenate([b, np.zeros(k)])
    return np.linalg.lstsq(A, b, rcond=None)[0]


def lse_consequents(model, X, targets, ridge=1e-8, *, counts=None,
                    normalized=None):
    """Globally optimal consequents for the current premises.

    Minimizes ||Phi p - t||^2 + ridge * ||p||^2 exactly; premises are
    untouched.  Repeated input rows are folded first: each distinct row
    enters once against its mean target, weighted by the square root of
    its count.  ``counts`` says X is already folded: row i stands for
    ``counts[i]`` samples and ``targets[i]`` is their mean.  With it,
    ``normalized`` may give the rows' normalized firing strengths (g, R)
    under the current premises, in place of a forward pass.  The smaller
    ridge Gram, dual or primal, is factored by Cholesky; a zero ridge
    falls back to least squares.  Returns the residual train RMSE over
    all rows, less the targets' spread within rows if ``counts`` is given.
    """
    X = np.asarray(X, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if len(X) < 1:
        raise ValueError("need at least one training sample")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(targets))):
        raise NumericError("consequent solve given non-finite inputs or targets")
    if counts is None and normalized is not None:
        raise ValueError("normalized strengths need folded rows and their counts")
    within_ss = 0.0
    if counts is None:
        X, counts, targets, within_ss = _fold_rows(X, targets[None])
        targets, within_ss = targets[0], within_ss[0]
    elif not (np.shape(counts) == targets.shape == (len(X),)
              and np.all(np.asarray(counts) > 0)):
        raise ValueError("counts and targets need one value per row, counts > 0")
    Wbar = normalized if normalized is not None else _layers(
        model, model.mf_class.stack(model.mf_bank)[None], X)[3][0]
    weight = np.sqrt(counts)
    A = _design_matrix(model, Wbar, X, weight)
    b = targets * weight
    with np.errstate(over="ignore", invalid="ignore"):   # refused below instead
        solution = _ridge_solve(A, b, ridge)
        residual = A @ solution - b
        rmse = np.sqrt((residual @ residual + within_ss) / np.sum(counts))
    if not (np.all(np.isfinite(solution)) and np.isfinite(rmse)):
        raise NumericError("consequent solve produced non-finite values")

    solved = solution.reshape(model.n_rules, -1)
    model.consequents = np.zeros((model.n_rules, model.input_dim + 1))
    model.consequents[:, :solved.shape[1]] = solved
    return float(rmse)


def _loss_and_grads(model, layers, X, consequents, fold, grads=True):
    """Mean squared error (C,) over the rows the folded X stand for, and
    its gradient in P if ``grads`` and ``layers`` has dD, else None.  The
    outputs and dE/dD are built in the scoring row blocks (``_row_blocks``),
    so no (C, g, R) temporary spans all rows; the sums over rows run once
    over all of them, so the bytes are one pass's."""
    D, dD, S, Wbar, degenerate = layers
    counts, means, within_ss = fold
    C, d, M, g = D.shape
    grads = grads and dD is not None
    n = counts.sum()
    y = np.empty((C, g))
    dEdD = np.empty_like(D) if grads else None
    for b in _row_blocks(g, C * model.n_rules):
        F, y[:, b] = _outputs(X[b], consequents, Wbar[:, b])
        if not grads:
            continue
        dEdy = 2.0 * counts[b] * (y[:, b] - means[:, b]) / n
        # dE/dW_i = dE/dy * (F_i - y) / S, valid only off the fallback rows; a
        # subnormal S overflows it, and the callers refuse the non-finite result
        dEdW = np.zeros_like(F)
        with np.errstate(over="ignore", invalid="ignore"):
            np.divide(dEdy[..., None] * (F - y[:, b, None]), S[:, b, None],
                      out=dEdW, where=~degenerate[:, b, None])

            # dE/dD[j, m] sums dE/dW over the rules that use MF m on input j,
            # the grid's (C, M^j, M, M^(d-1-j), rows) view at m on axis 2, each
            # times the product of that rule's degrees on the other inputs
            dEdW = np.ascontiguousarray(np.swapaxes(dEdW, -1, -2))   # (C, R, rows)
            Db = np.ascontiguousarray(D[..., b])   # so its masked copies are too
            rows = Db.shape[-1]
            for j in range(d):
                others = _firing(Db[:, np.arange(d) != j]).reshape(C, M**j, 1, -1, rows)
                dEdD[:, j, :, b] = (dEdW.reshape(C, M**j, M, -1, rows)
                                    * others).sum(axis=(1, 3))
    r = y - means
    mse = (np.sum(counts * r**2, axis=-1) + within_ss) / n
    if not grads:
        return mse, None
    return mse, np.einsum("kcjmg,cjmg->cjmk", dD, dEdD)


def _stepped(shape, P, grads, learn_rate):
    """P moved against ``grads``, checked finite, then repaired."""
    P = P - learn_rate * grads
    if not np.all(np.isfinite(P)):
        raise NumericError("premise step produced non-finite parameters")
    return shape.repair(P)


def premise_gradients(model, X, t):
    """Mean-squared-error loss and its gradient in the premise parameters.

    Returns ``(loss, grads)``, grads (d, M, K), computed on the folded
    rows as training does.  Rows where the total firing strength is
    exactly zero sit on the uniform fallback and contribute no gradient.
    Triangular banks return zero gradients.  A gradient that is not
    finite (a row with a subnormal total strength gives one) raises
    ``NumericError``.
    """
    rows, *fold = _fold_rows(np.asarray(X, dtype=float),
                             np.asarray(t, dtype=float)[None])
    shape = model.mf_class
    P = shape.stack(model.mf_bank)
    layers = _layers(model, P[None], rows, shape.trainable)
    mse, grads = _loss_and_grads(model, layers, rows, model.consequents[None], fold)
    if grads is None:
        return float(mse[0]), np.zeros_like(P)
    if not np.all(np.isfinite(grads)):
        raise NumericError("non-finite premise gradient")
    return float(mse[0]), grads[0]


def _targets(members, samples):
    """Features (n, d) and each member's regression targets (C, n)."""
    X, values, onehot, _ = to_arrays(samples)
    return X, np.array([values if m.output_mode == "single" else
                        onehot[:, m.positive_class] for m in members])


def _member(model, config, **changes):
    """A copy of ``model`` to train under ``config``, sharing no state."""
    return AnfisModel(**{
        "input_range": model.input_range, "mf_bank": [list(r) for r in model.mf_bank],
        "consequents": model.consequents, "consequent_order": model.consequent_order,
        "output_mode": model.output_mode, "positive_class": model.positive_class,
        "seed": model.seed, "training": config.to_dict(), **changes})


def _train(members, train, test, config):
    """Hybrid epochs of members sharing a rule grid and training rows,
    folded once.  A member whose train RMSE reaches ``early_stop_rmse``
    freezes while the others go on, so each trains as it would alone."""
    if not train:
        raise ValueError("training set is empty")
    rows, *fold = _fold_rows(*_targets(members, train))
    counts, means, _ = fold
    model, shape = members[0], members[0].mf_class
    P = np.array([shape.stack(m.mf_bank) for m in members])
    layers = _layers(model, P, rows, shape.trainable)
    traces = [TrainingTrace() for _ in members]
    live = list(range(len(members)))
    for _ in range(config.epochs):
        for c in live:
            lse_consequents(members[c], rows, means[c], config.ridge,
                            counts=counts, normalized=layers[3][c])
        consequents = np.array([m.consequents for m in members])
        if shape.trainable:
            _, grads = _loss_and_grads(model, layers, rows, consequents, fold)
            P[live] = _stepped(shape, P[live], grads[live], config.learn_rate)
            # one pass serves this epoch's RMSE, the next one's solve and
            # gradient; the old layers go first, or both sets would be held
            # at once, which would set training's peak memory
            layers = None
            layers = _layers(model, P, rows, True)
        rmse = np.sqrt(_loss_and_grads(model, layers, rows, consequents, fold, False)[0])
        for c in live:
            traces[c].train_rmse.append(float(rmse[c]))
            traces[c].epochs_run += 1
        if config.early_stop_rmse > 0:
            live = [c for c in live if rmse[c] > config.early_stop_rmse]
        if not live:
            break
    if shape.trainable:                 # a frozen member's P stopped with it
        for member, premises in zip(members, P):
            member.mf_bank = shape.unstack(premises)

    if test:
        X_test, T_test = _targets(members, test)
        for trace, y, t in zip(traces, _member_outputs(members, X_test).T, T_test):
            trace.test_rmse = float(np.sqrt(np.mean((y - t) ** 2)))
    return members, traces


def train_hybrid(model, train, test, config):
    """Hybrid training: per epoch, an exact consequent solve then one
    premise gradient step.  Returns a trained copy and the RMSE trace."""
    (trained,), (trace,) = _train([_member(model, config)], train, test, config)
    return trained, trace


def train_oaa(proto, train, test, config):
    """Train four one-against-all copies of ``proto``, one per class, each
    regressing a 0/1 target for its positive class.  They share one epoch
    loop, and each ends as ``train_hybrid`` would leave it."""
    members, traces = _train([
        _member(proto, config, output_mode="binary", positive_class=k)
        for k in range(4)], train, test, config)
    return AnfisEnsemble(members=members), traces


def decode_values(y):
    """Map regression outputs to class indices: round, clamp to 1..4.

    Rounding is half away from zero, implemented as floor(y + 0.5);
    on the clamped target range the two rules agree.  The decision
    depends on y only through the boundaries 1.5, 2.5, 3.5.  A non-finite
    output has no class: it raises ``NumericError``.
    """
    y = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(y)):
        raise NumericError("non-finite model outputs have no class")
    return np.clip(np.floor(y + 0.5), 1, 4).astype(int) - 1


def predict_classes(model, X):
    """Class decisions for the rows of X."""
    return model.classify(X)[0]


def class_scores(model, X):
    """Per-class ranking scores for the rows of X, (n, 4)."""
    return model.classify(X)[1]


def ensemble_predict_classes(ensemble, X):
    """Argmax of the member scores (ties go to the lower class index)."""
    return ensemble.classify(X)[0]
