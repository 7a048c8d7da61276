"""Fuzzy membership functions and Takagi-Sugeno inference primitives.

Three parametric membership shapes are provided:

- ``GeneralizedBell``:  1 / (1 + ((x - c) / a)^(2b))
- ``TwoSidedGaussian``: Gaussian tails either side of a flat plateau
  [c_left, c_right] (equal centers give a plain Gaussian)
- ``Triangular``:       piecewise-linear hat on [left, right]

All degrees lie in [0, 1] for finite inputs.  Rule firing uses the
algebraic product as the AND operator, which keeps firing strengths
differentiable in the premise parameters; the bell and two-sided
Gaussian expose analytic parameter gradients for that purpose, while
triangular premises are treated as fixed.

The functions here are the scalar/reference path; ``anfis`` re-implements
the forward pass vectorized over samples and is tested to agree with
``sugeno_infer``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MembershipFunction",
    "GeneralizedBell",
    "TwoSidedGaussian",
    "Triangular",
    "SugenoRule",
    "MF_SHAPES",
    "mf_from_dict",
    "firing_strengths",
    "normalize_weights",
    "sugeno_infer",
]


class MembershipFunction:
    """Parameter access shared by the shapes.

    A shape's dataclass fields are its parameters, in order, so the
    parameter vector, the stepped copy and the serialized form all
    derive from them.
    """

    def params(self):
        return np.array([getattr(self, f.name) for f in dataclasses.fields(self)])

    def with_params(self, p):
        return dataclasses.replace(self, **{
            f.name: float(v) for f, v in zip(dataclasses.fields(self), p)})

    def to_dict(self):
        return {"shape": self.shape_name, **dataclasses.asdict(self)}


@dataclass(frozen=True)
class GeneralizedBell(MembershipFunction):
    """Bell curve centered at ``c`` with half-width ``a`` and slope ``b``.

    degree(c) = 1, degree(c +/- a) = 0.5, symmetric about ``c``.
    """

    a: float
    b: float
    c: float

    shape_name = "gbell"
    trainable = True

    def __post_init__(self):
        if not (self.a > 0):
            raise ValueError(f"bell width a must be > 0, got {self.a}")
        if not (self.b > 0):
            raise ValueError(f"bell slope b must be > 0, got {self.b}")

    def degree(self, x):
        t = ((np.asarray(x, dtype=float) - self.c) / self.a) ** 2
        with np.errstate(over="ignore"):
            u = t**self.b
        return 1.0 / (1.0 + u)

    def degree_and_param_grads(self, x):
        """Degree plus d(degree)/d(a, b, c), each shaped like ``x``.

        Uses mu * (1 - mu) = u / (1 + u)^2 to stay finite where the raw
        power overflows.
        """
        x = np.asarray(x, dtype=float)
        d = x - self.c
        t = (d / self.a) ** 2
        with np.errstate(over="ignore"):
            u = t**self.b
        mu = 1.0 / (1.0 + u)
        core = mu * (1.0 - mu)

        g_a = 2.0 * self.b * core / self.a
        off_center = d != 0.0
        g_c = np.zeros_like(mu)
        np.divide(2.0 * self.b * core, d, out=g_c, where=off_center)
        # d mu / d b = -core * ln t; t = 0 only at the center where core = 0
        g_b = np.zeros_like(mu)
        with np.errstate(divide="ignore"):
            np.multiply(-core, np.log(t, where=off_center, out=np.zeros_like(t)),
                        out=g_b, where=off_center)
        return mu, np.stack([g_a, g_b, g_c])


@dataclass(frozen=True)
class TwoSidedGaussian(MembershipFunction):
    """Gaussian rise to a plateau [c_left, c_right], Gaussian fall after it."""

    sigma_left: float
    c_left: float
    sigma_right: float
    c_right: float

    shape_name = "gauss2"
    trainable = True

    def __post_init__(self):
        if not (self.sigma_left > 0 and self.sigma_right > 0):
            raise ValueError(
                f"sigmas must be > 0, got {self.sigma_left}, {self.sigma_right}")
        if self.c_left > self.c_right:
            raise ValueError(
                f"plateau edges out of order: {self.c_left} > {self.c_right}")

    def degree(self, x):
        x = np.asarray(x, dtype=float)
        left = np.exp(-((x - self.c_left) ** 2) / (2.0 * self.sigma_left**2))
        right = np.exp(-((x - self.c_right) ** 2) / (2.0 * self.sigma_right**2))
        out = np.where(x < self.c_left, left,
                       np.where(x > self.c_right, right, 1.0))
        # scalar in, scalar out (np.where always builds an array)
        return out[()] if out.ndim == 0 else out

    def degree_and_param_grads(self, x):
        """Degree plus gradients wrt (sigma_left, c_left, sigma_right, c_right)."""
        x = np.asarray(x, dtype=float)
        mu = self.degree(x)
        on_left = x < self.c_left
        on_right = x > self.c_right

        dl = x - self.c_left
        dr = x - self.c_right
        g_sl = np.where(on_left, mu * dl**2 / self.sigma_left**3, 0.0)
        g_cl = np.where(on_left, mu * dl / self.sigma_left**2, 0.0)
        g_sr = np.where(on_right, mu * dr**2 / self.sigma_right**3, 0.0)
        g_cr = np.where(on_right, mu * dr / self.sigma_right**2, 0.0)
        return mu, np.stack([g_sl, g_cl, g_sr, g_cr])


@dataclass(frozen=True)
class Triangular(MembershipFunction):
    """Piecewise-linear hat: 0 outside [left, right], 1 at peak."""

    left: float
    peak: float
    right: float

    shape_name = "triangular"
    trainable = False

    def __post_init__(self):
        if not (self.left < self.peak < self.right):
            raise ValueError(
                f"need left < peak < right, got "
                f"{self.left}, {self.peak}, {self.right}")

    def degree(self, x):
        x = np.asarray(x, dtype=float)
        # interp clamps to the 0-valued endpoints outside [left, right]
        return np.interp(x, [self.left, self.peak, self.right], [0.0, 1.0, 0.0])


MF_SHAPES = {
    "gbell": GeneralizedBell,
    "gauss2": TwoSidedGaussian,
    "triangular": Triangular,
}


def mf_from_dict(d):
    """Rebuild a membership function from its ``to_dict`` form."""
    d = dict(d)
    try:
        cls = MF_SHAPES[d.pop("shape")]
    except KeyError as exc:
        raise ValueError(f"unknown membership shape in {d!r}") from exc
    return cls(**d)


@dataclass(frozen=True)
class SugenoRule:
    """One rule of a Sugeno system.

    ``antecedent[j]`` indexes the membership function used for input j;
    ``consequent`` holds the constant term followed by one coefficient
    per input, so the rule output is  p0 + sum_j p[j+1] * x[j].
    A constant-consequent rule simply has zero input coefficients.
    """

    antecedent: tuple
    consequent: tuple

    def __post_init__(self):
        if len(self.consequent) != len(self.antecedent) + 1:
            raise ValueError(
                f"consequent needs {len(self.antecedent) + 1} coefficients, "
                f"got {len(self.consequent)}")

    def output(self, x):
        p = np.asarray(self.consequent, dtype=float)
        return float(p[0] + np.dot(p[1:], np.asarray(x, dtype=float)))


def _check_rule_dims(rules, mf_bank, x):
    x = np.asarray(x, dtype=float)
    if len(x) != len(mf_bank):
        raise ValueError(
            f"input has {len(x)} entries but the bank covers {len(mf_bank)}")
    for rule in rules:
        if len(rule.antecedent) != len(mf_bank):
            raise ValueError(
                f"rule antecedent length {len(rule.antecedent)} does not "
                f"match {len(mf_bank)} inputs")
        for j, m in enumerate(rule.antecedent):
            if not 0 <= m < len(mf_bank[j]):
                raise ValueError(f"antecedent index {m} invalid for input {j}")
    return x


def firing_strengths(rules, mf_bank, x):
    """Product-AND firing strength of each rule at input ``x``.

    ``mf_bank[j]`` lists the membership functions available for input j.
    """
    x = _check_rule_dims(rules, mf_bank, x)
    w = np.empty(len(rules))
    for i, rule in enumerate(rules):
        strength = 1.0
        for j, m in enumerate(rule.antecedent):
            strength *= float(mf_bank[j][m].degree(x[j]))
        w[i] = strength
    return w


def normalize_weights(w):
    """Normalize firing strengths to sum to 1.

    Returns ``(w_bar, degenerate)``.  When every strength is zero the
    ratio is undefined, so the result falls back to uniform weights and
    flags the degeneracy instead of raising; inference stays total.
    """
    w = np.asarray(w, dtype=float)
    if np.any(w < 0):
        raise ValueError("firing strengths must be non-negative")
    total = w.sum()
    if total > 0:
        return w / total, False
    return np.full(len(w), 1.0 / len(w)), True


def sugeno_infer(rules, mf_bank, x):
    """Weighted-average Sugeno inference: y = sum_i w_bar_i * f_i(x).

    Returns ``(y, w_bar)``; the normalized strengths are reused by the
    trainer and for rule-level explanations.
    """
    x = _check_rule_dims(rules, mf_bank, x)
    w = firing_strengths(rules, mf_bank, x)
    w_bar, _ = normalize_weights(w)
    outputs = np.array([rule.output(x) for rule in rules])
    return float(np.dot(w_bar, outputs)), w_bar
