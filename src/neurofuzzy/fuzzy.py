"""Fuzzy membership functions.

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

A shape's fields may also be arrays, a bank of functions: ``degree``
and ``degree_and_param_grads`` broadcast them against the input, so
``anfis`` evaluates all d x M functions in one call.  Each shape also
owns its grid placement (``on_grid``) and its step ``repair``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MembershipFunction",
    "GeneralizedBell",
    "TwoSidedGaussian",
    "Triangular",
    "MF_SHAPES",
    "mf_from_dict",
    "normalize_weights",
]

MIN_WIDTH = 1e-6                  # floor a repaired width or slope keeps


class MembershipFunction:
    """Parameter access shared by the shapes.

    A shape's dataclass fields are its parameters, in order, so the
    parameter vector, the stepped copy and the serialized form all
    derive from them.
    """

    widths = ()                   # parameter indexes kept >= MIN_WIDTH

    def params(self):
        return np.array([getattr(self, f.name) for f in dataclasses.fields(self)])

    def with_params(self, p):
        return dataclasses.replace(self, **{
            f.name: float(v) for f, v in zip(dataclasses.fields(self), p)})

    def to_dict(self):
        return {"shape": self.shape_name, **dataclasses.asdict(self)}

    @classmethod
    def grid(cls, lo, hi, count):
        """``count`` functions centered evenly over [lo, hi], each
        crossing its neighbors near degree 0.5."""
        spacing = (hi - lo) / (count - 1)
        return [cls.on_grid(lo + m * spacing, spacing) for m in range(count)]

    @classmethod
    def stack(cls, rows):
        """Parameters (d, M, K) of a grid of functions of this shape: each
        record's ``vars``, which ``__init__`` fills with its fields in order."""
        if any(type(mf) is not cls for row in rows for mf in row):
            raise ValueError(f"a {cls.shape_name} bank holds another shape")
        return np.array([[list(vars(mf).values()) for mf in row] for row in rows])

    @classmethod
    def bank(cls, P):
        """One function whose fields are the (d, M, 1) columns of ``P``."""
        bank = object.__new__(cls)      # P is from stack: already checked
        for k, f in enumerate(dataclasses.fields(cls)):
            object.__setattr__(bank, f.name, P[..., k:k + 1])
        return bank

    @classmethod
    def unstack(cls, P):
        """The grid of per-function records with parameters ``P``."""
        return [[cls(*p) for p in row] for row in P.tolist()]

    @classmethod
    def repair(cls, P):
        """Stepped parameters (d, M, K), widths clamped to ``MIN_WIDTH``."""
        P = P.copy()
        P[..., cls.widths] = np.maximum(P[..., cls.widths], MIN_WIDTH)
        return P


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
    widths = (0, 1)

    def __post_init__(self):
        if not (self.a > 0):
            raise ValueError(f"bell width a must be > 0, got {self.a}")
        if not (self.b > 0):
            raise ValueError(f"bell slope b must be > 0, got {self.b}")

    @classmethod
    def on_grid(cls, c, spacing):
        return cls(a=spacing / 2.0, b=2.0, c=c)

    def degree(self, x):
        t = ((np.asarray(x, dtype=float) - self.c) / self.a) ** 2
        # numpy takes a stride-0 b of exactly 2 or 0.5 as a square or a root
        # past 4,096 values; b copied to t's shape takes one path at every n
        with np.errstate(over="ignore"):
            return 1.0 / (1.0 + t ** np.broadcast_to(self.b, t.shape).copy())

    def degree_and_param_grads(self, x):
        """Degree plus d(degree)/d(a, b, c), each shaped like the degree.

        Uses mu * (1 - mu) = u / (1 + u)^2 to stay finite where the raw
        power overflows.
        """
        x = np.asarray(x, dtype=float)
        mu = self.degree(x)
        d = x - self.c
        t = (d / self.a) ** 2
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
    widths = (0, 2)

    def __post_init__(self):
        if not (self.sigma_left > 0 and self.sigma_right > 0):
            raise ValueError(
                f"sigmas must be > 0, got {self.sigma_left}, {self.sigma_right}")
        if self.c_left > self.c_right:
            raise ValueError(
                f"plateau edges out of order: {self.c_left} > {self.c_right}")

    @classmethod
    def on_grid(cls, c, spacing):
        sigma = spacing / (2.0 * math.sqrt(2.0 * math.log(2.0)))
        return cls(sigma_left=sigma, c_left=c, sigma_right=sigma, c_right=c)

    @classmethod
    def repair(cls, P):
        """Sigmas clamped, then a crossed plateau swapped side for side."""
        P = super().repair(P)
        crossed = P[..., 1] > P[..., 3]
        P[crossed] = P[crossed][:, [2, 3, 0, 1]]
        return P

    def degree(self, x):
        x = np.asarray(x, dtype=float)
        # huge parameters give NaN degrees, which anfis refuses
        with np.errstate(over="ignore", invalid="ignore"):
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

    @classmethod
    def on_grid(cls, c, spacing):
        return cls(left=c - spacing, peak=c, right=c + spacing)

    def degree(self, x):
        x = np.asarray(x, dtype=float)
        rise = (x - self.left) / (self.peak - self.left)
        fall = (self.right - x) / (self.right - self.peak)
        return np.maximum(np.minimum(rise, fall), 0.0)


MF_SHAPES = {cls.shape_name: cls
             for cls in (GeneralizedBell, TwoSidedGaussian, Triangular)}


def mf_from_dict(d):
    """Rebuild a membership function from its ``to_dict`` form."""
    d = dict(d)
    try:
        cls = MF_SHAPES[d.pop("shape")]
    except KeyError as exc:
        raise ValueError(f"unknown membership shape in {d!r}") from exc
    return cls(**d)


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

