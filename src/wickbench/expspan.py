"""Closed-form calculus on linear combinations of stochastic exponentials.

E(h)(w) = exp(<w,h> - |h|^2/2) has unit Gaussian mean and chaos
coefficients h^m/m!.  On the span of these functions every product and
integral used by the verification checks has an exact finite formula:

    E(h) wick E(k)   = E(h+k)
    E(h) * E(k)      = e^{<h,k>} E(h+k)
    E(h) o_a E(k)    = e^{a<h,k>} E(h+k)
    Gamma(lam) E(h)  = E(lam h)
    int E(h)E(k) dmu = e^{<h,k>}

so inequality checks run on this class carry no discretization error.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .chaos import COEFF_EPS, ChaosExpansion, MultiIndex, multi_indices

# Two directions within this coordinatewise distance are treated as the
# same exponential when terms are merged.  Products add directions and
# never perturb them, so exact coincidence is the common case.
MERGE_TOL = 1e-12


def canonical_rows(dim, pairs):
    """Canonical (rows, weights) lists from (row tuple, float weight) pairs.

    Weights of exactly equal rows are summed in input order, rows are
    sorted lexicographically, and a row within MERGE_TOL coordinatewise of
    the previous kept row is folded into it.  ExpCombo directions and
    DiscreteMeasure atoms both take this form, so equal inputs give equal
    stored arrays.
    """
    acc: dict[tuple, float] = {}
    for row, w in pairs:
        if len(row) != dim:
            raise ValueError(f"row {row} has length {len(row)}, expected {dim}")
        acc[row] = acc.get(row, 0.0) + w
    rows: list[tuple] = []
    weights: list[float] = []
    for row, w in sorted(acc.items()):
        if rows and max((abs(a - b) for a, b in zip(row, rows[-1])), default=0.0) <= MERGE_TOL:
            weights[-1] += w
        else:
            rows.append(row)
            weights.append(w)
    return rows, weights


class ExpCombo:
    """Finite combination sum_j weight_j * E(h_j), kept in canonical form.

    ``terms`` is any iterable of (weight, direction) pairs.  Construction
    merges equal directions, removes zero weights, and orders terms, so
    value equality of two combos is equality of their stored arrays.
    """

    __slots__ = ("dim", "weights", "directions")

    def __init__(self, dim: int, terms=()):
        dim = operator.index(dim)
        if dim < 0:
            raise ValueError("dimension must be >= 0")
        dirs, weights = canonical_rows(dim, ((tuple(map(float, h)), float(c)) for c, h in terms))
        keep = [i for i, c in enumerate(weights) if abs(c) >= COEFF_EPS]
        w = np.array([weights[i] for i in keep], dtype=float)
        d = np.array([dirs[i] for i in keep], dtype=float).reshape(len(keep), dim)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "directions", d)
        w.setflags(write=False)
        d.setflags(write=False)

    def __setattr__(self, name, value):
        raise AttributeError("ExpCombo is immutable")

    @classmethod
    def exponential(cls, h, weight: float = 1.0) -> "ExpCombo":
        """A single weighted exponential weight * E(h)."""
        h = np.atleast_1d(np.asarray(h, dtype=float))
        return cls(h.size, [(weight, h)])

    @classmethod
    def one(cls, dim: int) -> "ExpCombo":
        """E(0), the constant function 1 and unit of all three products."""
        return cls(dim, [(1.0, np.zeros(dim))])

    @property
    def terms(self) -> list[tuple[float, tuple]]:
        return [
            (float(w), tuple(float(x) for x in d))
            for w, d in zip(self.weights, self.directions)
        ]

    @property
    def n_terms(self) -> int:
        return len(self.weights)

    def __add__(self, other: "ExpCombo") -> "ExpCombo":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return ExpCombo(self.dim, self.terms + other.terms)

    def __sub__(self, other: "ExpCombo") -> "ExpCombo":
        return self + (-1.0) * other

    def __mul__(self, scalar: float) -> "ExpCombo":
        return ExpCombo(self.dim, [(scalar * w, d) for w, d in self.terms])

    __rmul__ = __mul__

    def eval(self, w):
        return exp_eval(self, w)

    def allclose(self, other: "ExpCombo", tol: float = 1e-9) -> bool:
        """Termwise agreement of the canonical forms within tol."""
        if self.dim != other.dim or self.n_terms != other.n_terms:
            return False
        if self.n_terms == 0:
            return True
        dir_ok = np.max(np.abs(self.directions - other.directions)) <= tol
        scale = np.maximum(1.0, np.abs(self.weights))
        w_ok = np.max(np.abs(self.weights - other.weights) / scale) <= tol
        return bool(dir_ok and w_ok)

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "terms": [{"coef": float(w), "h": [float(x) for x in d]} for w, d in zip(self.weights, self.directions)],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ExpCombo":
        return cls(int(data["dim"]), [(t["coef"], t["h"]) for t in data["terms"]])

    def __repr__(self):
        return f"ExpCombo(dim={self.dim}, terms={self.n_terms})"


def _check_dims(f: ExpCombo, g: ExpCombo):
    if f.dim != g.dim:
        raise ValueError(f"dimension mismatch: {f.dim} vs {g.dim}")


def exp_eval(f: ExpCombo, w):
    """Evaluate at a point (n,) or batch (N, n) of points."""
    pts = np.asarray(w, dtype=float)
    batch = pts.ndim == 2
    pts = np.atleast_2d(pts)
    if pts.shape[1] != f.dim:
        raise ValueError(f"point dimension {pts.shape[1]} does not match n={f.dim}")
    if f.n_terms == 0:
        vals = np.zeros(pts.shape[0])
    else:
        half = 0.5 * np.sum(f.directions**2, axis=1)
        vals = np.exp(pts @ f.directions.T - half) @ f.weights
    return vals if batch else float(vals[0])


def _product_exp(f: ExpCombo, g: ExpCombo, scale: float) -> ExpCombo:
    # shared kernel: weight_jk = w_j v_k e^{scale <h_j,k_k>}, direction h_j + k_k
    _check_dims(f, g)
    if f.n_terms == 0 or g.n_terms == 0:
        return ExpCombo(f.dim)
    w = np.outer(f.weights, g.weights) * np.exp(scale * (f.directions @ g.directions.T))
    d = f.directions[:, None, :] + g.directions[None, :, :]
    return ExpCombo(f.dim, zip(w.ravel(), d.reshape(-1, f.dim)))


def wick_exp(f: ExpCombo, g: ExpCombo) -> ExpCombo:
    """Wick product: E(h) diamond E(k) = E(h+k), extended bilinearly."""
    return _product_exp(f, g, 0.0)


def pointwise_exp(f: ExpCombo, g: ExpCombo) -> ExpCombo:
    """Ordinary product: E(h)E(k) = e^{<h,k>} E(h+k)."""
    return _product_exp(f, g, 1.0)


def alpha_exp(f: ExpCombo, g: ExpCombo, alpha: float) -> ExpCombo:
    """Interpolating product: E(h) o_a E(k) = e^{a<h,k>} E(h+k).

    alpha=1 is the ordinary product; alpha=0 extends continuously to the
    Wick product and is computed by the same formula (e^0 = 1).
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    return _product_exp(f, g, float(alpha))


def gamma_exp(lam: float, f: ExpCombo) -> ExpCombo:
    """Second quantization on exponentials: Gamma(lam) E(h) = E(lam h)."""
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    return ExpCombo(f.dim, zip(f.weights, float(lam) * f.directions))


def gradient_exp(f: ExpCombo) -> list[ExpCombo]:
    """Coordinate partials: d_k E(h) = h_k E(h)."""
    return [
        ExpCombo(f.dim, zip(f.weights * f.directions[:, k], f.directions))
        for k in range(f.dim)
    ]


def mu_inner_exp(f: ExpCombo, g: ExpCombo) -> float:
    """Gaussian inner product: int E(h)E(k) dmu = e^{<h,k>}, bilinearly."""
    _check_dims(f, g)
    if f.n_terms == 0 or g.n_terms == 0:
        return 0.0
    return float(f.weights @ np.exp(f.directions @ g.directions.T) @ g.weights)


def to_chaos(f: ExpCombo, max_degree: int) -> ChaosExpansion:
    """Truncated chaos expansion: c_m = sum_j w_j h_j^m / m! for |m| <= cap.

    The L2 size of what the truncation discards is bounded by
    ``to_chaos_tail_bound`` with the same arguments.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    coeffs = {}
    for m in multi_indices(f.dim, max_degree):
        if f.n_terms:
            powers = np.prod(f.directions ** np.asarray(m), axis=1)
            c = float(f.weights @ powers) / MultiIndex(m).factorial()
        else:
            c = 0.0
        coeffs[m] = c
    return ChaosExpansion(f.dim, coeffs)


def to_chaos_tail_bound(f: ExpCombo, max_degree: int) -> float:
    """Triangle-inequality bound on the L2 norm dropped by to_chaos.

    ||E(h) - trunc||_2^2 = sum_{t > cap} |h|^{2t}/t!, so the bound is
    sum_j |w_j| sqrt(tail_j).
    """
    total = 0.0
    for w, d in zip(f.weights, f.directions):
        x = float(np.dot(d, d))
        total += abs(w) * math.sqrt(_exp_series_tail(x, max_degree))
    return total


def _exp_series_tail(x: float, cap: int) -> float:
    # sum_{t>cap} x^t/t!, summed forward; terms decay once t > x
    if x == 0.0:
        return 0.0
    term = x ** (cap + 1) / math.factorial(cap + 1)
    total = 0.0
    t = cap + 1
    while term > total * 1e-17 + 1e-320:
        total += term
        t += 1
        term *= x / t
    return total
