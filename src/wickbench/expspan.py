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

from .chaos import (
    COEFF_EPS,
    ChaosExpansion,
    _as_points,
    canonical_rows,
    check_alpha,
    check_dims,
    check_real,
    fill,
    finite_array,
    index_factorial,
    json_stacks,
    multi_indices,
    per_shape,
    split_rows,
)


class ExpCombo:
    """Finite combination sum_j weight_j * E(h_j), kept in canonical form.

    ``terms`` is any iterable of (weight, direction) pairs.  Construction
    brings them to the form of ``canonical_rows`` (directions in one
    MERGE_TOL cell merged, terms ordered), removes weights below
    COEFF_EPS and stores a zero coordinate as +0.0, so value equality of
    two combos is equality of their stored arrays.
    """

    __slots__ = ("dim", "weights", "directions")

    def __init__(self, dim: int, terms=()):
        dim = operator.index(dim)
        if dim < 0:
            raise ValueError("dimension must be >= 0")
        terms = list(terms)
        w = finite_array([c for c, _ in terms], "coefficients")
        d = finite_array([h for _, h in terms], "directions").reshape(len(terms), -1 if terms else dim)
        if d.shape[1] != dim:
            raise ValueError(f"directions have length {d.shape[1]}, expected {dim}")
        ((w, d),) = _canonical_terms(w[None], d[None])
        fill(self, dim=dim, weights=w, directions=d)

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
        check_dims(self, other)
        w = np.concatenate([self.weights, other.weights])
        d = np.concatenate([self.directions, other.directions])
        return exp_combos(self.dim, w[None], d[None])[0]

    def __sub__(self, other: "ExpCombo") -> "ExpCombo":
        return self + (-1.0) * other

    def __mul__(self, scalar: float) -> "ExpCombo":
        # a finite scalar can still overflow a weight: the product is checked too
        with np.errstate(over="ignore"):
            w = finite_array(finite_array(scalar, "coefficients") * self.weights, "coefficients")
        return exp_combos(self.dim, w[None], self.directions[None])[0]

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
            "kind": "exp",
            "dim": self.dim,
            "terms": [{"coef": w, "h": d} for w, d in zip(self.weights.tolist(), self.directions.tolist())],
        }

    def __repr__(self):
        return f"ExpCombo(dim={self.dim}, terms={self.n_terms})"


def _canonical_terms(weights: np.ndarray, directions: np.ndarray):
    # per task (weights, directions) of the canonical form, COEFF_EPS dropped
    rows, w, keep = canonical_rows(directions, weights)
    keep &= np.abs(w) >= COEFF_EPS
    return split_rows(rows, w, keep)


def exp_combos(dim: int, weights: np.ndarray, directions: np.ndarray) -> list[ExpCombo]:
    """The canonical ExpCombo of each of T stacked term sets, weights
    (T, k) and directions (T, k, dim), by one canonical_rows call."""
    return [fill(object.__new__(ExpCombo), dim=dim, weights=w, directions=d)
            for w, d in _canonical_terms(weights, directions)]


def _build_exps(dim: int, datas) -> list[ExpCombo]:
    coefs = finite_array([[t["coef"] for t in d["terms"]] for d in datas], "coefficients")
    dirs = finite_array([[t["h"] for t in d["terms"]] for d in datas], "directions")
    if dirs.size == 0:
        dirs = dirs.reshape(*coefs.shape, dim)
    if dirs.shape != (*coefs.shape, dim):
        raise ValueError(f"directions have shape {dirs.shape[1:]}, expected {(coefs.shape[1], dim)}")
    return exp_combos(dim, coefs, dirs)


def exps_from_json(datas) -> list[ExpCombo]:
    """The ExpCombo of each JSON function, parsed, checked and brought to
    canonical form as one stack per JSON shape (json_stacks)."""
    return json_stacks(_build_exps, datas, "exp", "terms")


def exp_eval(f: ExpCombo, w):
    """Evaluate at a point (n,) or batch (N, n) of points."""
    pts, batch = _as_points(w, f.dim)
    # one (N, k) temporary, exponentiated in place: at Monte Carlo sizes
    # each fresh array of that size costs page faults
    z = pts @ f.directions.T
    z -= 0.5 * np.sum(f.directions**2, axis=1)
    vals = np.exp(z, out=z) @ f.weights
    return vals if batch else float(vals[0])


def _stack(values, attr: str, idx) -> np.ndarray:
    return np.array([getattr(values[i], attr) for i in idx])


def products_exp(fs, gs, scales) -> list[ExpCombo]:
    """f_t o g_t per task: weights w_j v_k e^{scale_t <h_j,k_k>} and
    directions h_j + k_k, each shape of (f, g) as one stack;
    OverflowError if a product term is not finite."""
    for f, g in zip(fs, gs):
        check_dims(f, g)

    def run(idx):
        fw, fd = _stack(fs, "weights", idx), _stack(fs, "directions", idx)
        # f o f stacks f once, so <h_j, h_k> takes the route it takes unstacked
        same = fs[idx[0]] is gs[idx[0]]
        gw, gd = (fw, fd) if same else (_stack(gs, "weights", idx), _stack(gs, "directions", idx))
        scale = np.array([float(scales[i]) for i in idx])[:, None, None]
        with np.errstate(over="ignore", invalid="ignore"):
            w = fw[:, :, None] * gw[:, None, :] * np.exp(scale * (fd @ gd.transpose(0, 2, 1)))
            d = fd[:, :, None, :] + gd[:, None, :, :]
        if not (np.isfinite(w).all() and np.isfinite(d).all()):
            raise OverflowError("exponential product overflows: a weight or direction is not finite")
        dim = fd.shape[2]
        return exp_combos(dim, w.reshape(len(idx), -1), d.reshape(len(idx), -1, dim))

    return per_shape([(f.n_terms, g.n_terms, f.dim, f is g) for f, g in zip(fs, gs)], run)


def wick_exp(f: ExpCombo, g: ExpCombo) -> ExpCombo:
    """Wick product: E(h) diamond E(k) = E(h+k), extended bilinearly."""
    return products_exp([f], [g], [0.0])[0]


def pointwise_exp(f: ExpCombo, g: ExpCombo) -> ExpCombo:
    """Ordinary product: E(h)E(k) = e^{<h,k>} E(h+k)."""
    return products_exp([f], [g], [1.0])[0]


def alpha_exp(f: ExpCombo, g: ExpCombo, alpha: float) -> ExpCombo:
    """Interpolating product: E(h) o_a E(k) = e^{a<h,k>} E(h+k).

    alpha=1 is the ordinary product; alpha=0 extends continuously to the
    Wick product and is computed by the same formula (e^0 = 1).
    """
    check_alpha(alpha)
    return products_exp([f], [g], [float(alpha)])[0]


def gammas_exp(lams, fs) -> list[ExpCombo]:
    """Second quantization on exponentials, Gamma(lam) E(h) = E(lam h),
    as Gamma(lam_t) f_t per task; each shape as one stack."""
    for lam in lams:
        check_real(lam, "lambda", 0)

    def run(idx):
        lam = np.array([float(lams[i]) for i in idx])[:, None, None]
        return exp_combos(fs[idx[0]].dim, _stack(fs, "weights", idx), lam * _stack(fs, "directions", idx))

    return per_shape([(f.n_terms, f.dim) for f in fs], run)


def mu_inner_exp(f: ExpCombo, g: ExpCombo) -> float:
    """Gaussian inner product: int E(h)E(k) dmu = e^{<h,k>}, bilinearly."""
    check_dims(f, g)
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
        powers = np.prod(f.directions ** np.asarray(m), axis=1)
        coeffs[m] = float(f.weights @ powers) / index_factorial(m)
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
    term = x ** (cap + 1) / math.factorial(cap + 1)
    total = 0.0
    t = cap + 1
    while term > total * 1e-17 + 1e-320:
        total += term
        t += 1
        term *= x / t
    return total
