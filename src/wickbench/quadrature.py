"""Independent numerical oracles: tensor Gauss-Hermite quadrature against
the standard Gaussian, quadrature and Monte Carlo against convolution
measures rho = mu * nu (given by the discrete nu), and Lp norms.

Everything here evaluates functions at points; nothing reads chaos or
exponential coefficients.  That independence is what makes these routines
usable as cross-checks for the closed-form paths.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .chaos import check_real
from .expspan import ExpCombo, mu_inner_exp, pointwise_exp
from .measures import MC_BLOCK, DiscreteMeasure, sample_rho

NODE_COUNT_WARN = 1_000_000


@dataclass(frozen=True)
class QuadratureGrid:
    """Tensor product rule: nodes (order^n, n), positive weights summing to 1."""

    dim: int
    order: int
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if self.nodes.shape != (self.order**self.dim, self.dim):
            raise ValueError("node array shape does not match order^n x n")
        if np.any(self.weights <= 0):
            raise ValueError("weights must be positive (high-order tensor weights can underflow to 0)")
        if abs(self.weights.sum() - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)


@functools.lru_cache(maxsize=64)
def _hermite_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """One-axis Gauss-Hermite nodes and probability weights, read-only."""
    x, w = np.polynomial.hermite_e.hermegauss(order)
    w = w / w.sum()
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def gauss_hermite_grid(n: int, order: int) -> QuadratureGrid:
    """Gauss-Hermite rule for the standard normal weight, tensorized to R^n.

    Exact for polynomial integrands of per-axis degree <= 2*order - 1.
    Grids of at most NODE_COUNT_WARN nodes are built once per (n, order)
    and shared, as their arrays are read-only; a larger one is built, with
    a warning, on every call.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if order < 1:
        raise ValueError("order must be >= 1")
    if order**n > NODE_COUNT_WARN:
        warnings.warn(f"grid has {order**n} nodes; consider Monte Carlo instead", stacklevel=2)
        return _tensor_grid.__wrapped__(n, order)
    return _tensor_grid(n, order)


@functools.lru_cache(maxsize=16)
def _tensor_grid(n: int, order: int) -> QuadratureGrid:
    x, w = _hermite_rule(order)
    meshes = np.meshgrid(*([x] * n), indexing="ij")
    nodes = np.stack([m.ravel() for m in meshes], axis=1)
    weights = w
    for _ in range(n - 1):
        weights = np.outer(weights, w).ravel()
    return QuadratureGrid(n, order, nodes, weights)


def tensor_weights_positive(n: int, order: int) -> bool:
    """Whether every weight of the order^n tensor rule is positive, so that
    gauss_hermite_grid(n, order) builds: its least weight, the 1-D rule's
    least multiplied in n times as _tensor_grid does, does not underflow."""
    least = weight = float(_hermite_rule(order)[1].min())
    for _ in range(n - 1):
        weight *= least
    return weight > 0.0


def default_order(n: int) -> int:
    """Per-axis starting order of tensor quadrature: 30 in n <= 2, 12 in
    n = 3.  The one rule for which dimensions tensor quadrature serves:
    ValueError for n > 3, where a grid of useful order is too large."""
    if n > 3:
        raise ValueError(f"tensor quadrature is limited to n <= 3, got n={n}; use Monte Carlo")
    return 30 if n <= 2 else 12


def default_grid(n: int) -> QuadratureGrid:
    return gauss_hermite_grid(n, default_order(n))


def _eval_at(fn, pts: np.ndarray, rows: bool = False) -> np.ndarray:
    """fn on an (N, n) array of points: shape (N,), or with rows also (m, N),
    one row per integrand.  ValueError naming any other shape."""
    vals = np.asarray(fn(pts), dtype=float)
    count = pts.shape[0]
    if vals.shape != (count,) and not (rows and vals.ndim == 2 and vals.shape[1] == count):
        expected = f"({count},) or (m, {count})" if rows else f"({count},)"
        raise ValueError(f"point function returned shape {vals.shape}, expected {expected}")
    return vals


def lp_norm_mu(fn, p: float, grid: QuadratureGrid) -> float:
    """(int |fn|^p dmu)^(1/p) by quadrature; p >= 1."""
    check_real(p, "p", 1)
    vals = np.abs(_eval_at(fn, grid.nodes))
    return float((vals**p @ grid.weights) ** (1.0 / p))


def integrate_rho(fn, nu: DiscreteMeasure, grid: QuadratureGrid):
    """int fn d(mu * nu) = sum_i p_i int fn(w + y_i) dmu(w), each term by quadrature.

    fn maps the (N, n) nodes to N values, or to an (m, N) array, one row
    per integrand, all read from the one evaluation per atom; the integral
    is then an (m,) array.
    """
    total = 0.0
    for y, p in zip(nu.atoms, nu.weights):
        total += p * (_eval_at(fn, grid.nodes + y, rows=True) @ grid.weights)
    return float(total) if np.ndim(total) == 0 else total


def mc_integral_rho(fn, nu: DiscreteMeasure, seed, count: int):
    """Monte Carlo mean of fn under rho = mu * nu: (estimate, standard error).

    fn maps (N, n) points to N values, or to an (m, N) array, one row per
    integrand, all read from the one draw of sample_rho; the estimate and
    standard error are then (m,) arrays.  fn is evaluated on consecutive
    blocks of MC_BLOCK points of the sample, written into one (m, count)
    array, so its temporaries are one block's size.  Each row is then
    summed whole and contiguously (numpy's pairwise summation): where fn's
    value at a point does not depend on the other points, the estimate and
    standard error are bit for bit mean() and std(ddof=1) / sqrt(count) of
    one evaluation on the whole sample.
    """
    if count < 2:
        raise ValueError("count must be >= 2")
    pts = sample_rho(nu, seed, count)
    first = _eval_at(fn, pts[:MC_BLOCK], rows=True)
    vals = np.empty((*first.shape[:-1], count))
    vals[..., :MC_BLOCK] = first
    for start in range(MC_BLOCK, count, MC_BLOCK):
        vals[..., start:start + MC_BLOCK] = _eval_at(fn, pts[start:start + MC_BLOCK], rows=True)
    # std(ddof=1) as numpy computes it, with the deviations squared in place
    mean = vals.mean(axis=-1, keepdims=True)
    vals -= mean
    vals *= vals
    est, se = mean[..., 0], np.sqrt(vals.sum(axis=-1) / (count - 1)) / math.sqrt(count)
    return (float(est), float(se)) if vals.ndim == 1 else (est, se)


def lp_norm_exp(f: ExpCombo, p: float) -> tuple[float, str]:
    """Lp(mu) norm of an exponential combination: (value, method tag).

    Exact routes: a single term has norm |w| e^{(p-1)|h|^2/2} for any p;
    p = 2 is a Gaussian inner product; even integer p expands the power.
    Anything else takes quadrature on the default grid, at the fixed
    default_order, which raises ValueError for n > 3.  The one-term closed
    form raises OverflowError past float range.
    """
    check_real(p, "p", 1)
    if f.n_terms > 1 and not (float(p).is_integer() and int(p) % 2 == 0):
        return lp_norm_mu(f.eval, p, default_grid(f.dim)), "quadrature"
    if f.n_terms == 0:
        return 0.0, "exact"
    if f.n_terms == 1:
        w = float(f.weights[0])
        h_sq = float(np.dot(f.directions[0], f.directions[0]))
        return abs(w) * math.exp(0.5 * (p - 1.0) * h_sq), "exact"
    if p == 2:
        return math.sqrt(mu_inner_exp(f, f)), "exact"
    # |f|^p = (f^{p/2})^2 since p/2 is a whole power
    half = int(p) // 2
    power = f
    for _ in range(half - 1):
        power = pointwise_exp(power, f)
    return mu_inner_exp(power, power) ** (1.0 / p), "exact"
