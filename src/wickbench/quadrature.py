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

from .expspan import ExpCombo, mu_inner_exp, pointwise_exp
from .measures import DiscreteMeasure, sample_rho

NODE_COUNT_WARN = 1_000_000
# largest dimension whose default tensor grid lp_norm_exp will build
QUADRATURE_MAX_DIM = 3


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
            raise ValueError("weights must be positive")
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


def default_order(n: int) -> int:
    """Per-axis order keeping node counts reasonable as n grows."""
    if n <= 2:
        return 30
    if n == 3:
        return 12
    warnings.warn(f"tensor quadrature in n={n} is impractical; prefer Monte Carlo", stacklevel=2)
    return 6


def default_grid(n: int) -> QuadratureGrid:
    return gauss_hermite_grid(n, default_order(n))


def _eval_at(fn, pts: np.ndarray) -> np.ndarray:
    """Evaluate a batch point function on an (N, n) array; it must return shape (N,)."""
    vals = np.asarray(fn(pts), dtype=float)
    if vals.shape != (pts.shape[0],):
        raise ValueError(f"point function returned shape {vals.shape}, expected ({pts.shape[0]},)")
    return vals


def lp_norm_mu(fn, p: float, grid: QuadratureGrid) -> float:
    """(int |fn|^p dmu)^(1/p) by quadrature; p >= 1."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    vals = np.abs(_eval_at(fn, grid.nodes))
    return float((vals**p @ grid.weights) ** (1.0 / p))


def integrate_rho(fn, nu: DiscreteMeasure, grid: QuadratureGrid) -> float:
    """int fn d(mu * nu) = sum_i p_i int fn(w + y_i) dmu(w), each term by quadrature."""
    total = 0.0
    for y, p in zip(nu.atoms, nu.weights):
        total += p * float(_eval_at(fn, grid.nodes + y) @ grid.weights)
    return total


def mc_integral_rho(fn, nu: DiscreteMeasure, seed, count: int) -> tuple[float, float]:
    """Monte Carlo mean of fn under rho = mu * nu: (estimate, standard error)."""
    if count < 2:
        raise ValueError("count must be >= 2")
    vals = _eval_at(fn, sample_rho(nu, seed, count))
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(count))


def lp_norm_exp(f: ExpCombo, p: float) -> tuple[float, str]:
    """Lp(mu) norm of an exponential combination: (value, method tag).

    Exact routes: a single term has norm |w| e^{(p-1)|h|^2/2} for any p;
    p = 2 is a Gaussian inner product; even integer p expands the power.
    Anything else takes quadrature, on the default grid only for
    n <= QUADRATURE_MAX_DIM; above that it raises ValueError.  The
    one-term closed form raises OverflowError past float range.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if f.n_terms > 1 and not (float(p).is_integer() and int(p) % 2 == 0):
        if f.dim > QUADRATURE_MAX_DIM:
            raise ValueError(f"no exact route and quadrature impractical for n > {QUADRATURE_MAX_DIM}; "
                             "use Monte Carlo")
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
