"""Discrete measures nu, Gaussian convolutions rho = mu * nu, and their calculus.

For finitely supported nu = sum_i p_i delta_{y_i} every quantity the
checks need has a closed form:

    density           xi(w) = drho/dmu = sum_i p_i E(y_i)
    exponential mean  int E(h) drho = sum_i p_i e^{<y_i,h>}
    polynomial mean   int H_m drho = sum_i p_i y_i^m
    regularity        ||xi||^2_{G_lam} = sum_ij p_i p_j e^{lam^2 <y_i,y_j>}

The characteristic Gram matrix G_jk = sum_i p_i e^{i<y_i, h_j - h_k>} is
Hermitian positive semidefinite for any probability measure; its minimum
eigenvalue is the PSD certificate checked by the harness.
"""

from __future__ import annotations

import math
import operator
import warnings

import numpy as np

from .chaos import ChaosExpansion
from .expspan import ExpCombo, canonical_rows, gamma_exp, wick_exp
from .report import InequalityReport

WEIGHT_SUM_TOL = 1e-12


class DiscreteMeasure:
    """Probability measure with finitely many atoms on R^n.

    Atoms are merged (coordinatewise within 1e-12) and sorted at
    construction, so equal measures have equal stored arrays.
    """

    __slots__ = ("dim", "atoms", "weights")

    def __init__(self, dim: int, atoms, weights):
        dim = operator.index(dim)
        atoms = np.atleast_2d(np.asarray(atoms, dtype=float))
        weights = np.asarray(weights, dtype=float).ravel()
        if atoms.shape[0] != weights.size:
            raise ValueError("number of atoms and weights differ")
        if atoms.shape[1] != dim:
            raise ValueError(f"atom dimension {atoms.shape[1]} does not match n={dim}")
        if np.any(weights < 0):
            raise ValueError("weights must be nonnegative")
        if abs(weights.sum() - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights must sum to 1, got {weights.sum()!r}")
        ys, ps = canonical_rows(dim, zip(map(tuple, atoms.tolist()), weights.tolist()))
        a = np.array(ys, dtype=float).reshape(len(ys), dim)
        w = np.array(ps, dtype=float)
        a.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "atoms", a)
        object.__setattr__(self, "weights", w)

    def __setattr__(self, name, value):
        raise AttributeError("DiscreteMeasure is immutable")

    @classmethod
    def dirac(cls, y) -> "DiscreteMeasure":
        y = np.atleast_1d(np.asarray(y, dtype=float))
        return cls(y.size, y[None, :], [1.0])

    @classmethod
    def from_samples(cls, points) -> "DiscreteMeasure":
        """Empirical measure with uniform weights, one atom per sample row."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        count = pts.shape[0]
        return cls(pts.shape[1], pts, np.full(count, 1.0 / count))

    @property
    def n_atoms(self) -> int:
        return len(self.weights)

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "atoms": [[float(v) for v in y] for y in self.atoms],
            "weights": [float(p) for p in self.weights],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "DiscreteMeasure":
        return cls(int(data["dim"]), data["atoms"], data["weights"])

    def __repr__(self):
        return f"DiscreteMeasure(dim={self.dim}, atoms={self.n_atoms})"


class ConvolutionMeasure:
    """rho = mu * nu: the standard Gaussian convolved with a discrete nu."""

    __slots__ = ("nu",)

    def __init__(self, nu: DiscreteMeasure):
        object.__setattr__(self, "nu", nu)

    def __setattr__(self, name, value):
        raise AttributeError("ConvolutionMeasure is immutable")

    @classmethod
    def standard(cls, dim: int) -> "ConvolutionMeasure":
        """Plain mu (nu = delta_0)."""
        return cls(DiscreteMeasure.dirac(np.zeros(dim)))

    @property
    def dim(self) -> int:
        return self.nu.dim

    def __repr__(self):
        return f"ConvolutionMeasure(nu={self.nu!r})"


def density_xi(rho: ConvolutionMeasure) -> ExpCombo:
    """Density of rho against mu: xi = sum_i p_i E(y_i), strictly positive."""
    return ExpCombo(rho.dim, zip(rho.nu.weights, rho.nu.atoms))


def gamma_xi(rho: ConvolutionMeasure, alpha: float) -> ExpCombo:
    """Gamma(1/sqrt(alpha)) applied to the density: directions y_i/sqrt(alpha)."""
    if alpha <= 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    return gamma_exp(1.0 / math.sqrt(alpha), density_xi(rho))


def g_lambda_norm(rho: ConvolutionMeasure, lam: float) -> tuple[float, float]:
    """Squared G_lambda norm of the density and its one-sided bound.

    Returns (norm_sq, bound) with

        norm_sq = sum_ij p_i p_j e^{lam^2 <y_i, y_j>}
        bound   = sum_i p_i e^{lam^2 |y_i|^2 / 2}

    and sqrt(norm_sq) <= bound by the triangle inequality in G_lambda
    (equality for a single atom, so no hard assertion is made here; the
    harness checks it with a tolerance).
    """
    if lam < 1:
        warnings.warn(f"lambda = {lam} < 1: outside the regularity scale of interest", stacklevel=2)
    y = rho.nu.atoms
    p = rho.nu.weights
    lam2 = float(lam) ** 2
    norm_sq = float(p @ np.exp(lam2 * (y @ y.T)) @ p)
    bound = float(p @ np.exp(0.5 * lam2 * np.sum(y**2, axis=1)))
    return norm_sq, bound


def rho_integral_exp(f: ExpCombo, rho: ConvolutionMeasure) -> float:
    """int f drho = sum_j w_j sum_i p_i e^{<y_i, h_j>}, exactly."""
    if f.dim != rho.dim:
        raise ValueError(f"dimension mismatch: {f.dim} vs {rho.dim}")
    if f.n_terms == 0:
        return 0.0
    return float(f.weights @ np.exp(f.directions @ rho.nu.atoms.T) @ rho.nu.weights)


def rho_integral_chaos(f: ChaosExpansion, rho: ConvolutionMeasure) -> float:
    """int f drho = sum_m c_m sum_i p_i y_i^m.

    Uses the shift identity: the mu-mean of H_m(w + y) is y^m.
    """
    if f.dim != rho.dim:
        raise ValueError(f"dimension mismatch: {f.dim} vs {rho.dim}")
    y = rho.nu.atoms
    p = rho.nu.weights
    total = 0.0
    for m, c in f.coeffs.items():
        total += c * float(p @ np.prod(y ** np.asarray(m.exponents), axis=1))
    return total


def char_gram(nu: DiscreteMeasure, hs) -> np.ndarray:
    """Characteristic Gram G_jk = sum_i p_i e^{i <y_i, h_j - h_k>}.

    PSD for any probability measure: it is the nu-Gram of the functions
    w -> e^{i<w, h_j>}.
    """
    h = np.atleast_2d(np.asarray(hs, dtype=float))
    if h.shape[1] != nu.dim:
        raise ValueError(f"vector dimension {h.shape[1]} does not match n={nu.dim}")
    phases = np.exp(1j * (nu.atoms @ h.T))
    return phases.T @ (nu.weights[:, None] * phases.conj())


def convolve_nu(nu1: DiscreteMeasure, nu2: DiscreteMeasure) -> DiscreteMeasure:
    """nu1 * nu2: atoms y_i + z_j, weights p_i q_j, merged."""
    if nu1.dim != nu2.dim:
        raise ValueError(f"dimension mismatch: {nu1.dim} vs {nu2.dim}")
    atoms = (nu1.atoms[:, None, :] + nu2.atoms[None, :, :]).reshape(-1, nu1.dim)
    weights = np.outer(nu1.weights, nu2.weights).ravel()
    return DiscreteMeasure(nu1.dim, atoms, weights)


def wick_density_identity_check(nu1: DiscreteMeasure, nu2: DiscreteMeasure,
                                tolerance: float = 1e-12) -> InequalityReport:
    """Certify that xi1 wick xi2 is the density of mu * (nu1 * nu2).

    Both sides are canonical ExpCombos; the mismatch is the largest
    deviation in term count, directions, or weights.
    """
    lhs = density_xi(ConvolutionMeasure(convolve_nu(nu1, nu2)))
    rhs = wick_exp(density_xi(ConvolutionMeasure(nu1)), density_xi(ConvolutionMeasure(nu2)))
    if lhs.n_terms != rhs.n_terms:
        mismatch = float("inf")
    elif lhs.n_terms == 0:
        mismatch = 0.0
    else:
        mismatch = max(
            float(np.max(np.abs(lhs.directions - rhs.directions))),
            float(np.max(np.abs(lhs.weights - rhs.weights))),
        )
    params = {"nu1": nu1.to_json_dict(), "nu2": nu2.to_json_dict()}
    return InequalityReport.from_mismatch("wick_density_identity", params, mismatch, tolerance)


def sample_rho(rho: ConvolutionMeasure, rng_seed, count: int) -> np.ndarray:
    """Draw count points w = g + y with g ~ mu and y ~ nu; deterministic in the seed."""
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(rng_seed)
    gauss = rng.standard_normal((count, rho.dim))
    idx = rng.choice(rho.nu.n_atoms, size=count, p=rho.nu.weights)
    return gauss + rho.nu.atoms[idx]
