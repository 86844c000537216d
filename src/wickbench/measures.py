"""Discrete measures nu, Gaussian convolutions rho = mu * nu, and their calculus.

nu determines rho, so every function here that integrates against rho
takes nu itself.  For finitely supported nu = sum_i p_i delta_{y_i}
every quantity the checks need has a closed form:

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

from .chaos import (
    ChaosExpansion,
    canonical_rows,
    check_alpha,
    check_dims,
    fill,
    finite_array,
    is_real,
    json_stacks,
    per_shape,
    split_rows,
)
from .expspan import ExpCombo, _stack, exp_combos, gammas_exp

WEIGHT_SUM_TOL = 1e-12
# points per block of a sample that sample_rho and mc_integral_rho work on:
# a block's few float64 rows stay under glibc's 128 KiB mmap threshold, so
# they reuse heap memory instead of faulting in new pages
MC_BLOCK = 2048


def _canonical_measures(dim: int, atoms: np.ndarray, weights: np.ndarray):
    """Per task (weights, atoms) of T stacked measures, atoms (T, a, n) and
    weights (T, a): checked, then in the canonical form of canonical_rows."""
    if not np.isfinite(atoms).all():
        raise ValueError("atoms must be finite numbers")
    if not np.isfinite(weights).all():
        raise ValueError("weights must be finite numbers")
    if atoms.shape[:2] != weights.shape:
        raise ValueError("number of atoms and weights differ")
    if atoms.shape[2] != dim:
        raise ValueError(f"atom dimension {atoms.shape[2]} does not match n={dim}")
    if np.any(weights < 0):
        raise ValueError("weights must be nonnegative")
    sums = weights.sum(axis=1)
    off = np.abs(sums - 1.0) > WEIGHT_SUM_TOL
    if off.any():
        raise ValueError(f"weights must sum to 1, got {float(sums[off.argmax()])!r}")
    return split_rows(*canonical_rows(atoms, weights))


class DiscreteMeasure:
    """Probability measure with finitely many atoms on R^n.

    Atoms and weights must be finite numbers.  Atoms are brought to the
    form of ``canonical_rows`` at construction (atoms in one MERGE_TOL
    cell merged, sorted), and a zero coordinate is stored as +0.0, so
    equal measures have equal stored arrays whatever the order of the
    input.
    """

    __slots__ = ("dim", "atoms", "weights")

    def __init__(self, dim: int, atoms, weights):
        dim = operator.index(dim)
        atoms = np.atleast_2d(np.asarray(atoms, dtype=float))
        weights = np.asarray(weights, dtype=float).ravel()
        ((w, a),) = _canonical_measures(dim, atoms[None], weights[None])
        fill(self, dim=dim, atoms=a, weights=w)

    def __setattr__(self, name, value):
        raise AttributeError("DiscreteMeasure is immutable")

    @property
    def n_atoms(self) -> int:
        return len(self.weights)

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "atoms": self.atoms.tolist(),
            "weights": self.weights.tolist(),
        }

    def __repr__(self):
        return f"DiscreteMeasure(dim={self.dim}, atoms={self.n_atoms})"


def discrete_measures(dim: int, atoms: np.ndarray, weights: np.ndarray) -> list[DiscreteMeasure]:
    """The DiscreteMeasure of each of T stacked atom sets, atoms (T, a, dim)
    and weights (T, a), checked and canonical by one canonical_rows call."""
    return [fill(object.__new__(DiscreteMeasure), dim=dim, atoms=a, weights=w)
            for w, a in _canonical_measures(dim, atoms, weights)]


def _build_measures(dim: int, datas) -> list[DiscreteMeasure]:
    atoms = np.array([d["atoms"] for d in datas], dtype=float)
    if atoms.ndim != 3:
        raise ValueError("atoms must be a list of points")
    return discrete_measures(dim, atoms, np.array([d["weights"] for d in datas], dtype=float))


def measures_from_json(datas) -> list[DiscreteMeasure]:
    """The DiscreteMeasure of each JSON measure, parsed, checked and brought
    to canonical form as one stack per JSON shape (json_stacks)."""
    return json_stacks(_build_measures, datas, None, "atoms", "weights")


def densities_xi(nus) -> list[ExpCombo]:
    """Density of mu * nu against mu for each nu: xi = sum_i p_i E(y_i),
    strictly positive; each shape as one stack."""
    def run(idx):
        return exp_combos(nus[idx[0]].dim, _stack(nus, "weights", idx), _stack(nus, "atoms", idx))

    return per_shape([(nu.n_atoms, nu.dim) for nu in nus], run)


def gammas_xi(nus, alphas) -> list[ExpCombo]:
    """Gamma(1/sqrt(alpha)) applied to the density of each (nu, alpha),
    alpha in (0, 1]: directions y_i/sqrt(alpha), each shape as one stack."""
    for alpha in alphas:
        check_alpha(alpha)
        if alpha <= 0:
            raise ValueError(f"alpha must be > 0, got {alpha!r}")
    return gammas_exp([1.0 / math.sqrt(alpha) for alpha in alphas], densities_xi(nus))


def g_lambda_norms(nus, lams) -> list[tuple[float, float]]:
    """Squared G_lambda norm of the density of mu * nu and its one-sided
    bound, (norm_sq, bound), for each (nu, lambda):

        norm_sq = sum_ij p_i p_j e^{lam^2 <y_i, y_j>}
        bound   = sum_i p_i e^{lam^2 |y_i|^2 / 2}

    sqrt(norm_sq) <= bound by the triangle inequality in G_lambda
    (equality for a single atom, so no hard assertion is made here; the
    harness checks it with a tolerance).  Each shape of nu is one stack,
    and only the last sums run per task.  lambda <= 0 is refused (the sums
    read lambda^2 only); lambda in (0, 1) runs, with a UserWarning.
    """
    for lam in lams:
        if not is_real(lam) or not math.isfinite(lam):
            raise ValueError(f"lambda must be finite (a number, not a bool), got {lam!r}")
        if lam <= 0:
            raise ValueError(f"lambda must be > 0, got {lam!r}")
        if lam < 1:
            warnings.warn(f"lambda = {lam} < 1: outside the regularity scale of interest", stacklevel=2)

    def run(idx):
        y, p = _stack(nus, "atoms", idx), _stack(nus, "weights", idx)
        lam2 = np.array([float(lams[i]) ** 2 for i in idx])
        grams = np.exp(lam2[:, None, None] * (y @ y.transpose(0, 2, 1)))
        tails = np.exp((0.5 * lam2)[:, None] * np.sum(y**2, axis=2))
        return [(float(pt @ g @ pt), float(pt @ e)) for pt, g, e in zip(p, grams, tails)]

    return per_shape([(nu.n_atoms, nu.dim) for nu in nus], run)


def rho_integral_exp(f: ExpCombo, nu: DiscreteMeasure) -> float:
    """int f drho, rho = mu * nu: sum_j w_j sum_i p_i e^{<y_i, h_j>}, exactly."""
    check_dims(f, nu)
    return float(f.weights @ np.exp(f.directions @ nu.atoms.T) @ nu.weights)


def rho_integral_chaos(f: ChaosExpansion, nu: DiscreteMeasure) -> float:
    """int f drho, rho = mu * nu: sum_m c_m sum_i p_i y_i^m.

    Uses the shift identity: the mu-mean of H_m(w + y) is y^m.
    """
    check_dims(f, nu)
    y = nu.atoms
    p = nu.weights
    total = 0.0
    for m, c in f.coeffs.items():
        total += c * float(p @ np.prod(y ** np.asarray(m), axis=1))
    return total


def _build_vectors(dim: int, hss) -> list[np.ndarray]:
    h = finite_array(hss, "hs")
    if h.shape[1:] == (0,):
        raise ValueError("hs must hold at least one vector")
    if h.ndim != 3:
        raise ValueError("hs must be a list of vectors")
    if h.shape[2] != dim:
        raise ValueError(f"vector dimension {h.shape[2]} does not match n={dim}")
    return list(h)


def vector_stacks(hss, dims) -> list[np.ndarray]:
    """Each hs as a (k, dim) array of finite numbers, ValueError otherwise;
    parsed and checked as one stack per shape, the same dim and number of
    vectors."""
    keys = [(dim, len(hs)) for hs, dim in zip(hss, dims)]
    return per_shape(keys, lambda idx: _build_vectors(keys[idx[0]][0], [hss[i] for i in idx]))


def char_gram(nu: DiscreteMeasure, hs) -> np.ndarray:
    """Characteristic Gram G_jk = sum_i p_i e^{i <y_i, h_j - h_k>}.

    PSD for any probability measure: it is the nu-Gram of the functions
    w -> e^{i<w, h_j>}.
    """
    return char_gram_stack(nu.atoms[None], nu.weights[None], vector_stacks([hs], [nu.dim])[0][None])[0]


def char_gram_stack(y: np.ndarray, p: np.ndarray, h: np.ndarray) -> np.ndarray:
    """char_gram of T stacked measures, atoms y (T, a, n) and weights p
    (T, a), and checked rows h (T, k, n): (T, k, k)."""
    phases = np.exp(1j * (y @ h.transpose(0, 2, 1)))
    return phases.transpose(0, 2, 1) @ (p[:, :, None] * phases.conj())


def convolutions(nu1s, nu2s) -> list[DiscreteMeasure]:
    """nu1 * nu2 per task: atoms y_i + z_j, weights p_i q_j, merged; each
    shape as one stack."""
    for nu1, nu2 in zip(nu1s, nu2s):
        check_dims(nu1, nu2)

    def run(idx):
        y1, y2 = _stack(nu1s, "atoms", idx), _stack(nu2s, "atoms", idx)
        p1, p2 = _stack(nu1s, "weights", idx), _stack(nu2s, "weights", idx)
        dim = y1.shape[2]
        atoms = (y1[:, :, None, :] + y2[:, None, :, :]).reshape(len(idx), -1, dim)
        return discrete_measures(dim, atoms, (p1[:, :, None] * p2[:, None, :]).reshape(len(idx), -1))

    return per_shape([(nu1.n_atoms, nu2.n_atoms, nu1.dim) for nu1, nu2 in zip(nu1s, nu2s)], run)


def sample_rho(nu: DiscreteMeasure, rng_seed, count: int) -> np.ndarray:
    """Draw count points w = g + y of mu * nu, g ~ mu and y ~ nu; deterministic in the seed.

    The generator draws rng.standard_normal((count, n)), then count
    uniforms u, the draw of rng.choice(n_atoms, count, p=weights): the atom
    of u is the number of entries of choice's cdf (weights.cumsum(), over
    its last entry, which u < 1 never reaches) that are <= u.  The uniforms
    are drawn and placed MC_BLOCK at a time, from the one stream, so the
    points are bit for bit those of that whole draw, and the count x n
    result is the only array the size of the sample.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(rng_seed)
    pts = rng.standard_normal((count, nu.dim))
    cdf = nu.weights.cumsum()
    cdf /= cdf[-1]
    for start in range(0, count, MC_BLOCK):
        u = rng.random(min(MC_BLOCK, count - start))
        pts[start:start + len(u)] += np.take(nu.atoms, cdf[:-1].searchsorted(u, side="right"), axis=0)
    return pts
