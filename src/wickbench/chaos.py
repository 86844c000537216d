"""Hermite chaos calculus on R^n with the standard Gaussian measure.

Functions are represented by finite expansions f = sum_m c_m H_m where m
ranges over multi-indices, plain tuples of ints >= 0, and
H_m(w) = prod_k He_{m_k}(w_k) is a tensor product of probabilists'
Hermite polynomials.  In this basis the Gaussian L2 geometry and the
usual operator calculus are exact finite sums:

    <f, g>_L2(mu)     = sum_m m! c_m d_m
    int |grad f|^2 dmu = sum_m |m| m! c_m^2
    Gamma(lam) f       = sum_m lam^{|m|} c_m H_m     (second quantization)
    P_tau              = Gamma(e^{-tau})             (Ornstein-Uhlenbeck)

This module also holds what every value type of the package shares: the
one canonical form (canonical_rows, used by ChaosExpansion, ExpCombo and
DiscreteMeasure) and the argument guards.  All values are immutable after
construction and every operation is pure, so they are safe to share
across threads.
"""

from __future__ import annotations

import math
import operator

import numpy as np

# Coefficients below this magnitude are dropped when an expansion is
# normalized.  This is a representation epsilon, not a check tolerance.
COEFF_EPS = 1e-15

# Two rows within this coordinatewise distance are treated as the same row
# when terms are merged.  Products add directions and never perturb them,
# so exact coincidence is the common case; integer indices never tie.
MERGE_TOL = 1e-12


def finite_array(values, what: str) -> np.ndarray:
    """values as a float array; ValueError on NaN or inf."""
    arr = np.asarray(values, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} must be finite numbers")
    return arr


def check_alpha(alpha):
    """ValueError unless alpha is an interpolation parameter in [0, 1]."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")


def check_dims(f, g):
    """ValueError unless the two values live on the same R^n."""
    if f.dim != g.dim:
        raise ValueError(f"dimension mismatch: {f.dim} vs {g.dim}")


def canonical_rows(dim, pairs):
    """Canonical (rows, weights) lists from (row tuple, float weight) pairs.

    The pairs are sorted, rows lexicographically and equal rows by weight,
    and a row within MERGE_TOL coordinatewise of the previous kept row
    (exactly equal rows included) is folded into it.  So the result
    depends on the multiset of pairs, not on their order, up to the
    near-ties of MERGE_TOL.  ExpCombo directions, DiscreteMeasure atoms
    and ChaosExpansion indices all take this form, so equal inputs give
    equal stored values.
    """
    rows: list[tuple] = []
    weights: list[float] = []
    for row, w in sorted(pairs):
        if len(row) != dim:
            raise ValueError(f"row {row} has length {len(row)}, expected {dim}")
        if rows and max((abs(a - b) for a, b in zip(row, rows[-1])), default=0.0) <= MERGE_TOL:
            weights[-1] += w
        else:
            rows.append(row)
            weights.append(w)
    return rows, weights


def multi_index(m) -> tuple:
    """m as a tuple of ints >= 0: a Hermite basis index, H_m = prod_k He_{m_k}."""
    m = tuple(map(operator.index, m))
    if any(e < 0 for e in m):
        raise ValueError(f"multi-index entries must be >= 0, got {m}")
    return m


def index_factorial(m) -> int:
    """m! = prod_k m_k! as an exact integer."""
    return math.prod(map(math.factorial, m))


def _he_table(max_degree: int, x: np.ndarray) -> np.ndarray:
    """He_j(x) for j = 0..max_degree via the three-term recurrence.

    He_0 = 1, He_1(x) = x, He_{j+1}(x) = x He_j(x) - j He_{j-1}(x).
    Returns an array of shape (max_degree + 1,) + x.shape.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty((max_degree + 1,) + x.shape)
    out[0] = 1.0
    if max_degree >= 1:
        out[1] = x
    for j in range(1, max_degree):
        out[j + 1] = x * out[j] - j * out[j - 1]
    return out


def _as_points(w, dim: int):
    """Coerce w to a (N, dim) array; returns (points, was_batch)."""
    w = np.asarray(w, dtype=float)
    if w.ndim == 1:
        pts, batch = w[None, :], False
    elif w.ndim == 2:
        pts, batch = w, True
    else:
        raise ValueError(f"points must be 1- or 2-dimensional, got shape {w.shape}")
    if pts.shape[1] != dim:
        raise ValueError(f"point dimension {pts.shape[1]} does not match n={dim}")
    return pts, batch


class ChaosExpansion:
    """Finite Hermite expansion: a sparse map multi-index -> coefficient.

    ``coeffs`` is a mapping or an iterable of (index, coefficient) pairs.
    Construction checks each index with ``multi_index``, brings the pairs
    to the canonical form of ``canonical_rows`` (equal indices summed,
    indices in lexicographic order, each of length ``dim``) and drops
    coefficients with |c| < COEFF_EPS.  So two expansions built from the
    same terms in any order have equal ``coeffs.items()`` lists.
    """

    __slots__ = ("dim", "coeffs")

    def __init__(self, dim: int, coeffs=()):
        dim = operator.index(dim)
        if dim < 0:
            raise ValueError("dimension must be >= 0")
        pairs = coeffs.items() if isinstance(coeffs, dict) else coeffs
        rows, cs = canonical_rows(dim, ((multi_index(m), float(c)) for m, c in pairs))
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "coeffs", {m: c for m, c in zip(rows, cs) if abs(c) >= COEFF_EPS})

    def __setattr__(self, name, value):
        raise AttributeError("ChaosExpansion is immutable")

    @classmethod
    def constant(cls, dim: int, value: float) -> "ChaosExpansion":
        return cls(dim, {(0,) * dim: value})

    @classmethod
    def basis(cls, exponents) -> "ChaosExpansion":
        """The basis element H_m itself."""
        m = multi_index(exponents)
        return cls(len(m), {m: 1.0})

    @property
    def degree(self) -> int:
        """Largest |m| carrying a nonzero coefficient (0 for the zero function)."""
        return max(map(sum, self.coeffs), default=0)

    def __add__(self, other: "ChaosExpansion") -> "ChaosExpansion":
        check_dims(self, other)
        return ChaosExpansion(self.dim, [*self.coeffs.items(), *other.coeffs.items()])

    def __sub__(self, other: "ChaosExpansion") -> "ChaosExpansion":
        return self + (-1.0) * other

    def __mul__(self, scalar: float) -> "ChaosExpansion":
        return ChaosExpansion(self.dim, {m: scalar * c for m, c in self.coeffs.items()})

    __rmul__ = __mul__

    def eval(self, w):
        return eval_chaos(self, w)

    def allclose(self, other: "ChaosExpansion", tol: float = 1e-12) -> bool:
        """Coefficientwise agreement within tol (absolute)."""
        if self.dim != other.dim:
            return False
        keys = set(self.coeffs) | set(other.coeffs)
        return all(
            abs(self.coeffs.get(m, 0.0) - other.coeffs.get(m, 0.0)) <= tol for m in keys
        )

    def to_json_dict(self) -> dict:
        terms = [
            {"m": list(m), "c": c}
            for m, c in sorted(self.coeffs.items(), key=lambda kv: (sum(kv[0]), kv[0]))
        ]
        return {"kind": "chaos", "dim": self.dim, "terms": terms}

    @classmethod
    def from_json_dict(cls, data: dict) -> "ChaosExpansion":
        terms = data["terms"]
        cs = finite_array([t["c"] for t in terms], "chaos coefficients")
        return cls(int(data["dim"]), zip((t["m"] for t in terms), cs.tolist()))

    def __repr__(self):
        return f"ChaosExpansion(dim={self.dim}, terms={len(self.coeffs)}, degree={self.degree})"


def hermite_eval(m, w) -> float | np.ndarray:
    """Evaluate the tensorized Hermite basis element H_m at point(s) w."""
    return eval_chaos(ChaosExpansion.basis(m), w)


def eval_chaos(f: ChaosExpansion, w) -> float | np.ndarray:
    """Evaluate f = sum_m c_m H_m at a single point (n,) or a batch (N, n)."""
    pts, batch = _as_points(w, f.dim)
    acc = np.zeros(pts.shape[0])
    if f.coeffs:
        axis_max = [0] * f.dim
        for m in f.coeffs:
            for k, mk in enumerate(m):
                axis_max[k] = max(axis_max[k], mk)
        tables = [_he_table(axis_max[k], pts[:, k]) for k in range(f.dim)]
        for m, c in f.coeffs.items():
            term = np.full(pts.shape[0], c)
            for k, mk in enumerate(m):
                if mk:
                    term = term * tables[k][mk]
            acc += term
    return acc if batch else float(acc[0])


def l2_inner(f: ChaosExpansion, g: ChaosExpansion) -> float:
    """Gaussian L2 inner product: sum_m m! c_m d_m."""
    check_dims(f, g)
    if len(g.coeffs) < len(f.coeffs):
        f, g = g, f
    return sum(index_factorial(m) * c * g.coeffs[m] for m, c in f.coeffs.items() if m in g.coeffs)


def l2_norm(f: ChaosExpansion) -> float:
    return math.sqrt(l2_inner(f, f))


def dirichlet_energy(f: ChaosExpansion) -> float:
    """Gradient energy int |grad f|^2 dmu = sum_m |m| m! c_m^2."""
    return sum(sum(m) * index_factorial(m) * c * c for m, c in f.coeffs.items())


def gradient(f: ChaosExpansion) -> list[ChaosExpansion]:
    """Coordinate partials: d_k H_m = m_k H_{m - e_k}."""
    parts = [[] for _ in range(f.dim)]
    for m, c in f.coeffs.items():
        for k, mk in enumerate(m):
            if mk:
                parts[k].append((m[:k] + (mk - 1,) + m[k + 1:], mk * c))
    return [ChaosExpansion(f.dim, p) for p in parts]


def multi_indices(dim: int, max_degree: int):
    """Yield all multi-index tuples of length dim with |m| <= max_degree.

    Ordered by total degree, then lexicographically; deterministic.
    """
    if dim == 0:
        yield ()
        return
    for total in range(max_degree + 1):
        yield from _compositions(total, dim)


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def gamma_apply(lam: float, f: ChaosExpansion) -> ChaosExpansion:
    """Second quantization: scale the degree-|m| coefficient by lam^{|m|}."""
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    lam = float(lam)
    return ChaosExpansion(f.dim, {m: lam ** sum(m) * c for m, c in f.coeffs.items()})


def ou_apply(tau: float, f: ChaosExpansion) -> ChaosExpansion:
    """Ornstein-Uhlenbeck semigroup P_tau = Gamma(e^{-tau}), tau >= 0."""
    if tau < 0:
        raise ValueError("tau must be >= 0")
    return gamma_apply(math.exp(-tau), f)


def number_apply(f: ChaosExpansion) -> ChaosExpansion:
    """Number operator: c_m -> |m| c_m; l2_inner(Nf, f) is the Dirichlet energy."""
    return ChaosExpansion(f.dim, {m: sum(m) * c for m, c in f.coeffs.items()})
