"""Hermite chaos calculus on R^n with the standard Gaussian measure.

Functions are represented by finite expansions f = sum_m c_m H_m where m
ranges over multi-indices and H_m(w) = prod_k He_{m_k}(w_k) is a tensor
product of probabilists' Hermite polynomials.  In this basis the Gaussian
L2 geometry and the usual operator calculus are exact finite sums:

    <f, g>_L2(mu)     = sum_m m! c_m d_m
    int |grad f|^2 dmu = sum_m |m| m! c_m^2
    Gamma(lam) f       = sum_m lam^{|m|} c_m H_m     (second quantization)
    P_tau              = Gamma(e^{-tau})             (Ornstein-Uhlenbeck)

All values are immutable after construction and every operation is pure,
so they are safe to share across threads.
"""

from __future__ import annotations

import math
import operator

import numpy as np

# Coefficients below this magnitude are dropped when an expansion is
# normalized.  This is a representation epsilon, not a check tolerance.
COEFF_EPS = 1e-15


def finite_array(values, what: str) -> np.ndarray:
    """values as a float array; ValueError on NaN or inf (JSON input only)."""
    arr = np.asarray(values, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} must be finite numbers")
    return arr


class MultiIndex:
    """Exponent vector indexing one tensorized Hermite basis element."""

    __slots__ = ("exponents",)

    def __init__(self, exponents):
        if isinstance(exponents, MultiIndex):
            exps = exponents.exponents
        else:
            exps = tuple(operator.index(e) for e in exponents)
        if any(e < 0 for e in exps):
            raise ValueError(f"multi-index entries must be >= 0, got {exps}")
        object.__setattr__(self, "exponents", exps)

    def __setattr__(self, name, value):
        raise AttributeError("MultiIndex is immutable")

    @property
    def dim(self) -> int:
        return len(self.exponents)

    @property
    def degree(self) -> int:
        """Total degree |m| = sum of the exponents."""
        return sum(self.exponents)

    def factorial(self) -> int:
        """m! = prod_k m_k! as an exact integer."""
        return math.prod(math.factorial(e) for e in self.exponents)

    def decremented(self, axis: int) -> "MultiIndex":
        """m - e_axis; requires m_axis >= 1."""
        exps = list(self.exponents)
        if exps[axis] < 1:
            raise ValueError(f"cannot decrement axis {axis} of {self}")
        exps[axis] -= 1
        return MultiIndex(exps)

    def __add__(self, other: "MultiIndex") -> "MultiIndex":
        if self.dim != other.dim:
            raise ValueError("multi-index dimensions differ")
        return MultiIndex(tuple(a + b for a, b in zip(self.exponents, other.exponents)))

    def __eq__(self, other):
        if isinstance(other, MultiIndex):
            return self.exponents == other.exponents
        if isinstance(other, tuple):
            return self.exponents == other
        return NotImplemented

    def __hash__(self):
        return hash(self.exponents)

    def __iter__(self):
        return iter(self.exponents)

    def __len__(self):
        return len(self.exponents)

    def __getitem__(self, k):
        return self.exponents[k]

    def __repr__(self):
        return f"MultiIndex{self.exponents}"


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

    The coefficient map is normalized at construction: keys are coerced to
    ``MultiIndex``, entries with |c| < COEFF_EPS are dropped, and key
    lengths are checked against ``dim``.
    """

    __slots__ = ("dim", "coeffs")

    def __init__(self, dim: int, coeffs=None):
        dim = operator.index(dim)
        if dim < 0:
            raise ValueError("dimension must be >= 0")
        clean: dict[MultiIndex, float] = {}
        for m, c in (coeffs or {}).items():
            m = m if isinstance(m, MultiIndex) else MultiIndex(m)
            if m.dim != dim:
                raise ValueError(f"index {m} has length {m.dim}, expected {dim}")
            c = float(c)
            if abs(c) >= COEFF_EPS:
                clean[m] = clean.get(m, 0.0) + c
        clean = {m: c for m, c in clean.items() if abs(c) >= COEFF_EPS}
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("ChaosExpansion is immutable")

    @classmethod
    def constant(cls, dim: int, value: float) -> "ChaosExpansion":
        return cls(dim, {MultiIndex((0,) * dim): value})

    @classmethod
    def basis(cls, exponents) -> "ChaosExpansion":
        """The basis element H_m itself."""
        m = MultiIndex(exponents)
        return cls(m.dim, {m: 1.0})

    @property
    def degree(self) -> int:
        """Largest |m| carrying a nonzero coefficient (0 for the zero function)."""
        return max((m.degree for m in self.coeffs), default=0)

    def __add__(self, other: "ChaosExpansion") -> "ChaosExpansion":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        merged = dict(self.coeffs)
        for m, c in other.coeffs.items():
            merged[m] = merged.get(m, 0.0) + c
        return ChaosExpansion(self.dim, merged)

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
            {"m": list(m.exponents), "c": c}
            for m, c in sorted(self.coeffs.items(), key=lambda kv: (kv[0].degree, kv[0].exponents))
        ]
        return {"dim": self.dim, "terms": terms}

    @classmethod
    def from_json_dict(cls, data: dict) -> "ChaosExpansion":
        terms = data["terms"]
        coeffs = {}
        for t, c in zip(terms, finite_array([t["c"] for t in terms], "chaos coefficients")):
            m = MultiIndex(t["m"])
            coeffs[m] = coeffs.get(m, 0.0) + float(c)
        return cls(int(data["dim"]), coeffs)

    def __repr__(self):
        return f"ChaosExpansion(dim={self.dim}, terms={len(self.coeffs)}, degree={self.degree})"


def hermite_eval(m, w) -> float | np.ndarray:
    """Evaluate the tensorized Hermite basis element H_m at point(s) w."""
    m = m if isinstance(m, MultiIndex) else MultiIndex(m)
    pts, batch = _as_points(w, m.dim)
    vals = np.ones(pts.shape[0])
    for k, mk in enumerate(m.exponents):
        if mk:
            vals = vals * _he_table(mk, pts[:, k])[mk]
    return vals if batch else float(vals[0])


def eval_chaos(f: ChaosExpansion, w) -> float | np.ndarray:
    """Evaluate f = sum_m c_m H_m at a single point (n,) or a batch (N, n)."""
    pts, batch = _as_points(w, f.dim)
    acc = np.zeros(pts.shape[0])
    if f.coeffs:
        axis_max = [0] * f.dim
        for m in f.coeffs:
            for k, mk in enumerate(m.exponents):
                axis_max[k] = max(axis_max[k], mk)
        tables = [_he_table(axis_max[k], pts[:, k]) for k in range(f.dim)]
        for m, c in f.coeffs.items():
            term = np.full(pts.shape[0], c)
            for k, mk in enumerate(m.exponents):
                if mk:
                    term = term * tables[k][mk]
            acc += term
    return acc if batch else float(acc[0])


def l2_inner(f: ChaosExpansion, g: ChaosExpansion) -> float:
    """Gaussian L2 inner product: sum_m m! c_m d_m."""
    if f.dim != g.dim:
        raise ValueError("dimension mismatch")
    if len(g.coeffs) < len(f.coeffs):
        f, g = g, f
    return sum(m.factorial() * c * g.coeffs[m] for m, c in f.coeffs.items() if m in g.coeffs)


def l2_norm(f: ChaosExpansion) -> float:
    return math.sqrt(l2_inner(f, f))


def dirichlet_energy(f: ChaosExpansion) -> float:
    """Gradient energy int |grad f|^2 dmu = sum_m |m| m! c_m^2."""
    return sum(m.degree * m.factorial() * c * c for m, c in f.coeffs.items())


def gradient(f: ChaosExpansion) -> list[ChaosExpansion]:
    """Coordinate partials: d_k H_m = m_k H_{m - e_k}."""
    parts = [dict() for _ in range(f.dim)]
    for m, c in f.coeffs.items():
        for k, mk in enumerate(m.exponents):
            if mk:
                key = m.decremented(k)
                parts[k][key] = parts[k].get(key, 0.0) + mk * c
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
    return ChaosExpansion(f.dim, {m: lam**m.degree * c for m, c in f.coeffs.items()})


def ou_apply(tau: float, f: ChaosExpansion) -> ChaosExpansion:
    """Ornstein-Uhlenbeck semigroup P_tau = Gamma(e^{-tau}), tau >= 0."""
    if tau < 0:
        raise ValueError("tau must be >= 0")
    return gamma_apply(math.exp(-tau), f)


def number_apply(f: ChaosExpansion) -> ChaosExpansion:
    """Number operator: c_m -> |m| c_m; l2_inner(Nf, f) is the Dirichlet energy."""
    return ChaosExpansion(f.dim, {m: m.degree * c for m, c in f.coeffs.items()})
