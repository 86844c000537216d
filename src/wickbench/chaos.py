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
DiscreteMeasure, on a stack of T row sets at once), the argument guards,
and the two groupings that let values be built as stacks: json_stacks
groups JSON values by JSON shape (dim and term, atom or row count) for
their parser, and per_shape groups built values by canonical shape for a
kernel.  All values are immutable after construction and every
operation is pure, so they are safe to share across threads.
"""

from __future__ import annotations

import math
import numbers
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


def fill(obj, **fields):
    """obj with its fields set, past the __setattr__ that keeps values immutable."""
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def is_real(value) -> bool:
    """A real number; bool is a numbers.Real subclass, but true is not an
    alpha, a lambda or a tolerance."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def check_integer(value, what: str, low: int, nullable: bool = False):
    """ValueError unless value is an integer >= low, or None when nullable;
    bool is an int subclass, but true is not a count, and 1.9 and "1" are
    not 1."""
    if value is None and nullable:
        return
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        expected = f"an integer >= {low}" + (" or null" if nullable else "")
        raise ValueError(f"{what} must be {expected}, got {value!r}")


def check_alpha(alpha):
    """ValueError unless alpha is an interpolation parameter, a real number
    in [0, 1]."""
    if not is_real(alpha) or not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be a number in [0, 1], got {alpha!r}")


def check_real(value, what: str, low: float):
    """ValueError unless value is a finite real number >= low, not a bool."""
    if not is_real(value) or not low <= value < math.inf:
        raise ValueError(f"{what} must be a finite number >= {low:g}, got {value!r}")


def check_dims(f, g):
    """ValueError unless the two values live on the same R^n."""
    if f.dim != g.dim:
        raise ValueError(f"dimension mismatch: {f.dim} vs {g.dim}")


# From this magnitude on a float64 has no neighbour within MERGE_TOL
# (its spacing is 2**-39 > MERGE_TOL), so each lattice cell holds one value.
_LATTICE_LIMIT = 2.0**13


def _lattice_cells(rows: np.ndarray) -> np.ndarray:
    """int64 cell of each coordinate, ordered as the coordinates are.

    Below _LATTICE_LIMIT the cell is the nearest multiple of MERGE_TOL (an
    exact integer below 2**53); above it the value keeps its own cell,
    keyed by its bits in sign-magnitude order, which lies outside the
    lattice range.  So nothing overflows and no two distinct large values
    share a cell.
    """
    small = np.abs(rows) < _LATTICE_LIMIT
    if small.all():
        return np.rint(rows / MERGE_TOL).astype(np.int64)
    lattice = np.rint(np.where(small, rows, 0.0) / MERGE_TOL).astype(np.int64)
    bits = rows.view(np.int64)
    ordered = np.where(bits < 0, bits ^ np.int64(0x7FFFFFFFFFFFFFFF), bits)
    return np.where(small, lattice, ordered)


def canonical_rows(rows: np.ndarray, weights: np.ndarray):
    """Canonical form of T stacked row sets: rows (T, k, n), weights (T, k).

    Float rows that fall in one MERGE_TOL lattice cell are one row, and so
    are equal integer rows.  Per task the rows are sorted by cell, then by
    value and weight, and each group of one cell is stored as its smallest
    original row with the sum of its weights, added in that order.  So the
    result depends on the multiset of (row, weight) pairs only: not on
    their order, and not on how a sum was split into terms.  Returns
    (rows, weights, first), sorted per task, where first[t, j] marks the
    first row of a group and weights[t, j] there holds the group's total.
    ExpCombo directions, DiscreteMeasure atoms and ChaosExpansion indices
    all take this form, so equal inputs give equal stored values.
    """
    t, k = weights.shape
    if k < 2:
        return rows, weights, np.ones((t, k), dtype=bool)
    cells = rows if rows.dtype.kind in "iu" else _lattice_cells(rows)
    tasks = np.arange(t)[:, None]
    # sort by cell alone; only tasks with two rows in one cell, which are
    # rare, need the value and weight keys to order them
    keys = list(cells.transpose(2, 0, 1)[::-1])
    same = None
    if keys:
        order = np.lexsort(keys, axis=-1)
        ordered = cells[tasks, order]
        same = (ordered[:, 1:] == ordered[:, :-1]).all(axis=-1)
    if same is None or same.any():
        order = np.lexsort([weights, *rows.transpose(2, 0, 1)[::-1], *keys], axis=-1)
        ordered = cells[tasks, order]
        same = (ordered[:, 1:] == ordered[:, :-1]).all(axis=-1)
    rows, weights = rows[tasks, order], weights[tasks, order]
    first = np.ones((t, k), dtype=bool)
    first[:, 1:] = ~same
    if not same.any():
        return rows, weights, first
    # running sums within each group, left to right; a group's total sits
    # at its last row and moves to its first
    total = weights.copy()
    for j in np.flatnonzero(same.any(axis=0)) + 1:
        total[:, j] = np.where(first[:, j], weights[:, j], total[:, j - 1] + weights[:, j])
    last = np.ones_like(first)
    last[:, :-1] = first[:, 1:]
    weights = np.zeros_like(weights)
    weights[first] = total[last]
    return rows, weights, first


def split_rows(rows, weights, keep):
    """Per task (weights, rows) of the kept positions of float rows:
    read-only arrays, a zero coordinate stored as +0.0 (-0.0 + 0.0 is
    +0.0)."""
    every = keep.all()
    w, r = (weights.copy(), rows + 0.0) if every else (weights[keep], rows[keep] + 0.0)
    r.setflags(write=False)
    w.setflags(write=False)
    if every:
        return zip(w, r)
    counts = keep.sum(axis=1)
    if (counts == counts[0]).all():
        return zip(w.reshape(len(counts), -1), r.reshape(len(counts), -1, rows.shape[2]))
    bounds = np.cumsum(counts)[:-1]
    return zip(np.split(w, bounds), np.split(r, bounds))


# What a value, a check or a task raises on inputs it cannot compute.
INPUT_ERRORS = (ValueError, KeyError, TypeError, ArithmeticError)


def per_shape(keys, run) -> list:
    """run(indices) on each group of equal keys, in order of first
    appearance; returns the results of all tasks in input order."""
    groups: dict = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    out = [None] * len(keys)
    for idx in groups.values():
        for i, result in zip(idx, run(idx)):
            out[i] = result
    return out


def json_stacks(build, datas, kind, *fields) -> list:
    """build(dim, group) on each group of JSON values of one JSON shape,
    the same "dim" and the same length of each field; one value per item,
    in input order.  This is the one parse path of ChaosExpansion, ExpCombo
    and DiscreteMeasure, a single value being a group of one.  ValueError
    unless each "dim" is an integer >= 0 and not a bool (1.9, true and "1"
    are not 1), or when a function names a kind other than kind."""
    keys = []
    for data in datas:
        dim = data["dim"]
        check_integer(dim, "dim", 0)
        if kind and data.get("kind", kind) != kind:
            raise ValueError(f"expected {kind} functions, got kind {data['kind']!r}")
        keys.append((int(dim), *(len(data[name]) for name in fields)))
    return per_shape(keys, lambda idx: build(keys[idx[0]][0], [datas[i] for i in idx]))


def multi_index(m) -> tuple:
    """m as a tuple of ints >= 0: a Hermite basis index, H_m = prod_k He_{m_k}."""
    m = tuple(map(operator.index, m))
    if any(e < 0 for e in m):
        raise ValueError(f"multi-index entries must be >= 0, got {m}")
    return m


def _index_rows(dim: int, indices) -> np.ndarray:
    """T lists of k multi-indices each as a (T, k, dim) int64 array; the
    errors of multi_index, and ValueError on a row whose length is not dim."""
    t, k = len(indices), len(indices[0])
    if k == 0:
        return np.zeros((t, 0, dim), dtype=np.int64)
    try:
        arr = np.array(indices)
    except ValueError:  # rows of different lengths
        arr = None
    if (arr is not None and arr.shape == (t, k, dim)
            and (arr.dtype.kind in "iub" or arr.size == 0) and not (arr < 0).any()):
        return arr.astype(np.int64)
    for m in (m for item in indices for m in item):
        m = multi_index(m)
        if len(m) != dim:
            raise ValueError(f"row {m} has length {len(m)}, expected {dim}")
    raise TypeError("multi-indices must be rows of integers")


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
        pairs = list(coeffs.items() if isinstance(coeffs, dict) else coeffs)
        idx = _index_rows(dim, [[m for m, _ in pairs]])
        cs = finite_array([[c for _, c in pairs]], "chaos coefficients")
        fill(self, dim=dim, coeffs=_canonical_coeffs(idx, cs)[0])

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
        scalar = float(finite_array(scalar, "chaos coefficients"))
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

    def __repr__(self):
        return f"ChaosExpansion(dim={self.dim}, terms={len(self.coeffs)}, degree={self.degree})"


def _canonical_coeffs(idx: np.ndarray, cs: np.ndarray) -> list[dict]:
    # per task {index tuple: coefficient} of the canonical form, COEFF_EPS dropped
    rows, cs, keep = canonical_rows(idx, cs)
    keep &= np.abs(cs) >= COEFF_EPS
    return [dict(zip(map(tuple, r[k].tolist()), c[k].tolist())) for r, c, k in zip(rows, cs, keep)]


def _build_chaos(dim: int, datas) -> list[ChaosExpansion]:
    cs = finite_array([[t["c"] for t in d["terms"]] for d in datas], "chaos coefficients")
    idx = _index_rows(dim, [[t["m"] for t in d["terms"]] for d in datas])
    return [fill(object.__new__(ChaosExpansion), dim=dim, coeffs=c) for c in _canonical_coeffs(idx, cs)]


def chaos_from_json(datas) -> list[ChaosExpansion]:
    """The ChaosExpansion of each JSON function, parsed, checked and brought
    to canonical form as one stack per JSON shape (json_stacks)."""
    return json_stacks(_build_chaos, datas, "chaos", "terms")


def eval_chaos(f: ChaosExpansion, w) -> float | np.ndarray:
    """Evaluate f = sum_m c_m H_m at a single point (n,) or a batch (N, n)."""
    pts, batch = _as_points(w, f.dim)
    acc = np.zeros(pts.shape[0])
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
    check_real(lam, "lambda", 0)
    lam = float(lam)
    return ChaosExpansion(f.dim, {m: lam ** sum(m) * c for m, c in f.coeffs.items()})


def ou_apply(tau: float, f: ChaosExpansion) -> ChaosExpansion:
    """Ornstein-Uhlenbeck semigroup P_tau = Gamma(e^{-tau}), tau >= 0."""
    check_real(tau, "tau", 0)
    return gamma_apply(math.exp(-tau), f)


def number_apply(f: ChaosExpansion) -> ChaosExpansion:
    """Number operator: c_m -> |m| c_m; l2_inner(Nf, f) is the Dirichlet energy."""
    return ChaosExpansion(f.dim, {m: sum(m) * c for m, c in f.coeffs.items()})
