"""Inequality and positivity checks, each returning InequalityReport rows.

Checks run on exponential combinations by default (every integral is then
a finite closed form), and the interpolation-deficit checks also accept
chaos expansions (exact through polynomial integrals).  A check that
integrates against rho = mu * nu takes the DiscreteMeasure nu, which
determines rho; its row's params carry nu under the "nu" key.

The deficit checks never build a product function.  Each of their three
integrals is a quadratic form c' K c in the coefficients of f, with one
Gram matrix K per integral -- the paper's Schur-product form:

  f = sum_j w_j E(h_j) under rho = mu * sum_i p_i delta_{y_i}: with
  S = H H' and B_jk = sum_i p_i e^{<y_i, h_j + h_k>},

    int f^2 drho      = w' (e^S o B) w
    int f o_a f drho  = w' (e^{aS} o B) w
    int |Df|^2 drho   = w' (S o e^S o B) w

  f = sum_m c_m H_m: with the one-axis table

    T_a[r, s](y) = sum_k a^k C(r,k) C(s,k) k! y^{r+s-2k}
                 = int He_r o_a He_s d(mu * delta_y)     (a = 0: Wick)

  and K^a_mn = sum_i p_i prod_x T_a[m_x, n_x](y_ix),

    int f^2 drho      = c' K^1 c
    int f o_a f drho  = c' K^a c
    int |Df|^2 drho   = c' K^D c,  K^D_mn = sum_l m_l n_l K^1_{m - e_l, n - e_l}

  (a shifted index clipped at 0 where its weight m_l n_l is 0).

oracle_triangle validates these forms, the ones the checks use, against
quadrature and Monte Carlo integrals of one point function, which gives
f^2, f o_a f (alpha_exp's product, evaluated) and |Df|^2 at the points of
either route; the tests also compare the forms with the product route
(alpha_* / pointwise_* then rho_integral_*).

CHECK_REGISTRY maps each check name to one CheckSpec: its description,
its runner on the JSON parameters of many tasks, and the grid and random
generators that expand a suite config into its tasks.  The harness, the
CLI and the workers all read that one table, so a check's JSON schema
lives here.

A runner takes all of its tasks at once.  The JSON parsers stack them by
JSON shape (dim and term, atom or row count) and the kernels by canonical
shape (numbers of terms and atoms after merging, dimension), so each step
is one numpy call on stacked (T, k, n) arrays.  Only each row's last
reduction (w' K w, p' E p, a sum) runs per task: stacked matmul, exp,
sort and eigvalsh steps give each task the bits it gets alone, but a
stacked reduction (einsum over the task axis) does not.  So run_check,
one task as a stack of one, gives the rows a suite run gives.  Each
runner's docstring states its inequality.  classic_beckner's coefficient
loop and oracle_triangle's quadrature and Monte Carlo gain nothing from
stacking and run their tasks one at a time.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .chaos import (
    ChaosExpansion,
    chaos_from_json,
    check_alpha,
    check_dims,
    check_integer,
    index_factorial,
    is_real,
    per_shape,
)
from .expspan import (
    ExpCombo,
    _stack,
    alpha_exp,
    exps_from_json,
    gammas_exp,
    mu_inner_exp,
    products_exp,
)
from .measures import (
    DiscreteMeasure,
    char_gram_stack,
    convolutions,
    densities_xi,
    g_lambda_norms,
    gammas_xi,
    measures_from_json,
    vector_stacks,
)
from .products import HolderParams, holder_relation_check
from .quadrature import default_order, gauss_hermite_grid, integrate_rho, lp_norm_exp, mc_integral_rho
from .report import InequalityReport

DEFAULT_TOLS = {
    "exact": 1e-9,
    "psd": 1e-10,
    "identity": 1e-12,
    "quadrature": 1e-6,
    "mc_sigmas": 4.0,
}
# oracle_triangle's Monte Carlo sample size, where a task or config gives none
DEFAULT_MC_COUNT = 100_000
# the most times oracle_triangle raises its quadrature order by half:
# to 225 in n <= 2, 90 in n = 3
_QUAD_STEPS = 5


def resolve_tols(overrides) -> dict:
    """DEFAULT_TOLS with overrides applied; ValueError unless each is a known key and a finite number >= 0."""
    if not isinstance(overrides, dict):
        raise ValueError(f"tolerances must be an object, got {overrides!r}")
    bad = set(overrides) - set(DEFAULT_TOLS)
    if bad:
        raise ValueError(f"unknown tolerance keys: {', '.join(sorted(bad))}")
    for key, tol in overrides.items():
        if not is_real(tol) or not 0.0 <= tol < math.inf:
            raise ValueError(f"tolerance {key} must be a finite number >= 0, got {tol!r}")
    return {**DEFAULT_TOLS, **overrides}


def _fn_kind(data: dict) -> str:
    """The "kind" of a JSON function; without one, chaos terms carry "m".
    TypeError unless data is a JSON object."""
    if not isinstance(data, dict):
        raise TypeError(f"a function must be a JSON object, got {data!r}")
    kind = data.get("kind")
    if kind is None:
        terms = data.get("terms", [])
        kind = "chaos" if terms and "m" in terms[0] else "exp"
    return kind


_FROM_JSON = {"exp": exps_from_json, "chaos": chaos_from_json}


def functions_from_json(datas) -> list:
    """The ExpCombo or ChaosExpansion of each JSON function, by its kind;
    each kind's parser builds one stack per JSON shape."""
    kinds = [_fn_kind(d) for d in datas]
    for kind in kinds:
        if kind not in _FROM_JSON:
            raise ValueError(f"unknown function kind {kind!r}")
    return per_shape(kinds, lambda idx: _FROM_JSON[kinds[idx[0]]]([datas[i] for i in idx]))


def _exp_gram(h: np.ndarray, y: np.ndarray, p: np.ndarray):
    """S = H H' (symmetrised), e^S and B_jk = sum_i p_i e^{<y_i, h_j + h_k>}
    for T stacked tasks: directions h (T, k, n), atoms y (T, a, n) and
    weights p (T, a)."""
    s = h @ h.transpose(0, 2, 1)
    s = 0.5 * (s + s.transpose(0, 2, 1))
    v = np.exp(y @ h.transpose(0, 2, 1))
    return s, np.exp(s), v.transpose(0, 2, 1) @ (p[:, :, None] * v)


def _hermite_pair_tables(y: np.ndarray, top: int, alpha: float) -> np.ndarray:
    """T[i, x, r, s] = T_alpha[r, s](y_ix) for r, s <= top (module docstring)."""
    ks = np.arange(top + 1)
    binom = np.array([[math.comb(r, k) for k in ks] for r in ks], dtype=float)
    fact = np.array([math.factorial(k) for k in ks], dtype=float)
    coef = binom[:, None, :] * binom[None, :, :] * fact * float(alpha) ** ks
    expo = np.maximum(ks[:, None, None] + ks[None, :, None] - 2 * ks, 0)
    powers = y[..., None] ** np.arange(2 * top + 1)
    return np.einsum("rsk,ixrsk->ixrs", coef, powers[..., expo])


def _chaos_grams(f: ChaosExpansion, nu: DiscreteMeasure, alpha: float):
    """c, K^1, K^a and K^D of one chaos function on its own indices m, from
    the pair tables (module docstring)."""
    idx = np.array(list(f.coeffs), dtype=int).reshape(len(f.coeffs), f.dim)
    # rows[0] = the indices m, rows[1 + l] = m - e_l, clipped at 0 where
    # its weight m_l is 0
    rows = np.concatenate([idx[None], np.maximum(idx - np.eye(f.dim, dtype=int)[:, None], 0)])
    top, axes = int(idx.max(initial=0)), np.arange(f.dim)

    def grams(a, rows):
        # K[s]_mn = sum_i p_i prod_x T_a[rows[s, m, x], rows[s, n, x]](y_ix); the
        # gather leaves the atom axis innermost, and the C-order copy gives the
        # sum over atoms the BLAS route, so the bits, of one C-order (a, M, M) Gram
        tables = _hermite_pair_tables(nu.atoms, top, a)[:, axes, rows[:, :, None], rows[:, None, :]]
        return np.tensordot(nu.weights, np.ascontiguousarray(tables.prod(axis=-1)), axes=1)

    k1 = grams(1.0, rows)
    kd = np.einsum("lm,ln,lmn->mn", idx.T, idx.T, k1[1:])
    return np.array(list(f.coeffs.values()), dtype=float), k1[0], grams(alpha, idx[None])[0], kd


def _deficit_batch(fs, nus, alphas) -> list[tuple[float, float, float]]:
    """(int f^2 drho, int f o_a f drho, int |Df|^2 drho), rho = mu * nu, per
    task: the forms c' K c of the module docstring, with c and (K^1, K^a,
    K^D) on f's own basis; int f o_1 f is bitwise int f^2.  Exponential
    combinations of one shape are one stack up to the last quadratic form
    of each task; chaos functions run one at a time."""
    for f, nu in zip(fs, nus):
        check_dims(f, nu)

    def grams(idx):
        if isinstance(fs[idx[0]], ChaosExpansion):
            return [_chaos_grams(fs[i], nus[i], alphas[i]) for i in idx]
        s, exp_s, b = _exp_gram(_stack(fs, "directions", idx), _stack(nus, "atoms", idx),
                                _stack(nus, "weights", idx))
        alpha = np.array([float(alphas[i]) for i in idx])[:, None, None]
        k1 = exp_s * b
        return zip(_stack(fs, "weights", idx), k1, np.exp(alpha * s) * b, s * k1)

    keys = [(f.n_terms, nu.n_atoms, f.dim) if isinstance(f, ExpCombo) else ChaosExpansion
            for f, nu in zip(fs, nus)]
    return [tuple(float(c @ k @ c) for k in ks) for c, *ks in per_shape(keys, grams)]


# ---------------------------------------------------------------------------
# check specs: JSON params -> report rows, and suite config -> task params


def _nus(tasks, key="nu") -> list[DiscreteMeasure]:
    return measures_from_json([params[key] for params in tasks])


def _functions(cfg, kind: str) -> list[dict]:
    return [f for f in cfg.functions if _fn_kind(f) == kind]


def _positive_tests(cfg, dim):
    """Nonnegative test functions matching dim: constant 1 plus any
    positive-weight exponential combos from the config."""
    tests = [{"kind": "exp", "dim": dim, "terms": [{"coef": 1.0, "h": [0.0] * dim}]}]
    for f in _functions(cfg, "exp"):
        if f["dim"] == dim and all(t["coef"] >= 0 for t in f["terms"]):
            tests.append(f)
    return tests


def _pairs(seq):
    return [(a, b) for i, a in enumerate(seq) for b in seq[i:]]


# Random sweeps: each check has one stream of uniforms, keyed by
# (seed, check index); sweep s owns the B uniforms from draw s * B on, B the
# columns one sweep's draw reads.  A run of sweeps is one (sweeps, B) block,
# turned column by column into params; slots a sweep does not need go
# unused.  So changing a check's block layout changes its sweeps' bytes.

COORD_SCALE = 1.5


class _Block:
    """A (sweeps, B) block of uniforms u in [0, 1), its columns used left to
    right; its points have up to cap coordinates."""

    def __init__(self, u: np.ndarray, cap: int = 3):
        self.u, self.cap, self.used = u, cap, 0

    def uniform(self, a: float, b: float, *shape) -> np.ndarray:
        """a + (b - a) u, numpy's formula, on the next prod(shape) columns as (sweeps, *shape)."""
        k = math.prod(shape)
        self.used += k
        return a + (b - a) * self.u[:, self.used - k:self.used].reshape(len(self.u), *shape)

    def integers(self, lo: int, hi: int, *shape) -> np.ndarray:
        """lo + floor(u (hi - lo + 1)), in {lo, ..., hi} since u < 1."""
        return lo + self.uniform(0, hi - lo + 1, *shape).astype(int)


def _dirichlet(u: np.ndarray, counts) -> list[list[float]]:
    """Dirichlet(1) weights of each row's first count uniforms: w = e / sum(e),
    e = -log1p(-u) >= the smallest normal (-log u is inf at u = 0.0), with
    libm's log1p: numpy's takes SIMD routines on some CPUs, other last bits."""
    e = np.maximum([[-math.log1p(-x) for x in row] for row in u.tolist()], np.finfo(float).tiny)
    e[np.arange(u.shape[1]) >= np.asarray(counts)[:, None]] = 0.0
    return [w[:c] for w, c in zip((e / e.sum(axis=1, keepdims=True)).tolist(), counts)]


def _points(block: _Block, dims, max_count=6, scale=COORD_SCALE) -> list[list]:
    # a count in 1..max_count, then max_count x cap coordinates
    counts = block.integers(1, max_count).tolist()
    coords = block.uniform(-scale, scale, max_count, block.cap)
    return [pts[:c, :n].tolist() for n, c, pts in zip(dims, counts, coords)]


def _nu_jsons(block: _Block, dims, max_atoms=5, scale=COORD_SCALE) -> list[dict]:
    atoms = _points(block, dims, max_atoms, scale)
    weights = _dirichlet(block.uniform(0.0, 1.0, max_atoms), [len(a) for a in atoms])
    return [{"dim": n, "atoms": a, "weights": w} for n, a, w in zip(dims, atoms, weights)]


def _exp_jsons(block: _Block, dims, max_terms=4, scale=COORD_SCALE, positive=False) -> list[dict]:
    dirs = _points(block, dims, max_terms, scale)
    coefs = block.uniform(0.1 if positive else -1.5, 1.5, max_terms).tolist()
    return [{"kind": "exp", "dim": n, "terms": [{"coef": c, "h": h} for c, h in zip(cs, hs)]}
            for n, hs, cs in zip(dims, dirs, coefs)]


def _chaos_jsons(block: _Block, dims, max_terms=10, max_degree=8) -> list[dict]:
    # term m ~ multinomial(degree, 1/n): one uniform per ball, on axis floor(u n)
    counts, degrees = block.integers(1, max_terms).tolist(), block.integers(0, max_degree, max_terms)
    axes = (block.uniform(0.0, 1.0, max_terms, max_degree) * np.array(dims)[:, None, None]).astype(int)
    thrown = np.arange(max_degree)[:, None] < degrees[..., None, None]
    balls = (axes[..., None] == np.arange(block.cap)) & thrown
    ms, coefs = balls.sum(axis=2).tolist(), block.uniform(-1.0, 1.0, max_terms).tolist()
    return [{"kind": "chaos", "dim": n, "terms": [{"m": m[:n], "c": c} for m, c in zip(rows[:k], cs)]}
            for n, k, rows, cs in zip(dims, counts, ms, coefs)]


def _phis(block: _Block, dims) -> list[dict]:
    # covariance's test function E(h): h = 0 or uniform, on a fair coin
    coins = block.integers(0, 1).tolist()
    hs = block.uniform(-COORD_SCALE, COORD_SCALE, block.cap).tolist()
    return [{"kind": "exp", "dim": n, "terms": [{"coef": 1.0, "h": h[:n] if coin else [0.0] * n}]}
            for n, coin, h in zip(dims, coins, hs)]


class _Blocks(NamedTuple):
    """random(cfg, index, sweeps) of a check.  draw takes a sweep's
    params in order from its block: a dim in 1..cap (unused when dim is
    set), then unless alpha is None an alpha k/10 with k in alpha..10, then
    the fields(block, dims) dict, its values drawn in its order."""

    alpha: int | None
    fields: Callable[[_Block, list], dict]
    cap: int = 3

    def __call__(self, cfg, index: int, sweeps: range) -> list[dict]:
        if not sweeps:
            return []
        dry = _Block(np.zeros((1, 1024)), self.cap)  # B <= 1024: dry.used is B
        self.draw(None, dry)
        bits = np.random.PCG64(np.random.SeedSequence([cfg.seed, index])).advance(sweeps.start * dry.used)
        return self.draw(cfg.dim, _Block(np.random.Generator(bits).random((len(sweeps), dry.used)), self.cap))

    def draw(self, dim: int | None, block: _Block) -> list[dict]:
        dims = [n if dim is None else min(dim, self.cap) for n in block.integers(1, self.cap).tolist()]
        values = {} if self.alpha is None else {"alpha": (block.integers(self.alpha, 10) / 10).tolist()}
        values.update(self.fields(block, dims))
        return [dict(zip(values, sweep)) for sweep in zip(*values.values())]


def _deficit_tasks(tasks):
    """(f, nu, alpha, _deficit_batch integrals) of each deficit task."""
    fs, nus = functions_from_json([params["f"] for params in tasks]), _nus(tasks)
    alphas = [params["alpha"] for params in tasks]
    for alpha in alphas:
        check_alpha(alpha)
    return zip(fs, nus, alphas, _deficit_batch(fs, nus, alphas))


_INTEGRALS = ("f_sq", "alpha_prod", "dirichlet")


def _deficit_rows(name, tasks, tols, shown: int, sides):
    """Each deficit task's one row: (lhs, rhs) = sides(alpha, *integrals),
    its params showing the first shown of the three integrals."""
    return [[InequalityReport.from_sides(
        name, {"alpha": float(alpha), "f": f.to_json_dict(), "nu": nu.to_json_dict(),
               "integrals": dict(zip(_INTEGRALS[:shown], ints))}, *sides(alpha, *ints), tols["exact"])]
        for f, nu, alpha, ints in _deficit_tasks(tasks)]


def _run_beckner(tasks, tols):
    """int f^2 drho - int (f o_a f) drho <= (1 - a) int |Df|^2 drho.

    The interpolation-deficit inequality for rho = mu * nu; at alpha = 1
    both sides vanish, at alpha = 0 it is the Wick-form bound.
    """
    return _deficit_rows("beckner_deficit", tasks, tols, 3, lambda a, sq, ap, en: (sq - ap, (1.0 - a) * en))


def _run_left(tasks, tols):
    """int (f o_a f) drho <= int f^2 drho, rho = mu * nu; equality at alpha = 1."""
    return _deficit_rows("left_positivity", tasks, tols, 2, lambda a, sq, ap, en: (ap, sq))


def _grid_deficit(cfg):
    for f in cfg.functions:
        for nu in cfg.measures:
            if f["dim"] != nu["dim"]:
                continue
            for a in cfg.alphas:
                yield {"alpha": a, "f": f, "nu": nu}


def _vectors(tasks, nus) -> list[np.ndarray]:
    return vector_stacks([params["hs"] for params in tasks], [nu.dim for nu in nus])


_AB_ROWS = ("ab_matrix_a", "ab_matrix_b", "ab_matrix_hadamard")


def _run_ab(tasks, tols):
    """PSD certificates for the two proof matrices and their Hadamard product.

        a_jk = e^{a s} - e^{s} + (1-a) s e^{s},  s = <h_j, h_k>
        b_jk = int E(h_j) wick E(h_k) drho = sum_i p_i e^{<y_i, h_j + h_k>}

    The deficit quadratic form is v' (A o B) v, so nonnegative eigenvalues
    here are what make the main inequality work.  One eigvalsh call per
    shape takes the three matrices of every task.
    """
    nus = _nus(tasks)
    hs = _vectors(tasks, nus)
    alphas = [params["alpha"] for params in tasks]
    for alpha in alphas:
        check_alpha(alpha)

    def run(idx):
        s, exp_s, b = _exp_gram(np.array([hs[i] for i in idx]), _stack(nus, "atoms", idx),
                                _stack(nus, "weights", idx))
        alpha = np.array([float(alphas[i]) for i in idx])[:, None, None]
        a = np.exp(alpha * s) - exp_s + (1.0 - alpha) * s * exp_s
        mats = np.stack([a, b, a * b], axis=1)
        return np.linalg.eigvalsh(0.5 * (mats + mats.swapaxes(-1, -2)))[..., 0].tolist()

    min_eigs = per_shape([(len(h), nu.n_atoms, nu.dim) for h, nu in zip(hs, nus)], run)
    rows = []
    for h, nu, alpha, eigs in zip(hs, nus, alphas, min_eigs):
        params = {"alpha": float(alpha), "hs": h.tolist(), "nu": nu.to_json_dict()}
        rows.append([InequalityReport.from_sides(name, params, 0.0, eig, tols["psd"])
                     for name, eig in zip(_AB_ROWS, eigs)])
    return rows


def _grid_ab(cfg):
    for p in _grid_char_gram(cfg):
        for a in cfg.alphas:
            yield {"alpha": a, **p}


def _run_char_gram(tasks, tols):
    """Minimum eigenvalue of the characteristic Gram matrix is >= 0."""
    nus = _nus(tasks)
    hs = _vectors(tasks, nus)

    def run(idx):
        gram = char_gram_stack(_stack(nus, "atoms", idx), _stack(nus, "weights", idx),
                               np.array([hs[i] for i in idx]))
        return np.linalg.eigvalsh(gram)[:, 0].tolist()

    min_eigs = per_shape([(len(h), nu.n_atoms, nu.dim) for h, nu in zip(hs, nus)], run)
    return [[InequalityReport.from_sides("char_gram_psd", {"hs": h.tolist(), "nu": nu.to_json_dict()},
                                         0.0, eig, tols["psd"])]
            for nu, h, eig in zip(nus, hs, min_eigs)]


def _grid_char_gram(cfg):
    for f in _functions(cfg, "exp"):
        hs = [t["h"] for t in f["terms"]]
        for nu in cfg.measures:
            if f["dim"] == nu["dim"]:
                yield {"hs": hs, "nu": nu}


def _holder_params(params) -> HolderParams:
    alpha = params["alpha"]
    if "p" in params:
        return HolderParams(params["p"], params["q"], params["r"], alpha)
    return HolderParams.conjugate_family(alpha)


def _run_holder(tasks, tols):
    """||Gamma(sqrt((1+a)/2)) (f o_a g)||_r <= ||f||_p ||g||_q.

    g defaults to f itself, the same object, as f o_a f.  Norms take exact
    routes where available (single exponentials at any exponent, r = 2,
    even integer exponents); otherwise quadrature, and the row tolerance
    widens accordingly.  The products and their Gamma images are stacked;
    the norms run per task.
    """
    hps = [_holder_params(params) for params in tasks]
    fs = exps_from_json([params["f"] for params in tasks])
    gs = list(fs)
    with_g = [i for i, params in enumerate(tasks) if "g" in params]
    for i, g in zip(with_g, exps_from_json([tasks[i]["g"] for i in with_g])):
        gs[i] = g
    for hp in hps:
        ok, residual = holder_relation_check(hp)
        if not ok:
            raise ValueError(f"exponents fail the admissibility relation, residual {residual:g}")
    prods = gammas_exp([math.sqrt((1.0 + hp.alpha) / 2.0) for hp in hps],
                       products_exp(fs, gs, [float(hp.alpha) for hp in hps]))
    rows = []
    for f, g, hp, prod in zip(fs, gs, hps, prods):
        (lhs, m_lhs), (norm_f, m_f), (norm_g, m_g) = (
            lp_norm_exp(fn, e) for fn, e in ((prod, hp.r), (f, hp.p), (g, hp.q)))
        m_rhs = "exact" if (m_f == "exact" and m_g == "exact") else "quadrature"
        tol = tols["exact"] if (m_lhs == "exact" and m_rhs == "exact") else tols["quadrature"]
        params = {
            "alpha": float(hp.alpha),
            "p": float(hp.p), "q": float(hp.q), "r": float(hp.r),
            "f": f.to_json_dict(), "g": g.to_json_dict(),
        }
        rows.append([InequalityReport.from_sides("holder", params, lhs, norm_f * norm_g, tol, m_lhs, m_rhs)])
    return rows


def _grid_holder(cfg):
    for f in _functions(cfg, "exp"):
        for a in cfg.alphas:
            yield {"alpha": a, "f": f}


def _classic_row(f: ChaosExpansion, alpha, tolerance: float) -> InequalityReport:
    check_alpha(alpha)
    lhs = 0.0
    rhs = 0.0
    for m, c in f.coeffs.items():
        base = index_factorial(m) * c * c
        d = sum(m)
        lhs += base * (1.0 - alpha**d)
        rhs += base * d * (1.0 - alpha)
    params = {"alpha": float(alpha), "f": f.to_json_dict()}
    return InequalityReport.from_sides("classic_beckner", params, lhs, rhs, tolerance)


def _run_classic(tasks, tols):
    """Coefficient form on the Gaussian itself:

        sum_m m! c_m^2 (1 - a^{|m|}) <= (1 - a) sum_m |m| m! c_m^2

    from 1 - a^N <= N (1 - a); equality when the support sits in the
    first chaos.
    """
    fs = chaos_from_json([params["f"] for params in tasks])
    return [[_classic_row(f, params["alpha"], tols["identity"])] for f, params in zip(fs, tasks)]


def _grid_classic(cfg):
    for f in _functions(cfg, "chaos"):
        for a in cfg.alphas:
            yield {"alpha": a, "f": f}


def _run_strong_pos(tasks, tols):
    """<Gamma(1/sqrt(a)) xi, phi> >= 0 for nonnegative test functions phi.

    phi must be a positive-weight combination (those are nonnegative
    functions); the pairing is then a positive sum by inspection.
    """
    nus, alphas = _nus(tasks), [params["alpha"] for params in tasks]
    phis = exps_from_json([params["phi"] for params in tasks])
    for phi in phis:
        if np.any(phi.weights < 0):
            raise ValueError("phi must have nonnegative weights")
    rows = []
    for nu, alpha, phi, xi in zip(nus, alphas, phis, gammas_xi(nus, alphas)):
        params = {"alpha": float(alpha), "nu": nu.to_json_dict(), "phi": phi.to_json_dict()}
        rows.append([InequalityReport.from_sides("strong_positivity", params, 0.0,
                                                 mu_inner_exp(xi, phi), tols["exact"])])
    return rows


def _grid_strong_pos(cfg):
    for nu in cfg.measures:
        for phi in _positive_tests(cfg, nu["dim"]):
            for a in cfg.alphas:
                if a > 0:
                    yield {"alpha": a, "nu": nu, "phi": phi}


def _run_covariance(tasks, tols):
    """<xi1 xi2, phi> - <xi1 wick xi2, phi> - sum_k <d_k xi1 wick d_k xi2, phi> >= 0.

    For discrete measures and exponential phi the whole expression
    collapses termwise to

        sum_ij p_i q_j M_ij (e^{s_ij} - 1 - s_ij),  s_ij = <y_i, z_j>,

    with M_ij = <E(y_i + z_j), phi> > 0, so every summand is nonnegative
    and the computed gap cannot go negative by cancellation.
    """
    nu1s, nu2s = _nus(tasks, "nu1"), _nus(tasks, "nu2")
    phis = exps_from_json([params["phi"] for params in tasks])
    for nu1, nu2, phi in zip(nu1s, nu2s, phis):
        check_dims(nu1, nu2)
        check_dims(phi, nu1)
        if np.any(phi.weights < 0):
            raise ValueError("phi must have nonnegative weights")

    def run(idx):
        y1, y2 = _stack(nu1s, "atoms", idx), _stack(nu2s, "atoms", idx)
        s = y1 @ y2.transpose(0, 2, 1)
        bracket = np.expm1(s) - s
        pair_w = _stack(nu1s, "weights", idx)[:, :, None] * _stack(nu2s, "weights", idx)[:, None, :]
        test = np.zeros_like(s)
        dir_sums = y1[:, :, None, :] + y2[:, None, :, :]
        cs, gdirs = _stack(phis, "weights", idx), _stack(phis, "directions", idx)
        for j in range(cs.shape[1]):
            test += cs[:, j, None, None] * np.exp(dir_sums @ gdirs[:, None, j, :, None])[..., 0]
        return [float(np.sum(terms)) for terms in pair_w * test * bracket]

    keys = [(nu1.n_atoms, nu2.n_atoms, phi.n_terms, nu1.dim) for nu1, nu2, phi in zip(nu1s, nu2s, phis)]
    gaps = per_shape(keys, run)
    return [[InequalityReport.from_sides(
        "covariance", {"nu1": nu1.to_json_dict(), "nu2": nu2.to_json_dict(), "phi": phi.to_json_dict()},
        0.0, gap, tols["psd"])] for nu1, nu2, phi, gap in zip(nu1s, nu2s, phis, gaps)]


def _grid_covariance(cfg):
    for nu1, nu2 in _pairs(cfg.measures):
        if nu1["dim"] != nu2["dim"]:
            continue
        for phi in _positive_tests(cfg, nu1["dim"]):
            yield {"nu1": nu1, "nu2": nu2, "phi": phi}


def _run_wick_density(tasks, tols):
    """xi1 wick xi2 is the density of mu * (nu1 * nu2).

    Both sides are canonical ExpCombos, the convolutions and the Wick
    products of the densities each built as one stack per shape; the
    mismatch is the largest deviation in directions or weights, or, when
    the term counts differ, the largest weight of left - right.
    """
    nu1s, nu2s = _nus(tasks, "nu1"), _nus(tasks, "nu2")
    lhs = densities_xi(convolutions(nu1s, nu2s))
    rhs = products_exp(densities_xi(nu1s), densities_xi(nu2s), [0.0] * len(nu1s))
    rows = []
    for nu1, nu2, left, right in zip(nu1s, nu2s, lhs, rhs):
        if left.n_terms != right.n_terms:
            mismatch = float(np.max(np.abs((left - right).weights)))
        elif left.n_terms == 0:
            mismatch = 0.0
        else:
            mismatch = max(
                float(np.max(np.abs(left.directions - right.directions))),
                float(np.max(np.abs(left.weights - right.weights))),
            )
        params = {"nu1": nu1.to_json_dict(), "nu2": nu2.to_json_dict()}
        rows.append([InequalityReport.from_mismatch("wick_density_identity", params, mismatch,
                                                    tols["identity"])])
    return rows


def _grid_wick_density(cfg):
    for nu1, nu2 in _pairs(cfg.measures):
        if nu1["dim"] == nu2["dim"]:
            yield {"nu1": nu1, "nu2": nu2}


def _run_g_lambda(tasks, tols):
    """sqrt of the exact squared G_lambda norm is below the one-sided bound."""
    nus, lams = _nus(tasks), [params["lambda"] for params in tasks]
    return [[InequalityReport.from_sides("g_lambda_bound", {"lambda": float(lam), "nu": nu.to_json_dict()},
                                         math.sqrt(norm_sq), bound, tols["exact"])]
            for nu, lam, (norm_sq, bound) in zip(nus, lams, g_lambda_norms(nus, lams))]


def _grid_g_lambda(cfg):
    for nu in cfg.measures:
        for a in cfg.alphas:
            yield {"nu": nu, "lambda": float(np.sqrt(2.0 / (1.0 + a)))}


# The oracle's Monte Carlo draw.  For f = sum_j w_j E(h_j), nu = sum_i p_i
# delta_{y_i} and fbar = sum_j |w_j| E(h_j), Cameron-Martin gives
#     fbar^2 rho = sum_{i, j<=k} pi_ijk (mu * delta_{y_i + h_j + h_k}),
#     pi_ijk = p_i |w_j w_k| (2 - delta_jk) e^{<h_j,h_k> + <y_i, h_j + h_k>},
# so q = mu * nu_q, nu_q = sum pi_ijk delta_{y_i+h_j+h_k} / Z, is rho fbar^2 / Z
# and each point's weight is drho/dq = Z / fbar^2.  Every integrand F is at
# most C fbar^2 (C = 1 for f^2, max e^{(a-1)<h_j,h_k>} for f o_a f and
# sum_l max_j h_jl^2 for |Df|^2), so each weighted value F Z / fbar^2 is
# bounded by C Z: no heavy tail, and the mc_sigmas gate is valid.  Atoms
# of nu_q that its canonical form merges move by less than MERGE_TOL per
# coordinate, so Z / fbar^2 is off by about MERGE_TOL |x| relative: far
# below se where the values vary; where they do not, every value is Z.
#
# Where every value is the same number (f^2 of a one-signed f; all three
# integrals of a one-term f) the estimate and the exact value are two
# closed forms of one number and se is about 0, so the row's tolerance is a
# rounding bound c u C Z, u = 2^-53.  To first order, all summands being
# positive on those rows, c counts
#   8 per exp (4 ulp), 8 of them on the two routes: Z's terms; e^S and two
#     e^{<y,h>} in _deficit_batch; prod's weight, prod.eval and fbar^2;
#   (n + 2) A per exponent formed from the inputs, 5 of them, A the largest
#     of sum_l |h_jl h_kl| + |y_il| (|h_jl| + |h_kl|);
#   1 per other rounding: a m + 2 for Z (a atoms, m term pairs),
#     a + 2k + n + 4 for the quadratic form, 4k + n + 7 for a value, and
#     ceil(log2 N) + 13 for numpy's pairwise mean of N values.
# The rounding of the exponents at the sample points differs from point
# to point, and so shows in se.


def _mc_oracle(f: ExpCombo, nu: DiscreteMeasure, alpha, values, seed, count: int):
    """(estimate, se, tolerance) of int f^2, int f o_a f and int |Df|^2 drho
    from one draw of count points of mu * nu_q: rows 0-2 of values(pts),
    weighted by drho/dq = Z / fbar^2, its row 3 (the comment above)."""
    if f.n_terms == 0:
        return [(0.0, 0.0, 0.0)] * 3
    h, w, y = f.directions, f.weights, nu.atoms
    j, k = np.triu_indices(f.n_terms)
    pairs, s = h[j] + h[k], np.sum(h[j] * h[k], axis=1)
    pi = nu.weights[:, None] * ((2.0 - (j == k)) * np.abs(w[j] * w[k]) * np.exp(s + y @ pairs.T))
    z = float(pi.sum())
    nu_q = DiscreteMeasure(f.dim, (y[:, None, :] + pairs).reshape(-1, f.dim), pi.ravel() / z)

    def weighted(pts):
        vals = values(pts)
        return vals[:3] * (z / vals[3])

    est, se = mc_integral_rho(weighted, nu_q, seed, count)
    hh = np.abs(h)
    scale = float(np.max(np.sum(hh[j] * hh[k], axis=1) + np.abs(y) @ (hh[j] + hh[k]).T))
    n, a = f.dim, nu.n_atoms
    c = (64 + 5 * (n + 2) * scale + a * j.size + a + 6 * f.n_terms + 2 * n + 26
         + math.ceil(math.log2(count)))
    bounds = [1.0, float(np.max(np.exp((alpha - 1.0) * s))), float(np.sum(np.max(h**2, axis=0)))]
    return [(m, d, c * 2.0**-53 * b * z) for m, d, b in zip(est.tolist(), se.tolist(), bounds)]


def _oracle_rows(params, f, nu: DiscreteMeasure, alpha, integrals, tols) -> list[InequalityReport]:
    if isinstance(f, ChaosExpansion):
        raise ValueError("expected exp functions, got kind 'chaos'")
    mc_count = params.get("mc_count", DEFAULT_MC_COUNT)
    check_integer(mc_count, "mc_count", 2)
    mc_seed = params.get("mc_seed", 0)
    for seed in mc_seed if isinstance(mc_seed, list) and mc_seed else [mc_seed]:
        check_integer(seed, "mc_seed (or each entry of a non-empty mc_seed list)", 0)
    h, w = f.directions, f.weights
    half = 0.5 * np.sum(h**2, axis=1)[:, None]
    coefs = np.vstack([w, np.abs(w), h.T * w])
    prod = alpha_exp(f, f, alpha)

    def values(pts):
        # f^2, f o_a f, |Df|^2 and fbar^2: f, fbar and the n partials are
        # rows of one product with the (k, N) matrix of the E(h_j) at the points
        e = h @ pts.T
        e -= half
        v = coefs @ np.exp(e, out=e)
        out = np.empty((4, len(pts)))
        np.multiply(v[0], v[0], out=out[0])
        out[1] = prod.eval(pts)
        np.sum(v[2:] ** 2, axis=0, out=out[2])
        np.multiply(v[1], v[1], out=out[3])
        return out

    # settle the order on quadrature values alone, never the exact side,
    # so that the two routes stay independent
    orders = [default_order(nu.dim) * 2 // 3, default_order(nu.dim)]
    for _ in range(_QUAD_STEPS):
        orders.append(orders[-1] * 3 // 2)
    quads = integrate_rho(lambda pts: values(pts)[:3], nu, gauss_hermite_grid(nu.dim, orders[0]))
    for order in orders[1:]:
        low, quads = quads, integrate_rho(lambda pts: values(pts)[:3], nu, gauss_hermite_grid(nu.dim, order))
        drift = float(np.max(np.abs(quads - low) / np.maximum(1.0, np.abs(quads))))
        if drift <= 0.1 * tols["quadrature"]:
            break
    else:
        raise ValueError(f"quadrature does not settle by order {order}: it moves {drift:.3g} relative "
                         f"from order {orders[-2]}, above a tenth of the quadrature tolerance")
    integrands = zip(_INTEGRALS, quads.tolist(), integrals,
                     _mc_oracle(f, nu, float(alpha), values, mc_seed, mc_count))
    base = {"alpha": float(alpha), "f": f.to_json_dict(), "nu": nu.to_json_dict()}
    rows = []
    for name, quad, exact, (est, se, tol) in integrands:
        qp = {**base, "integral": name, "route": "quadrature", "order": order, "value": quad, "exact": exact}
        rows.append(InequalityReport.from_sides(
            "oracle_triangle", qp, abs(quad - exact), tols["quadrature"] * max(1.0, abs(exact)),
            tolerance=0.0, method_lhs="quadrature", method_rhs="exact"))
        mp = {**base, "integral": name, "route": "mc", "count": mc_count,
              "seed": mc_seed, "value": est, "se": se, "exact": exact}
        rows.append(InequalityReport.from_sides(
            "oracle_triangle", mp, abs(est - exact), tols["mc_sigmas"] * se,
            tolerance=tol, method_lhs="mc", method_rhs="exact"))
    return rows


def _run_oracle(tasks, tols):
    """Cross-validate the closed-form rho-integrals, rho = mu * nu, against quadrature and MC.

    For each of int f^2, int f o_a f, int |Df|^2 the exact value, the
    quadratic form the deficit checks use (_deficit_batch), is compared
    with a tensor Gauss-Hermite value (agreement within the quadrature
    tolerance, relative) and a Monte Carlo value (within mc_sigmas
    standard errors plus a rounding tolerance; _mc_oracle draws once per
    task for the three).  Six rows per task.

    The quadrature order starts at default_order(n), which refuses n > 3,
    and is checked against two thirds of it; until the two agree it rises
    by half, at most _QUAD_STEPS times, and a task whose quadrature does
    not settle raises ValueError.  Its rows record the accepted order.
    """
    return [_oracle_rows(params, *task, tols) for params, task in zip(tasks, _deficit_tasks(tasks))]


def _grid_oracle(cfg):
    for idx, f in enumerate(_functions(cfg, "exp")):
        for jdx, nu in enumerate(cfg.measures):
            if f["dim"] != nu["dim"] or f["dim"] > 2:
                continue
            for a in cfg.alphas:
                yield {
                    "alpha": a, "f": f, "nu": nu, "mc_count": cfg.mc_count,
                    "mc_seed": [cfg.seed, 9000 + idx, jdx],
                }


# the oracle's sweeps: n <= 2 (cap 2) for its tensor grid, up to 3 terms
# and 3 atoms with coordinates in [-1, 1], and a Monte Carlo seed
_ORACLE_BLOCKS = _Blocks(0, lambda b, dims: {"f": _exp_jsons(b, dims, 3, 1.0), "nu": _nu_jsons(b, dims, 3, 1.0),
                                             "mc_seed": b.integers(0, 2**32 - 1).tolist()}, cap=2)


def _random_oracle(cfg, index: int, sweeps: range) -> list[dict]:
    return [{**params, "mc_count": cfg.mc_count} for params in _ORACLE_BLOCKS(cfg, index, sweeps)]


class CheckSpec(NamedTuple):
    """One named check.

    run(tasks, tols) takes the params of any number of tasks, of any
    shapes, and returns each task's rows, in input order, and raises on
    params it cannot compute.  Its parsers and kernels stack the tasks of
    one shape, down to each row's last reduction.  grid(cfg) returns the
    params of the config's grid tasks; random(cfg, index, sweeps), index
    the check's position in CHECK_REGISTRY, returns the params of the
    consecutive random sweeps in the range sweeps, each of which depends
    only on (seed, index, sweep): a _Blocks draw from the check's one
    stream, and for oracle_triangle the config's mc_count.
    """

    describe: str
    run: Callable[[list, dict], list[list[InequalityReport]]]
    grid: Callable[..., Iterable[dict]]
    random: Callable[..., list[dict]]


# A check's position seeds its random streams (_CHECK_INDEX), so new checks
# are appended at the end and existing ones never move.
CHECK_REGISTRY = {
    "beckner_deficit": CheckSpec(
        "interpolation deficit <= (1-alpha) x Dirichlet energy under rho", _run_beckner, _grid_deficit,
        _Blocks(0, lambda b, dims: {"f": _exp_jsons(b, dims), "nu": _nu_jsons(b, dims)})),
    "left_positivity": CheckSpec(
        "int (f o_a f) drho <= int f^2 drho", _run_left, _grid_deficit,
        _Blocks(0, lambda b, dims: {"f": _exp_jsons(b, dims), "nu": _nu_jsons(b, dims)})),
    "ab_psd": CheckSpec(
        "PSD of the deficit matrices A, B and A o B; ab_matrix_b is a Gram V'PV, "
        "PSD by construction, so that row tests eigvalsh", _run_ab, _grid_ab,
        _Blocks(0, lambda b, dims: {"hs": _points(b, dims), "nu": _nu_jsons(b, dims)})),
    "char_gram_psd": CheckSpec(
        "PSD of the characteristic Gram matrix of nu, a Gram V'PV: PSD by "
        "construction, so the row tests eigvalsh", _run_char_gram, _grid_char_gram,
        _Blocks(None, lambda b, dims: {"hs": _points(b, dims), "nu": _nu_jsons(b, dims)})),
    # holder: quadrature enters through the p/q norms, so its sweeps keep
    # n <= 2 (cap 2) and the directions short, well inside the grid
    "holder": CheckSpec(
        "norm inequality for the interpolating product", _run_holder, _grid_holder,
        _Blocks(1, lambda b, dims: {"f": _exp_jsons(b, dims, 3, 0.75), "g": _exp_jsons(b, dims, 3, 0.75)},
                cap=2)),
    "classic_beckner": CheckSpec(
        "coefficient-level interpolation inequality under mu", _run_classic, _grid_classic,
        _Blocks(0, lambda b, dims: {"f": _chaos_jsons(b, dims)})),
    "strong_positivity": CheckSpec(
        "positivity of the scaled density against positive tests", _run_strong_pos, _grid_strong_pos,
        _Blocks(1, lambda b, dims: {"nu": _nu_jsons(b, dims), "phi": _exp_jsons(b, dims, positive=True)})),
    "covariance": CheckSpec(
        "pointwise covariance gap for two convolution densities", _run_covariance, _grid_covariance,
        _Blocks(None, lambda b, dims: {"nu1": _nu_jsons(b, dims, 4), "nu2": _nu_jsons(b, dims, 4),
                                       "phi": _phis(b, dims)})),
    "wick_density_identity": CheckSpec(
        "Wick product of densities is the convolved density", _run_wick_density, _grid_wick_density,
        _Blocks(None, lambda b, dims: {"nu1": _nu_jsons(b, dims, 4), "nu2": _nu_jsons(b, dims, 4)})),
    "g_lambda_bound": CheckSpec(
        "exact G_lambda norm below its closed-form bound", _run_g_lambda, _grid_g_lambda,
        _Blocks(None, lambda b, dims: {"nu": _nu_jsons(b, dims), "lambda": b.uniform(1.0, 2.0).tolist()})),
    "oracle_triangle": CheckSpec(
        "exact vs quadrature vs Monte Carlo on the deficit integrals", _run_oracle, _grid_oracle,
        _random_oracle),
}

_CHECK_INDEX = {name: i for i, name in enumerate(CHECK_REGISTRY)}


def run_check(name: str, params: dict, tols: dict | None = None) -> list[InequalityReport]:
    """Run one named check on JSON-style parameters."""
    if name not in CHECK_REGISTRY:
        raise ValueError(f"unknown check {name!r}; known: {', '.join(sorted(CHECK_REGISTRY))}")
    return CHECK_REGISTRY[name].run([params], resolve_tols(tols or {}))[0]
