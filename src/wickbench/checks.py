"""Inequality and positivity checks, each returning InequalityReport rows.

Checks run on exponential combinations by default (every integral is then
a finite closed form), and the interpolation-deficit checks also accept
chaos expansions (exact through polynomial integrals).  A check that
integrates against rho = mu * nu takes the DiscreteMeasure nu, which
determines rho; its row's params carry nu under the "nu" key.

The deficit checks never build a product function.  Each of their three
integrals is linear in nu, and the alpha-product commutes with translation,
so under rho = mu * sum_i p_i delta_{y_i} each is sum_i p_i times the same
Gaussian integral of the translate f(. + y_i):

  f = sum_j w_j E(h_j): E(h)(. + y) = e^{<h, y>} E(h), and with S = H H'
  and B_jk = sum_i p_i e^{<y_i, h_j + h_k>} the integrals are the forms

    int f^2 drho      = w' (e^S o B) w
    int f o_a f drho  = w' (e^{aS} o B) w
    int |Df|^2 drho   = w' (S o e^S o B) w     (the paper's Schur products)

  f = sum_m c_m H_m: He_r(x + y) = sum_k C(r,k) y^{r-k} He_k(x), so the
  triangular P[k, r] = C(r, k) y_ix^{r-k} along each axis x of f's dense
  coefficient box gives the coefficients d_i of f(. + y_i), and

    (int f^2, int f o_a f, int |Df|^2) drho = sum_i p_i sum_m m! d_im^2 (1, a^|m|, |m|),

  at nu = delta_0 the coefficient form classic_beckner sums in its own loop.

oracle_triangle validates the exponential forms against tensor quadrature
of one point function, which gives f^2, f o_a f and |Df|^2 at the nodes
from the E(h_j) evaluated there once, within a bound derived from the
quadrature itself; the tests also compare both kinds with the product
route (alpha_* / pointwise_* then rho_integral_*).

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
runner's docstring states its inequality.  The few chaos deficit tasks
and classic_beckner's coefficient loop run one task at a time.
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
    check_real,
    index_factorial,
    per_shape,
)
from .expspan import (
    _stack,
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
from .quadrature import (
    default_order,
    gauss_hermite_grid,
    integrate_rho,
    lp_norm_exp,
    tensor_weights_positive,
)
from .report import InequalityReport

DEFAULT_TOLS = {
    "exact": 1e-9,
    "psd": 1e-10,
    "identity": 1e-12,
    "quadrature": 1e-6,
}
# the most times oracle_triangle raises its quadrature order by half:
# to 225 in n = 1, 90 in n = 3; in n = 2 the tensor weights of order 225
# underflow, so there it stops at 150
_QUAD_STEPS = 5


def resolve_tols(overrides) -> dict:
    """DEFAULT_TOLS with overrides applied; ValueError unless each is a known key and a finite number >= 0."""
    if not isinstance(overrides, dict):
        raise ValueError(f"tolerances must be an object, got {overrides!r}")
    bad = set(overrides) - set(DEFAULT_TOLS)
    if bad:
        raise ValueError(f"unknown tolerance keys: {', '.join(sorted(bad))}")
    for key, tol in overrides.items():
        check_real(tol, f"tolerance {key}", 0)
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


def _translation(y: np.ndarray, top: int) -> np.ndarray:
    """P[..., k, r] = C(r, k) y^{r-k}, 0 for k > r, for r, k <= top and each
    coordinate of y: He_r(x + y) = sum_k P[k, r] He_k(x)."""
    ks = np.arange(top + 1)
    binom = np.array([[math.comb(r, k) for r in ks] for k in ks], dtype=float)
    return binom * y[..., None, None] ** np.maximum(ks - ks[:, None], 0)


def _chaos_forms(f: ChaosExpansion, nu: DiscreteMeasure, alpha) -> tuple[float, float, float]:
    """(int f^2 drho, int f o_a f drho, int |Df|^2 drho) of one chaos
    function, from the coefficient box of each translate f(. + y_i)
    (module docstring)."""
    idx = np.array(list(f.coeffs), dtype=int).reshape(len(f.coeffs), f.dim)
    top, n = int(idx.max(initial=0)), f.dim
    grid = np.indices((top + 1,) * n).reshape(n, (top + 1) ** n)
    d = np.zeros((nu.n_atoms, grid.shape[1]))
    d[:, idx @ (top + 1) ** np.arange(n - 1, -1, -1)] = list(f.coeffs.values())
    for p in _translation(nu.atoms, top).transpose(1, 0, 2, 3):
        # P on the leading box axis, whose new index goes last: n steps restore the order
        d = (p @ d.reshape(len(d), top + 1, -1)).transpose(0, 2, 1)
    fact = np.array([math.factorial(k) for k in range(top + 1)], dtype=float)[grid].prod(axis=0)
    sq = fact * d.reshape(len(d), -1) ** 2
    deg = grid.sum(axis=0).astype(float)
    # one reduction per form, so that at a = 1 int f o_a f is bitwise int f^2
    return tuple(float(nu.weights @ (sq @ w)) for w in (np.ones(len(deg)), float(alpha) ** deg, deg))


def _deficit_grams(fs, nus, alphas) -> list:
    """(w, K^1, K^a, K^D) per task of exponential combinations: the Gram
    matrices of the module docstring, one stack per shape (k, a, n)."""

    def grams(idx):
        s, exp_s, b = _exp_gram(_stack(fs, "directions", idx), _stack(nus, "atoms", idx),
                                _stack(nus, "weights", idx))
        alpha = np.array([float(alphas[i]) for i in idx])[:, None, None]
        k1 = exp_s * b
        return zip(_stack(fs, "weights", idx), k1, np.exp(alpha * s) * b, s * k1)

    return per_shape([(f.n_terms, nu.n_atoms, f.dim) for f, nu in zip(fs, nus)], grams)


def _deficit_batch(fs, nus, alphas) -> list[tuple[float, float, float]]:
    """(int f^2 drho, int f o_a f drho, int |Df|^2 drho) per task, each task's
    own: w' K w, or _chaos_forms one task at a time; int f o_1 f is bitwise int f^2."""

    def forms(idx):
        sub = [[seq[i] for i in idx] for seq in (fs, nus, alphas)]
        if isinstance(sub[0][0], ChaosExpansion):
            return [_chaos_forms(*task) for task in zip(*sub)]
        return [tuple(float(c @ k @ c) for k in ks) for c, *ks in _deficit_grams(*sub)]

    return per_shape([type(f) for f in fs], forms)


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


def _deficit_params(tasks):
    """(fs, nus, alphas) of deficit tasks, parsed and checked."""
    fs, nus = functions_from_json([params["f"] for params in tasks]), _nus(tasks)
    alphas = [params["alpha"] for params in tasks]
    for alpha in alphas:
        check_alpha(alpha)
    for f, nu in zip(fs, nus):
        check_dims(f, nu)
    return fs, nus, alphas


_INTEGRALS = ("f_sq", "alpha_prod", "dirichlet")


def _deficit_rows(name, tasks, tols, shown: int, sides):
    """Each deficit task's one row: (lhs, rhs) = sides(alpha, *integrals),
    its params showing the first shown of the three integrals."""
    fs, nus, alphas = _deficit_params(tasks)
    return [[InequalityReport.from_sides(
        name, {"alpha": float(alpha), "f": f.to_json_dict(), "nu": nu.to_json_dict(),
               "integrals": dict(zip(_INTEGRALS[:shown], ints))}, *sides(alpha, *ints), tols["exact"])]
        for f, nu, alpha, ints in zip(fs, nus, alphas, _deficit_batch(fs, nus, alphas))]


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


def _min_eigenvalues(nus, hs, matrices, overflow: str) -> list:
    """The smallest eigenvalues of each task's matrices, matrices(idx, h, y,
    p) building those of one shape's tasks from their stacked rows h,
    atoms y and weights p; OverflowError(overflow) first if an entry is
    not finite, which eigvalsh would hide."""

    def run(idx):
        with np.errstate(over="ignore", invalid="ignore"):
            mats = matrices(idx, np.array([hs[i] for i in idx]), _stack(nus, "atoms", idx),
                            _stack(nus, "weights", idx))
        if not np.isfinite(mats).all():
            raise OverflowError(overflow)
        return np.linalg.eigvalsh(mats)[..., 0].tolist()

    return per_shape([(len(h), nu.n_atoms, nu.dim) for h, nu in zip(hs, nus)], run)


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

    def matrices(idx, h, y, p):
        s, exp_s, b = _exp_gram(h, y, p)
        alpha = np.array([float(alphas[i]) for i in idx])[:, None, None]
        a = np.exp(alpha * s) - exp_s + (1.0 - alpha) * s * exp_s
        mats = np.stack([a, b, a * b], axis=1)
        return 0.5 * (mats + mats.swapaxes(-1, -2))

    min_eigs = _min_eigenvalues(nus, hs, matrices, "ab_psd's matrices overflow: e^<h_j, h_k> or "
                                                   "e^<y_i, h_j + h_k> is past float range")
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

    min_eigs = _min_eigenvalues(nus, hs, lambda idx, h, y, p: char_gram_stack(y, p, h),
                                "char_gram_psd's matrix overflows: a phase <y_i, h_j> is past float range")
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


def _run_classic(tasks, tols):
    """Coefficient form on the Gaussian itself:

        sum_m m! c_m^2 (1 - a^{|m|}) <= (1 - a) sum_m |m| m! c_m^2

    from 1 - a^N <= N (1 - a); equality when the support sits in the
    first chaos.
    """
    rows = []
    for f, task in zip(chaos_from_json([params["f"] for params in tasks]), tasks):
        alpha = task["alpha"]
        check_alpha(alpha)
        lhs = rhs = 0.0
        for m, c in f.coeffs.items():
            base, d = index_factorial(m) * c * c, sum(m)
            lhs += base * (1.0 - alpha**d)
            rhs += base * d * (1.0 - alpha)
        params = {"alpha": float(alpha), "f": f.to_json_dict()}
        rows.append([InequalityReport.from_sides("classic_beckner", params, lhs, rhs, tols["identity"])])
    return rows


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


# oracle_triangle's bound.  A row compares an integral's exact value with its
# quadrature Q at the accepted order (L at the order below) and passes when
#   |Q - exact| <= min(10 |Q - L| + (c u + 2 t) M, tol max(1, |exact|)),
# u = 2^-53: ten times the order check's drift (whose target is a tenth of the
# cap), then what the drift cannot see.  M is the quadrature of the bar of the
# integrand, each coefficient of f and Df at its absolute value: fbar^2,
# fbar o_a fbar or sum_l (sum_j |w_j h_jl| E(h_j))^2, fbar = sum_j |w_j| E(h_j).
# A sum of terms e^{...} E(h_j) E(h_k), it bounds term by term the sums of
# |terms| on both routes; neither route drops a term.
# - Rounding, c u M to first order; c counts on both routes:
#   8 per exp (4 ulp), 6 of them: e^S and two e^{<y,h>} exactly, E(h_j),
#     E(h_k) and e^{(a-1) S_jk} of a quadrature term;
#   (n + 2) X per exponent, the same 6: X = 2 H (Y + 3 H + 1), H the largest
#     |h_j|_1 and Y the largest |y_il|, bounds an exponent's sum of |terms|
#     where M's tilted Gaussians put their mass (E|x_l - y_il - h_jl - h_kl| < 1);
#   the rule: 6 n order for its weights, 100 H for its nodes (hermegauss
#     against mpmath, orders 30 to 225: within 5.5 order u, and 21 u);
#   1 per other rounding: order^n over the nodes, 3 a for B and the atoms,
#     k^2 + 3 k + n + 10 for the quadratic forms and a value's sums.
# - Mass beyond the nodes, missed alike at both orders: the order-m rule is
#   low on E(g) by at most sum_l P(Poisson(lam_l) >= m) <= sum_l e^-lam_l
#   (e lam_l / m)^m of it, lam_l = g_l^2 / 2 < m (the Taylor terms of degree
#   >= 2m, each at most its Gaussian moment); t is the largest over g = h_j +
#   h_k, as E(h_j) E(h_k) = e^{S_jk} E(h_j + h_k).  M's own quadrature is that
#   much low, so 2 t M bounds the miss while t <= 1/2; past it the task is refused.

# the oracle integrates its tasks in blocks of about this many nodes in all
# (one task at order 30 in n = 2, three at order 20): with blocks twice as
# large the heap gave a block's arrays back and faulted them in anew, about
# 12,000 minor faults per oracle_chaos run where this size takes 6,800
_ORACLE_NODES = 1500


def _oracle_integrands(h, w, alpha):
    """The point function of a block of B tasks of one shape for
    integrate_rho: at each task's shifted nodes, pts (B, N, n), its six
    integrands (B, 6, N), f^2, f o_a f and |Df|^2 and then those of the
    bars.  Each E(h_j) is evaluated once per node, and the coefficients of
    f, its partials and their bars, and the pair weights of the products,
    all act on that one array."""
    b, k, n = h.shape
    half = 0.5 * np.sum(h**2, axis=2)[:, :, None]
    coefs = np.concatenate([w[:, None], h.transpose(0, 2, 1) * w[:, None]], axis=1)
    coefs = np.concatenate([coefs, np.abs(coefs)], axis=1)
    # f o_a f = sum_jk w_j w_k e^{(a - 1) S_jk} E(h_j) E(h_k), as E(h_j) o_a
    # E(h_k) = e^{a S_jk} E(h_j + h_k) and E(h_j) E(h_k) = e^{S_jk} E(h_j + h_k)
    ww = w[:, :, None] * w[:, None]
    pair = np.exp((alpha - 1.0)[:, None, None] * (h @ h.transpose(0, 2, 1)))
    pair = np.concatenate([ww * pair, np.abs(ww) * pair], axis=1)

    def fn(pts):
        count = pts.shape[1]
        e = h @ pts.transpose(0, 2, 1)
        e -= half
        ex = np.exp(e, out=e)
        squares = (coefs @ ex).reshape(b, 2, n + 1, count)
        squares *= squares
        terms = (pair @ ex).reshape(b, 2, k, count)
        terms *= ex[:, None]
        out = np.empty((b, 2, 3, count))
        out[:, :, 0] = squares[:, :, 0]
        np.sum(terms, axis=2, out=out[:, :, 1])
        np.sum(squares[:, :, 1:], axis=2, out=out[:, :, 2])
        return out.reshape(b, 6, count)
    return fn


def _oracle_exact(c, k1, ka, kd, h) -> list[list[float]]:
    """The exact sides of one task from its Grams (_deficit_grams): the forms
    of f, as _deficit_batch takes them, then those of its bars at the
    absolute coefficients, sum_l g_l' K^1 g_l for |Dbar f|^2."""
    bar = np.abs(c)
    return [[float(c @ k1 @ c), float(c @ ka @ c), float(c @ kd @ c)],
            [float(bar @ k1 @ bar), float(bar @ ka @ bar), sum(float(g @ k1 @ g) for g in np.abs(h.T * c))]]


def _oracle_group(fs, nus, alphas, tols) -> list:
    """Each task's (order, quadratures, exact values, bounds), the last
    three (2, 3) with rows f and fbar, or its refusal, for T tasks of one
    shape (k, a, n)."""
    h, w = np.array([f.directions for f in fs]), np.array([f.weights for f in fs])
    alpha = np.array([float(a) for a in alphas])
    (count, k, n), a = h.shape, nus[0].n_atoms
    try:  # the dims tensor quadrature refuses, n > 3 and n < 1, refuse every task
        order = default_order(n)
        gauss_hermite_grid(n, order)
    except ValueError as exc:
        return [exc] * count
    out, live = [None] * count, np.ones(count, dtype=bool)

    def quadrature(order):
        # the six quadratures (T, 6) of the live tasks at order, in blocks of
        # about _ORACLE_NODES nodes.  An overflow would make a value inf or NaN
        # at this order and every higher one, so it refuses its task here; a
        # block that overflows runs again task by task, to find its tasks' own
        grid, values = gauss_hermite_grid(n, order), np.empty((count, 6))
        size, idx = max(1, _ORACLE_NODES // len(grid.weights)), np.flatnonzero(live)
        blocks = [idx[start:start + size] for start in range(0, len(idx), size)]
        while blocks:
            block = blocks.pop()
            try:
                with np.errstate(over="raise"):
                    fn = _oracle_integrands(h[block], w[block], alpha[block])
                    values[block] = integrate_rho(fn, [nus[i] for i in block], grid)
            except FloatingPointError as exc:
                if len(block) > 1:
                    blocks += np.split(block, len(block))
                else:
                    out[block[0]] = ValueError(f"quadrature integrand overflows at order {order} ({exc})")
                    live[block[0]] = False
        return values

    # settle the order on quadrature values alone, never the exact side, so
    # that the two routes stay independent; the tasks that have not settled
    # climb on as one stack
    orders, accepted, below = np.zeros(count, dtype=int), np.empty((count, 6)), np.empty((count, 6))
    low, order = order * 2 // 3, order
    lows, quads = quadrature(low), quadrature(order)
    for step in range(_QUAD_STEPS + 1):
        idx = np.flatnonzero(live)
        drifts = np.max(np.abs(quads[idx] - lows[idx]) / np.maximum(1.0, np.abs(quads[idx])), axis=1, initial=0.0)
        for i, drift in zip(idx.tolist(), drifts.tolist()):
            if drift <= 0.1 * tols["quadrature"]:
                orders[i], accepted[i], below[i], live[i] = order, quads[i], lows[i], False
            elif step == _QUAD_STEPS or not tensor_weights_positive(n, order * 3 // 2):
                live[i] = False
                out[i] = ValueError(f"quadrature does not settle by order {order}: it moves {drift:.3g} relative "
                                    f"from order {low}, above a tenth of the quadrature tolerance")
        if not live.any():
            break
        low, order, lows = order, order * 3 // 2, quads
        quads = quadrature(order)

    done = np.flatnonzero(orders)
    if not len(done):
        return out
    h, orders = h[done], orders[done]
    quads, lows = accepted[done].reshape(-1, 2, 3), below[done].reshape(-1, 2, 3)
    grams = _deficit_grams(*([seq[i] for i in done] for seq in (fs, nus, alphas)))
    exact = np.array([_oracle_exact(*g, h_i) for g, h_i in zip(grams, h)])
    big_h = np.max(np.sum(np.abs(h), axis=2), axis=1, initial=0.0)
    x = 2.0 * big_h * (np.array([np.max(np.abs(nus[i].atoms)) for i in done]) + 3.0 * big_h + 1.0)
    c = 6 * (8 + (n + 2) * x) + 6 * n * orders + 100 * big_h + orders**n + 3 * a + k * k + 3 * k + n + 10
    m = orders[:, None, None, None]
    lam = np.minimum(0.5 * (h[:, :, None] + h[:, None]) ** 2, m)
    t = np.max(np.sum((np.e * lam / m) ** m * np.exp(-lam), axis=-1), axis=(1, 2), initial=0.0)
    cap = tols["quadrature"] * np.maximum(1.0, np.abs(exact))
    bounds = np.minimum(10.0 * np.abs(quads - lows) + (c * 2.0**-53 + 2.0 * t)[:, None, None] * quads[:, 1:], cap)
    for i, *result, tail in zip(done.tolist(), orders.tolist(), quads.tolist(), exact.tolist(), bounds.tolist(),
                                t.tolist()):
        out[i] = result if tail <= 0.5 else ValueError(
            f"quadrature nodes miss the mass at order {result[0]}: tail term t = {tail:.3g} > 1/2")
    return out


def _oracle_rows(f, nu, alpha, order, quads, exact, bounds) -> list[InequalityReport]:
    base = {"alpha": float(alpha), "f": f.to_json_dict(), "nu": nu.to_json_dict(), "route": "quadrature",
            "order": order}
    rows = []
    for name, qs, xs, bs in zip(_INTEGRALS, zip(*quads), zip(*exact), zip(*bounds)):
        for tag, quad, ex, bound in zip(({}, {"fbar": True}), qs, xs, bs):
            params = {**base, **tag, "integral": name, "value": quad, "exact": ex}
            rows.append(InequalityReport.from_sides("oracle_triangle", params, abs(quad - ex), bound,
                                                    tolerance=0.0, method_lhs="quadrature", method_rhs="exact"))
    return rows


def _run_oracle(tasks, tols):
    """Cross-validate the closed-form rho-integrals, rho = mu * nu, against quadrature.

    The exact values of int f^2, int f o_a f and int |Df|^2, the quadratic
    forms the deficit checks use (_deficit_grams), and those of the bars
    (fbar^2, fbar o_a fbar, |Dbar f|^2: rows tagged "fbar", one-signed term
    by term) are each compared with a tensor Gauss-Hermite value, within
    the bound the comment above derives.  Six rows per task.

    The quadrature order starts at default_order(n), which refuses n > 3,
    and is checked against two thirds of it; until the six integrals
    agree within a tenth of the quadrature tolerance it rises by half, at
    most _QUAD_STEPS times.  Its rows record the accepted order.  The
    tasks of one shape (k, a, n) are one stack, integrated in blocks, and
    climb the orders together; each gets the bits it gets alone.  A task
    whose quadrature does not settle or overflows, or whose nodes miss the
    mass (t > 1/2 at the accepted order), is refused: the first refused
    task raises ValueError, with the message it raises alone.  A chaos
    function is refused before any compute, as a malformed one is.
    """
    fs, nus, alphas = _deficit_params(tasks)
    if any(isinstance(f, ChaosExpansion) for f in fs):
        raise ValueError("expected exp functions, got kind 'chaos'")
    results = per_shape([(f.n_terms, nu.n_atoms, f.dim) for f, nu in zip(fs, nus)], lambda idx: _oracle_group(
        *([seq[i] for i in idx] for seq in (fs, nus, alphas)), tols))
    rows = []
    for f, nu, alpha, result in zip(fs, nus, alphas, results):
        if isinstance(result, Exception):
            raise result
        rows.append(_oracle_rows(f, nu, alpha, *result))
    return rows


def _grid_oracle(cfg):
    return (p for p in _grid_deficit(cfg) if _fn_kind(p["f"]) == "exp" and p["f"]["dim"] <= 2)


def _oracle_fields(block: _Block, dims) -> dict:
    # n <= 2 (cap 2), up to 3 terms and 3 atoms in [-1, 1]; the last column,
    # once a Monte Carlo seed, stays unused so that every sweep keeps its draws
    fields = {"f": _exp_jsons(block, dims, 3, 1.0), "nu": _nu_jsons(block, dims, 3, 1.0)}
    block.used += 1
    return fields


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
    stream.
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
        "exact vs quadrature, with a derived bound, on the deficit integrals of f and fbar = sum |w_j| E(h_j)",
        _run_oracle, _grid_oracle, _Blocks(0, _oracle_fields, cap=2)),
}

_CHECK_INDEX = {name: i for i, name in enumerate(CHECK_REGISTRY)}


def run_check(name: str, params: dict, tols: dict | None = None) -> list[InequalityReport]:
    """Run one named check on JSON-style parameters."""
    if name not in CHECK_REGISTRY:
        raise ValueError(f"unknown check {name!r}; known: {', '.join(sorted(CHECK_REGISTRY))}")
    return CHECK_REGISTRY[name].run([params], resolve_tols(tols or {}))[0]
