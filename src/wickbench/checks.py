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
    int |Df|^2 drho   = sum_l d_l' K^1 d_l  over the indices m - e_l,
                        with weights (d_l)_{m - e_l} = m_l c_m.

oracle_triangle validates these forms, the ones the checks use, against
quadrature and Monte Carlo integrals of the product functions
(alpha_exp, gradient_exp); the tests also compare them with the product
route (alpha_* / pointwise_* then rho_integral_*).

CHECK_REGISTRY maps each check name to one CheckSpec: its description,
its runner on JSON parameters, and the grid and random generators that
expand a suite config into its tasks.  The harness, the CLI and the
workers all read that one table, so a check's JSON schema lives here.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .chaos import ChaosExpansion, check_alpha, check_dims, index_factorial
from .expspan import ExpCombo, alpha_exp, exp_eval, gamma_exp, gradient_exp, mu_inner_exp
from .measures import (
    DiscreteMeasure,
    _char_gram_rows,
    g_lambda_norm,
    gamma_xi,
    vector_rows,
    wick_density_identity_check,
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


def _fn_kind(data: dict) -> str:
    """The "kind" of a JSON function; without one, chaos terms carry "m"."""
    kind = data.get("kind")
    if kind is None:
        terms = data.get("terms", [])
        kind = "chaos" if terms and "m" in terms[0] else "exp"
    return kind


def function_from_json(data) -> ExpCombo | ChaosExpansion:
    kind = _fn_kind(data)
    if kind == "exp":
        return ExpCombo.from_json_dict(data)
    if kind == "chaos":
        return ChaosExpansion.from_json_dict(data)
    raise ValueError(f"unknown function kind {kind!r}")


def _exp_gram(h: np.ndarray, nu: DiscreteMeasure):
    """S = H H' (symmetrised), e^S and B_jk = sum_i p_i e^{<y_i, h_j + h_k>}."""
    s = h @ h.T
    s = 0.5 * (s + s.T)
    v = np.exp(nu.atoms @ h.T)
    return s, np.exp(s), v.T @ (nu.weights[:, None] * v)


def _hermite_pair_tables(y: np.ndarray, top: int, alpha: float) -> np.ndarray:
    """T[i, x, r, s] = T_alpha[r, s](y_ix) for r, s <= top (module docstring)."""
    ks = np.arange(top + 1)
    binom = np.array([[math.comb(r, k) for k in ks] for r in ks], dtype=float)
    fact = np.array([math.factorial(k) for k in ks], dtype=float)
    coef = binom[:, None, :] * binom[None, :, :] * fact * float(alpha) ** ks
    expo = np.maximum(ks[:, None, None] + ks[None, :, None] - 2 * ks, 0)
    powers = y[..., None] ** np.arange(2 * top + 1)
    return np.einsum("rsk,ixrsk->ixrs", coef, powers[..., expo])


def _deficit_integrals(f, nu: DiscreteMeasure, alpha: float):
    """(int f^2 drho, int f o_a f drho, int |Df|^2 drho), rho = mu * nu, as the
    quadratic forms of the module docstring; int f o_1 f is bitwise int f^2."""
    if not isinstance(f, (ExpCombo, ChaosExpansion)):
        raise TypeError(f"expected ExpCombo or ChaosExpansion, got {type(f).__name__}")
    check_dims(f, nu)
    if isinstance(f, ExpCombo):
        w = f.weights
        s, _, b = _exp_gram(f.directions, nu)
        k1, ka = (np.exp(a * s) * b for a in (1.0, alpha))
        return float(w @ k1 @ w), float(w @ ka @ w), float(w @ (s * k1) @ w)
    idx = np.array(list(f.coeffs), dtype=int).reshape(-1, f.dim)
    c = np.array(list(f.coeffs.values()), dtype=float)
    p = nu.weights
    top = int(idx.max(initial=0))
    t1, ta = (_hermite_pair_tables(nu.atoms, top, a) for a in (1.0, alpha))

    def form(tables, rows, weights):
        gram = np.ones((p.size, len(rows), len(rows)))
        for x in range(f.dim):
            gram *= tables[:, x, rows[:, x, None], rows[None, :, x]]
        return float(weights @ np.tensordot(p, gram, axes=1) @ weights)

    energy = 0.0
    for x in range(f.dim):
        keep = idx[:, x] > 0
        rows = idx[keep] - np.eye(f.dim, dtype=int)[x]
        energy += form(t1, rows, idx[keep, x] * c[keep])
    return form(t1, idx, c), form(ta, idx, c), energy


def beckner_deficit(f, nu: DiscreteMeasure, alpha: float,
                    tolerance: float = DEFAULT_TOLS["exact"]) -> InequalityReport:
    """int f^2 drho - int (f o_a f) drho <= (1 - a) int |Df|^2 drho.

    The interpolation-deficit inequality for rho = mu * nu; at alpha = 1
    both sides vanish, at alpha = 0 it is the Wick-form bound.
    """
    check_alpha(alpha)
    sq, ap, en = _deficit_integrals(f, nu, alpha)
    params = {
        "alpha": float(alpha),
        "f": f.to_json_dict(),
        "nu": nu.to_json_dict(),
        "integrals": {"f_sq": sq, "alpha_prod": ap, "dirichlet": en},
    }
    return InequalityReport.from_sides("beckner_deficit", params,
                                       lhs=sq - ap, rhs=(1.0 - alpha) * en,
                                       tolerance=tolerance)


def left_positivity(f, nu: DiscreteMeasure, alpha: float,
                    tolerance: float = DEFAULT_TOLS["exact"]) -> InequalityReport:
    """int (f o_a f) drho <= int f^2 drho, rho = mu * nu; equality at alpha = 1."""
    check_alpha(alpha)
    sq, ap, _ = _deficit_integrals(f, nu, alpha)
    params = {
        "alpha": float(alpha),
        "f": f.to_json_dict(),
        "nu": nu.to_json_dict(),
        "integrals": {"f_sq": sq, "alpha_prod": ap},
    }
    return InequalityReport.from_sides("left_positivity", params,
                                       lhs=ap, rhs=sq, tolerance=tolerance)


def ab_matrix_check(hs, nu: DiscreteMeasure, alpha: float,
                    tolerance: float = DEFAULT_TOLS["psd"]) -> list[InequalityReport]:
    """PSD certificates for the two proof matrices and their Hadamard product.

        a_jk = e^{a s} - e^{s} + (1-a) s e^{s},  s = <h_j, h_k>
        b_jk = int E(h_j) wick E(h_k) drho = sum_i p_i e^{<y_i, h_j + h_k>}

    The deficit quadratic form is v' (A o B) v, so nonnegative eigenvalues
    here are what make the main inequality work.
    """
    check_alpha(alpha)
    h = vector_rows(hs, nu.dim)
    s, exp_s, b = _exp_gram(h, nu)
    a = np.exp(alpha * s) - exp_s + (1.0 - alpha) * s * exp_s
    params = {
        "alpha": float(alpha),
        "hs": h.tolist(),
        "nu": nu.to_json_dict(),
    }
    rows = []
    for name, mat in (("ab_matrix_a", a), ("ab_matrix_b", b), ("ab_matrix_hadamard", a * b)):
        min_eig = float(np.linalg.eigvalsh(0.5 * (mat + mat.T))[0])
        rows.append(InequalityReport.from_sides(name, params, 0.0, min_eig, tolerance))
    return rows


def char_gram_psd_check(nu: DiscreteMeasure, hs,
                        tolerance: float = DEFAULT_TOLS["psd"]) -> InequalityReport:
    """Minimum eigenvalue of the characteristic Gram matrix is >= 0."""
    h = vector_rows(hs, nu.dim)
    min_eig = float(np.linalg.eigvalsh(_char_gram_rows(nu, h))[0])
    params = {"hs": h.tolist(), "nu": nu.to_json_dict()}
    return InequalityReport.from_sides("char_gram_psd", params, 0.0, min_eig, tolerance)


def holder_check(f: ExpCombo, g: ExpCombo, hp: HolderParams,
                 tol_exact: float = DEFAULT_TOLS["exact"],
                 tol_quad: float = DEFAULT_TOLS["quadrature"]) -> InequalityReport:
    """||Gamma(sqrt((1+a)/2)) (f o_a g)||_r <= ||f||_p ||g||_q.

    Norms take exact routes where available (single exponentials at any
    exponent, r = 2, even integer exponents); otherwise quadrature, and
    the row tolerance widens accordingly.
    """
    ok, residual = holder_relation_check(hp)
    if not ok:
        raise ValueError(f"exponents fail the admissibility relation, residual {residual:g}")
    prod = gamma_exp(math.sqrt((1.0 + hp.alpha) / 2.0), alpha_exp(f, g, hp.alpha))
    (lhs, m_lhs), (norm_f, m_f), (norm_g, m_g) = (
        lp_norm_exp(fn, e) for fn, e in ((prod, hp.r), (f, hp.p), (g, hp.q)))
    m_rhs = "exact" if (m_f == "exact" and m_g == "exact") else "quadrature"
    tol = tol_exact if (m_lhs == "exact" and m_rhs == "exact") else tol_quad
    params = {
        "alpha": float(hp.alpha),
        "p": float(hp.p), "q": float(hp.q), "r": float(hp.r),
        "f": f.to_json_dict(), "g": g.to_json_dict(),
    }
    return InequalityReport.from_sides("holder", params, lhs, norm_f * norm_g, tol, m_lhs, m_rhs)


def classic_beckner_coeff_check(f: ChaosExpansion, alpha: float,
                                tolerance: float = DEFAULT_TOLS["identity"]) -> InequalityReport:
    """Coefficient form on the Gaussian itself:

        sum_m m! c_m^2 (1 - a^{|m|}) <= (1 - a) sum_m |m| m! c_m^2

    from 1 - a^N <= N (1 - a); equality when the support sits in the
    first chaos.
    """
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


def strong_positivity_check(nu: DiscreteMeasure, alpha: float, phi: ExpCombo,
                            tolerance: float = DEFAULT_TOLS["exact"]) -> InequalityReport:
    """<Gamma(1/sqrt(a)) xi, phi> >= 0 for nonnegative test functions phi.

    phi must be a positive-weight combination (those are nonnegative
    functions); the pairing is then a positive sum by inspection.
    """
    if np.any(phi.weights < 0):
        raise ValueError("phi must have nonnegative weights")
    pairing = mu_inner_exp(gamma_xi(nu, alpha), phi)
    params = {"alpha": float(alpha), "nu": nu.to_json_dict(), "phi": phi.to_json_dict()}
    return InequalityReport.from_sides("strong_positivity", params, 0.0, pairing, tolerance)


def covariance_gap(nu1: DiscreteMeasure, nu2: DiscreteMeasure, phi: ExpCombo,
                   tolerance: float = DEFAULT_TOLS["psd"]) -> InequalityReport:
    """<xi1 xi2, phi> - <xi1 wick xi2, phi> - sum_k <d_k xi1 wick d_k xi2, phi> >= 0.

    For discrete measures and exponential phi the whole expression
    collapses termwise to

        sum_ij p_i q_j M_ij (e^{s_ij} - 1 - s_ij),  s_ij = <y_i, z_j>,

    with M_ij = <E(y_i + z_j), phi> > 0, so every summand is nonnegative
    and the computed gap cannot go negative by cancellation.
    """
    check_dims(nu1, nu2)
    check_dims(phi, nu1)
    if np.any(phi.weights < 0):
        raise ValueError("phi must have nonnegative weights")
    s = nu1.atoms @ nu2.atoms.T
    bracket = np.expm1(s) - s
    pair_w = np.outer(nu1.weights, nu2.weights)
    test = np.zeros_like(s)
    dir_sums = nu1.atoms[:, None, :] + nu2.atoms[None, :, :]
    for c, gdir in zip(phi.weights, phi.directions):
        test += c * np.exp(dir_sums @ gdir)
    gap = float(np.sum(pair_w * test * bracket))
    params = {"nu1": nu1.to_json_dict(), "nu2": nu2.to_json_dict(), "phi": phi.to_json_dict()}
    return InequalityReport.from_sides("covariance", params, 0.0, gap, tolerance)


def g_lambda_bound_check(nu: DiscreteMeasure, lam: float,
                         tolerance: float = DEFAULT_TOLS["exact"]) -> InequalityReport:
    """sqrt of the exact squared G_lambda norm is below the one-sided bound."""
    norm_sq, bound = g_lambda_norm(nu, lam)
    params = {"lambda": float(lam), "nu": nu.to_json_dict()}
    return InequalityReport.from_sides("g_lambda_bound", params,
                                       math.sqrt(norm_sq), bound, tolerance)


def oracle_triangle(f: ExpCombo, nu: DiscreteMeasure, alpha: float,
                    quad_order: int | None = None, mc_seed=0, mc_count: int = 100_000,
                    rel_tol: float = DEFAULT_TOLS["quadrature"],
                    sigmas: float = DEFAULT_TOLS["mc_sigmas"]) -> list[InequalityReport]:
    """Cross-validate the closed-form rho-integrals, rho = mu * nu, against quadrature and MC.

    For each of int f^2, int f o_a f, int |Df|^2 the exact value, the
    quadratic form the deficit checks use (_deficit_integrals), is
    compared with a tensor Gauss-Hermite value (agreement within rel_tol
    relative) and a Monte Carlo value (within sigmas standard errors).
    Six rows per call.
    """
    check_alpha(alpha)
    order = default_order(nu.dim) if quad_order is None else quad_order
    grid = gauss_hermite_grid(nu.dim, order)
    grads = gradient_exp(f)
    prod = alpha_exp(f, f, alpha)

    def f_sq(pts):
        vals = exp_eval(f, pts)
        vals *= vals
        return vals

    def dirichlet(pts):
        total = np.zeros(np.atleast_2d(pts).shape[0])
        for g in grads:
            vals = exp_eval(g, pts)
            vals *= vals
            total += vals
        return total

    integrands = zip(("f_sq", "alpha_prod", "dirichlet"), (f_sq, prod.eval, dirichlet),
                     _deficit_integrals(f, nu, alpha))
    base = {"alpha": float(alpha), "f": f.to_json_dict(), "nu": nu.to_json_dict()}
    rows = []
    for idx, (name, fn, exact) in enumerate(integrands):
        quad = integrate_rho(fn, nu, grid)
        qp = {**base, "integral": name, "route": "quadrature", "order": order, "value": quad, "exact": exact}
        rows.append(InequalityReport.from_sides(
            "oracle_triangle", qp, abs(quad - exact), rel_tol * max(1.0, abs(exact)),
            tolerance=0.0, method_lhs="quadrature", method_rhs="exact"))
        est, se = mc_integral_rho(fn, nu, [mc_seed, idx], mc_count)
        mp = {**base, "integral": name, "route": "mc", "count": mc_count,
              "seed": mc_seed, "value": est, "se": se, "exact": exact}
        rows.append(InequalityReport.from_sides(
            "oracle_triangle", mp, abs(est - exact), sigmas * se,
            tolerance=0.0, method_lhs="mc", method_rhs="exact"))
    return rows


# ---------------------------------------------------------------------------
# check specs: JSON params -> report rows, and suite config -> task params


def _nu(params, key="nu") -> DiscreteMeasure:
    return DiscreteMeasure.from_json_dict(params[key])


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


# Random generators draw from the task's rng in a fixed order; reordering
# the draws of an existing check changes its sweeps and the report bytes.

COORD_SCALE = 1.5


def _rand_alpha(rng, low_index=0) -> float:
    return int(rng.integers(low_index, 11)) / 10


def _rand_dim(rng, cfg, cap=3) -> int:
    if cfg.dim is not None:
        return min(cfg.dim, cap)
    return int(rng.integers(1, cap + 1))


def _rand_nu_json(rng, n, max_atoms=5, scale=COORD_SCALE) -> dict:
    count = int(rng.integers(1, max_atoms + 1))
    atoms = rng.uniform(-scale, scale, size=(count, n))
    weights = rng.dirichlet(np.ones(count))
    return {"dim": n, "atoms": atoms.tolist(), "weights": weights.tolist()}


def _rand_exp_json(rng, n, max_terms=4, scale=COORD_SCALE, positive=False) -> dict:
    count = int(rng.integers(1, max_terms + 1))
    dirs = rng.uniform(-scale, scale, size=(count, n))
    lo = 0.1 if positive else -1.5
    coefs = rng.uniform(lo, 1.5, size=count)
    return {
        "kind": "exp", "dim": n,
        "terms": [{"coef": float(c), "h": d.tolist()} for c, d in zip(coefs, dirs)],
    }


def _rand_chaos_json(rng, n, max_terms=10, max_degree=8) -> dict:
    count = int(rng.integers(1, max_terms + 1))
    terms = []
    for _ in range(count):
        degree = int(rng.integers(0, max_degree + 1))
        m = rng.multinomial(degree, np.full(n, 1.0 / n))
        terms.append({"m": [int(x) for x in m], "c": float(rng.uniform(-1.0, 1.0))})
    return {"kind": "chaos", "dim": n, "terms": terms}


def _rand_vectors(rng, n, max_count=6, scale=COORD_SCALE) -> list:
    count = int(rng.integers(1, max_count + 1))
    return rng.uniform(-scale, scale, size=(count, n)).tolist()


def _run_beckner(params, tols):
    return [beckner_deficit(function_from_json(params["f"]), _nu(params),
                            params["alpha"], tolerance=tols["exact"])]


def _run_left(params, tols):
    return [left_positivity(function_from_json(params["f"]), _nu(params),
                            params["alpha"], tolerance=tols["exact"])]


def _grid_deficit(cfg):
    for f in cfg.functions:
        for nu in cfg.measures:
            if f["dim"] != nu["dim"]:
                continue
            for a in cfg.alphas:
                yield {"alpha": a, "f": f, "nu": nu}


def _random_deficit(rng, cfg, sweep):
    n = _rand_dim(rng, cfg)
    return {"alpha": _rand_alpha(rng), "f": _rand_exp_json(rng, n),
            "nu": _rand_nu_json(rng, n)}


def _run_ab(params, tols):
    return ab_matrix_check(params["hs"], _nu(params), params["alpha"], tolerance=tols["psd"])


def _grid_ab(cfg):
    for p in _grid_char_gram(cfg):
        for a in cfg.alphas:
            yield {"alpha": a, **p}


def _random_ab(rng, cfg, sweep):
    n = _rand_dim(rng, cfg)
    return {"alpha": _rand_alpha(rng), "hs": _rand_vectors(rng, n),
            "nu": _rand_nu_json(rng, n)}


def _run_char_gram(params, tols):
    return [char_gram_psd_check(_nu(params), params["hs"], tolerance=tols["psd"])]


def _grid_char_gram(cfg):
    for f in _functions(cfg, "exp"):
        hs = [t["h"] for t in f["terms"]]
        for nu in cfg.measures:
            if f["dim"] == nu["dim"]:
                yield {"hs": hs, "nu": nu}


def _random_char_gram(rng, cfg, sweep):
    n = _rand_dim(rng, cfg)
    return {"hs": _rand_vectors(rng, n), "nu": _rand_nu_json(rng, n)}


def _holder_inputs(params):
    alpha = params["alpha"]
    if "p" in params:
        hp = HolderParams(params["p"], params["q"], params["r"], alpha)
    else:
        hp = HolderParams.conjugate_family(alpha)
    f = function_from_json(params["f"])
    g = function_from_json(params["g"]) if "g" in params else f
    return f, g, hp


def _run_holder(params, tols):
    f, g, hp = _holder_inputs(params)
    return [holder_check(f, g, hp, tol_exact=tols["exact"], tol_quad=tols["quadrature"])]


def _grid_holder(cfg):
    for f in _functions(cfg, "exp"):
        for a in cfg.alphas:
            yield {"alpha": a, "f": f}


def _random_holder(rng, cfg, sweep):
    # quadrature enters through the p/q norms: keep n <= 2 and the
    # directions short so the integrands stay well inside the grid
    n = _rand_dim(rng, cfg, cap=2)
    return {"alpha": _rand_alpha(rng, low_index=1),
            "f": _rand_exp_json(rng, n, max_terms=3, scale=0.75),
            "g": _rand_exp_json(rng, n, max_terms=3, scale=0.75)}


def _run_classic(params, tols):
    return [classic_beckner_coeff_check(function_from_json(params["f"]),
                                        params["alpha"], tolerance=tols["identity"])]


def _grid_classic(cfg):
    for f in _functions(cfg, "chaos"):
        for a in cfg.alphas:
            yield {"alpha": a, "f": f}


def _random_classic(rng, cfg, sweep):
    n = _rand_dim(rng, cfg)
    return {"alpha": _rand_alpha(rng), "f": _rand_chaos_json(rng, n)}


def _run_strong_pos(params, tols):
    return [strong_positivity_check(_nu(params), params["alpha"],
                                    function_from_json(params["phi"]), tolerance=tols["exact"])]


def _grid_strong_pos(cfg):
    for nu in cfg.measures:
        for phi in _positive_tests(cfg, nu["dim"]):
            for a in cfg.alphas:
                if a > 0:
                    yield {"alpha": a, "nu": nu, "phi": phi}


def _random_strong_pos(rng, cfg, sweep):
    n = _rand_dim(rng, cfg)
    return {"alpha": _rand_alpha(rng, low_index=1), "nu": _rand_nu_json(rng, n),
            "phi": _rand_exp_json(rng, n, positive=True)}


def _run_covariance(params, tols):
    return [covariance_gap(_nu(params, "nu1"), _nu(params, "nu2"),
                           function_from_json(params["phi"]), tolerance=tols["psd"])]


def _grid_covariance(cfg):
    for nu1, nu2 in _pairs(cfg.measures):
        if nu1["dim"] != nu2["dim"]:
            continue
        for phi in _positive_tests(cfg, nu1["dim"]):
            yield {"nu1": nu1, "nu2": nu2, "phi": phi}


def _random_covariance(rng, cfg, sweep):
    n = _rand_dim(rng, cfg)
    nu1 = _rand_nu_json(rng, n, max_atoms=4)
    nu2 = _rand_nu_json(rng, n, max_atoms=4)
    h = rng.uniform(-COORD_SCALE, COORD_SCALE, n).tolist() if rng.integers(0, 2) else [0.0] * n
    return {"nu1": nu1, "nu2": nu2, "phi": {"kind": "exp", "dim": n, "terms": [{"coef": 1.0, "h": h}]}}


def _run_wick_density(params, tols):
    return [wick_density_identity_check(_nu(params, "nu1"), _nu(params, "nu2"),
                                        tolerance=tols["identity"])]


def _grid_wick_density(cfg):
    for nu1, nu2 in _pairs(cfg.measures):
        if nu1["dim"] == nu2["dim"]:
            yield {"nu1": nu1, "nu2": nu2}


def _random_wick_density(rng, cfg, sweep):
    n = _rand_dim(rng, cfg)
    return {"nu1": _rand_nu_json(rng, n, max_atoms=4),
            "nu2": _rand_nu_json(rng, n, max_atoms=4)}


def _run_g_lambda(params, tols):
    return [g_lambda_bound_check(_nu(params), params["lambda"], tolerance=tols["exact"])]


def _grid_g_lambda(cfg):
    for nu in cfg.measures:
        for a in cfg.alphas:
            yield {"nu": nu, "lambda": float(np.sqrt(2.0 / (1.0 + a)))}


def _random_g_lambda(rng, cfg, sweep):
    n = _rand_dim(rng, cfg)
    return {"nu": _rand_nu_json(rng, n), "lambda": float(rng.uniform(1.0, 2.0))}


def _run_oracle(params, tols):
    return oracle_triangle(
        function_from_json(params["f"]), _nu(params), params["alpha"],
        quad_order=params.get("quad_order"), mc_seed=params.get("mc_seed", 0),
        mc_count=params.get("mc_count", 100_000),
        rel_tol=tols["quadrature"], sigmas=tols["mc_sigmas"])


def _grid_oracle(cfg):
    for idx, f in enumerate(_functions(cfg, "exp")):
        for jdx, nu in enumerate(cfg.measures):
            if f["dim"] != nu["dim"] or f["dim"] > 2:
                continue
            for a in cfg.alphas:
                yield {
                    "alpha": a, "f": f, "nu": nu,
                    "quad_order": cfg.quad_order, "mc_count": cfg.mc_count,
                    "mc_seed": [cfg.seed, 9000 + idx, jdx],
                }


def _random_oracle(rng, cfg, sweep):
    n = _rand_dim(rng, cfg, cap=2)
    return {"alpha": _rand_alpha(rng),
            "f": _rand_exp_json(rng, n, max_terms=3, scale=1.0),
            "nu": _rand_nu_json(rng, n, max_atoms=3, scale=1.0),
            "quad_order": cfg.quad_order, "mc_count": cfg.mc_count,
            "mc_seed": [cfg.seed, _CHECK_INDEX["oracle_triangle"], sweep, 7]}


class CheckSpec(NamedTuple):
    """One named check.

    run(params, tols) returns the rows of one task, and raises on params
    it cannot compute; grid(cfg) returns the params of the config's grid
    tasks; random(rng, cfg, sweep) draws the params of one random sweep
    from rng.
    """

    describe: str
    run: Callable[[dict, dict], list[InequalityReport]]
    grid: Callable[..., Iterable[dict]]
    random: Callable[..., dict]


# A check's position seeds its random streams (_CHECK_INDEX), so new checks
# are appended at the end and existing ones never move.
CHECK_REGISTRY = {
    "beckner_deficit": CheckSpec("interpolation deficit <= (1-alpha) x Dirichlet energy under rho",
                                 _run_beckner, _grid_deficit, _random_deficit),
    "left_positivity": CheckSpec("int (f o_a f) drho <= int f^2 drho",
                                 _run_left, _grid_deficit, _random_deficit),
    "ab_psd": CheckSpec("PSD of the deficit matrices A, B and their Hadamard product",
                        _run_ab, _grid_ab, _random_ab),
    "char_gram_psd": CheckSpec("PSD of the characteristic Gram matrix of nu",
                               _run_char_gram, _grid_char_gram, _random_char_gram),
    "holder": CheckSpec("norm inequality for the interpolating product",
                        _run_holder, _grid_holder, _random_holder),
    "classic_beckner": CheckSpec("coefficient-level interpolation inequality under mu",
                                 _run_classic, _grid_classic, _random_classic),
    "strong_positivity": CheckSpec("positivity of the scaled density against positive tests",
                                   _run_strong_pos, _grid_strong_pos, _random_strong_pos),
    "covariance": CheckSpec("pointwise covariance gap for two convolution densities",
                            _run_covariance, _grid_covariance, _random_covariance),
    "wick_density_identity": CheckSpec("Wick product of densities is the convolved density",
                                       _run_wick_density, _grid_wick_density, _random_wick_density),
    "g_lambda_bound": CheckSpec("exact G_lambda norm below its closed-form bound",
                                _run_g_lambda, _grid_g_lambda, _random_g_lambda),
    "oracle_triangle": CheckSpec("exact vs quadrature vs Monte Carlo on the deficit integrals",
                                 _run_oracle, _grid_oracle, _random_oracle),
}

_CHECK_INDEX = {name: i for i, name in enumerate(CHECK_REGISTRY)}


def run_check(name: str, params: dict, tols: dict | None = None) -> list[InequalityReport]:
    """Run one named check on JSON-style parameters."""
    if name not in CHECK_REGISTRY:
        raise ValueError(f"unknown check {name!r}; known: {', '.join(sorted(CHECK_REGISTRY))}")
    return CHECK_REGISTRY[name].run(params, {**DEFAULT_TOLS, **(tols or {})})
