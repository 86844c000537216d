"""Inequality and positivity checks, each returning InequalityReport rows.

Checks run on exponential combinations by default (every integral is then
a finite closed form), and the interpolation-deficit checks also accept
chaos expansions (exact through polynomial integrals).

CHECK_REGISTRY maps each check name to one CheckSpec: its description,
its runner on JSON parameters, and the grid and random generators that
expand a suite config into its tasks.  The harness, the CLI and the
workers all read that one table, so a check's JSON schema lives here.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .chaos import ChaosExpansion, gradient
from .expspan import ExpCombo, alpha_exp, exp_eval, gamma_exp, gradient_exp, mu_inner_exp, pointwise_exp
from .measures import (
    ConvolutionMeasure,
    DiscreteMeasure,
    char_gram,
    g_lambda_norm,
    gamma_xi,
    rho_integral_chaos,
    rho_integral_exp,
    wick_density_identity_check,
)
from .products import HolderParams, alpha_chaos, holder_relation_check, pointwise_chaos
from .quadrature import gauss_hermite_grid, default_order, integrate_rho, lp_norm_exp, mc_integral_rho
from .report import InequalityReport

DEFAULT_TOLS = {
    "exact": 1e-9,
    "psd": 1e-10,
    "identity": 1e-12,
    "quadrature": 1e-6,
    "mc_sigmas": 4.0,
}


def _fn_json(f) -> dict:
    kind = "exp" if isinstance(f, ExpCombo) else "chaos"
    return {"kind": kind, **f.to_json_dict()}


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


def _self_product_integrals(f, rho: ConvolutionMeasure, alpha: float):
    """(int f^2 drho, int f o_a f drho, int |Df|^2 drho), all exact."""
    if isinstance(f, ExpCombo):
        integral, product, alpha_product, grad = rho_integral_exp, pointwise_exp, alpha_exp, gradient_exp
    elif isinstance(f, ChaosExpansion):
        integral, product, alpha_product, grad = rho_integral_chaos, pointwise_chaos, alpha_chaos, gradient
    else:
        raise TypeError(f"expected ExpCombo or ChaosExpansion, got {type(f).__name__}")
    sq = integral(product(f, f), rho)
    ap = integral(alpha_product(f, f, alpha), rho)
    en = 0.0
    for g in grad(f):
        en += integral(product(g, g), rho)
    return sq, ap, en


def beckner_deficit(f, rho: ConvolutionMeasure, alpha: float,
                    tolerance: float = DEFAULT_TOLS["exact"]) -> InequalityReport:
    """int f^2 drho - int (f o_a f) drho <= (1 - a) int |Df|^2 drho.

    The interpolation-deficit inequality for convolution measures; at
    alpha = 1 both sides vanish, at alpha = 0 it is the Wick-form bound.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    sq, ap, en = _self_product_integrals(f, rho, alpha)
    params = {
        "alpha": float(alpha),
        "f": _fn_json(f),
        "nu": rho.nu.to_json_dict(),
        "integrals": {"f_sq": sq, "alpha_prod": ap, "dirichlet": en},
    }
    return InequalityReport.from_sides("beckner_deficit", params,
                                       lhs=sq - ap, rhs=(1.0 - alpha) * en,
                                       tolerance=tolerance)


def left_positivity(f, rho: ConvolutionMeasure, alpha: float,
                    tolerance: float = DEFAULT_TOLS["exact"]) -> InequalityReport:
    """int (f o_a f) drho <= int f^2 drho; equality at alpha = 1."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    sq, ap, _ = _self_product_integrals(f, rho, alpha)
    params = {
        "alpha": float(alpha),
        "f": _fn_json(f),
        "nu": rho.nu.to_json_dict(),
        "integrals": {"f_sq": sq, "alpha_prod": ap},
    }
    return InequalityReport.from_sides("left_positivity", params,
                                       lhs=ap, rhs=sq, tolerance=tolerance)


def ab_matrix_check(hs, rho: ConvolutionMeasure, alpha: float,
                    tolerance: float = DEFAULT_TOLS["psd"]) -> list[InequalityReport]:
    """PSD certificates for the two proof matrices and their Hadamard product.

        a_jk = e^{a s} - e^{s} + (1-a) s e^{s},  s = <h_j, h_k>
        b_jk = int E(h_j) wick E(h_k) drho = sum_i p_i e^{<y_i, h_j + h_k>}

    The deficit quadratic form is v' (A o B) v, so nonnegative eigenvalues
    here are what make the main inequality work.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    h = np.atleast_2d(np.asarray(hs, dtype=float))
    if h.shape[1] != rho.dim:
        raise ValueError(f"vector dimension {h.shape[1]} does not match n={rho.dim}")
    s = h @ h.T
    s = 0.5 * (s + s.T)
    exp_s = np.exp(s)
    a = np.exp(alpha * s) - exp_s + (1.0 - alpha) * s * exp_s
    v = np.exp(rho.nu.atoms @ h.T)
    b = v.T @ (rho.nu.weights[:, None] * v)
    params = {
        "alpha": float(alpha),
        "hs": [[float(x) for x in row] for row in h],
        "nu": rho.nu.to_json_dict(),
    }
    rows = []
    for name, mat in (("ab_matrix_a", a), ("ab_matrix_b", b), ("ab_matrix_hadamard", a * b)):
        min_eig = float(np.linalg.eigvalsh(0.5 * (mat + mat.T))[0])
        rows.append(InequalityReport.from_min_eig(name, params, min_eig, tolerance))
    return rows


def char_gram_psd_check(nu: DiscreteMeasure, hs,
                        tolerance: float = DEFAULT_TOLS["psd"]) -> InequalityReport:
    """Minimum eigenvalue of the characteristic Gram matrix is >= 0."""
    min_eig = float(np.linalg.eigvalsh(char_gram(nu, hs))[0])
    params = {
        "hs": [[float(x) for x in row] for row in np.atleast_2d(np.asarray(hs, dtype=float))],
        "nu": nu.to_json_dict(),
    }
    return InequalityReport.from_min_eig("char_gram_psd", params, min_eig, tolerance)


def holder_check(f: ExpCombo, g: ExpCombo, hp: HolderParams,
                 tol_exact: float = DEFAULT_TOLS["exact"],
                 tol_quad: float = DEFAULT_TOLS["quadrature"],
                 grid=None) -> InequalityReport:
    """||Gamma(sqrt((1+a)/2)) (f o_a g)||_r <= ||f||_p ||g||_q.

    Norms take exact routes where available (single exponentials at any
    exponent, r = 2, even integer exponents); otherwise quadrature, and
    the row tolerance widens accordingly.
    """
    ok, residual = holder_relation_check(hp)
    if not ok:
        raise ValueError(f"exponents fail the admissibility relation, residual {residual:g}")
    scale = math.sqrt((1.0 + hp.alpha) / 2.0)
    product = gamma_exp(scale, alpha_exp(f, g, hp.alpha))
    lhs, m_lhs = lp_norm_exp(product, hp.r, grid)
    norm_f, m_f = lp_norm_exp(f, hp.p, grid)
    norm_g, m_g = lp_norm_exp(g, hp.q, grid)
    m_rhs = "exact" if (m_f == "exact" and m_g == "exact") else "quadrature"
    tol = tol_exact if (m_lhs == "exact" and m_rhs == "exact") else tol_quad
    params = {
        "alpha": float(hp.alpha),
        "p": float(hp.p), "q": float(hp.q), "r": float(hp.r),
        "f": _fn_json(f), "g": _fn_json(g),
    }
    return InequalityReport.from_sides("holder", params, lhs, norm_f * norm_g, tol, m_lhs, m_rhs)


def classic_beckner_coeff_check(f: ChaosExpansion, alpha: float,
                                tolerance: float = DEFAULT_TOLS["identity"]) -> InequalityReport:
    """Coefficient form on the Gaussian itself:

        sum_m m! c_m^2 (1 - a^{|m|}) <= (1 - a) sum_m |m| m! c_m^2

    from 1 - a^N <= N (1 - a); equality when the support sits in the
    first chaos.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    lhs = 0.0
    rhs = 0.0
    for m, c in f.coeffs.items():
        base = m.factorial() * c * c
        d = m.degree
        lhs += base * (1.0 - alpha**d)
        rhs += base * d * (1.0 - alpha)
    params = {"alpha": float(alpha), "f": _fn_json(f)}
    return InequalityReport.from_sides("classic_beckner", params, lhs, rhs, tolerance)


def strong_positivity_check(rho: ConvolutionMeasure, alpha: float, phi: ExpCombo,
                            tolerance: float = DEFAULT_TOLS["exact"]) -> InequalityReport:
    """<Gamma(1/sqrt(a)) xi, phi> >= 0 for nonnegative test functions phi.

    phi must be a positive-weight combination (those are nonnegative
    functions); the pairing is then a positive sum by inspection.
    """
    if np.any(phi.weights < 0):
        raise ValueError("phi must have nonnegative weights")
    pairing = mu_inner_exp(gamma_xi(rho, alpha), phi)
    params = {"alpha": float(alpha), "nu": rho.nu.to_json_dict(), "phi": _fn_json(phi)}
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
    if nu1.dim != nu2.dim:
        raise ValueError(f"dimension mismatch: {nu1.dim} vs {nu2.dim}")
    if phi.dim != nu1.dim:
        raise ValueError(f"dimension mismatch: {phi.dim} vs {nu1.dim}")
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
    params = {"nu1": nu1.to_json_dict(), "nu2": nu2.to_json_dict(), "phi": _fn_json(phi)}
    return InequalityReport.from_sides("covariance", params, 0.0, gap, tolerance)


def g_lambda_bound_check(rho: ConvolutionMeasure, lam: float,
                         tolerance: float = DEFAULT_TOLS["exact"]) -> InequalityReport:
    """sqrt of the exact squared G_lambda norm is below the one-sided bound."""
    norm_sq, bound = g_lambda_norm(rho, lam)
    params = {"lambda": float(lam), "nu": rho.nu.to_json_dict()}
    return InequalityReport.from_sides("g_lambda_bound", params,
                                       math.sqrt(norm_sq), bound, tolerance)


def oracle_triangle(f: ExpCombo, rho: ConvolutionMeasure, alpha: float,
                    quad_order: int | None = None, mc_seed=0, mc_count: int = 100_000,
                    rel_tol: float = DEFAULT_TOLS["quadrature"],
                    sigmas: float = DEFAULT_TOLS["mc_sigmas"]) -> list[InequalityReport]:
    """Cross-validate the closed-form rho-integrals against quadrature and MC.

    For each of int f^2, int f o_a f, int |Df|^2 the exact value is
    compared with a tensor Gauss-Hermite value (agreement within rel_tol
    relative) and a Monte Carlo value (within sigmas standard errors).
    Six rows per call.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    order = default_order(rho.dim) if quad_order is None else quad_order
    grid = gauss_hermite_grid(rho.dim, order)
    grads = gradient_exp(f)
    prod = alpha_exp(f, f, alpha)

    def f_sq(pts):
        return exp_eval(f, pts) ** 2

    def dirichlet(pts):
        total = np.zeros(np.atleast_2d(pts).shape[0])
        for g in grads:
            total = total + exp_eval(g, pts) ** 2
        return total

    integrands = [
        ("f_sq", f_sq, rho_integral_exp(pointwise_exp(f, f), rho)),
        ("alpha_prod", prod.eval, rho_integral_exp(prod, rho)),
        ("dirichlet", dirichlet, sum(rho_integral_exp(pointwise_exp(g, g), rho) for g in grads)),
    ]
    base = {"alpha": float(alpha), "f": _fn_json(f), "nu": rho.nu.to_json_dict()}
    rows = []
    for idx, (name, fn, exact) in enumerate(integrands):
        quad = integrate_rho(fn, rho, grid)
        qp = {**base, "integral": name, "route": "quadrature", "order": order, "value": quad, "exact": exact}
        rows.append(InequalityReport.from_sides(
            "oracle_triangle", qp, abs(quad - exact), rel_tol * max(1.0, abs(exact)),
            tolerance=0.0, method_lhs="quadrature", method_rhs="exact"))
        est, se = mc_integral_rho(fn, rho, [mc_seed, idx], mc_count)
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


def _rho(params, key="nu") -> ConvolutionMeasure:
    return ConvolutionMeasure(_nu(params, key))


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
    return [beckner_deficit(function_from_json(params["f"]), _rho(params),
                            params["alpha"], tolerance=tols["exact"])]


def _run_left(params, tols):
    return [left_positivity(function_from_json(params["f"]), _rho(params),
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
    return ab_matrix_check(params["hs"], _rho(params), params["alpha"], tolerance=tols["psd"])


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


def _run_holder(params, tols):
    alpha = params["alpha"]
    if "p" in params:
        hp = HolderParams(params["p"], params["q"], params["r"], alpha)
    else:
        hp = HolderParams.conjugate_family(alpha)
    f = function_from_json(params["f"])
    g = function_from_json(params["g"]) if "g" in params else f
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
    return [strong_positivity_check(_rho(params), params["alpha"],
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
    return [g_lambda_bound_check(_rho(params), params["lambda"], tolerance=tols["exact"])]


def _grid_g_lambda(cfg):
    for nu in cfg.measures:
        for a in cfg.alphas:
            yield {"nu": nu, "lambda": float(np.sqrt(2.0 / (1.0 + a)))}


def _random_g_lambda(rng, cfg, sweep):
    n = _rand_dim(rng, cfg)
    return {"nu": _rand_nu_json(rng, n), "lambda": float(rng.uniform(1.0, 2.0))}


def _run_oracle(params, tols):
    return oracle_triangle(
        function_from_json(params["f"]), _rho(params), params["alpha"],
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

    run(params, tols) returns the rows of one task; grid(cfg) returns the
    params of the config's grid tasks; random(rng, cfg, sweep) draws the
    params of one random sweep from rng.
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
