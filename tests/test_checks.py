"""Named inequality checks against hand-derived closed forms.

Every frozen constant below is computed from the defining formulas with
math.exp/cosh only, never through the code paths under test.
"""

import math

import numpy as np
import pytest

from wickbench import (
    ChaosExpansion,
    DiscreteMeasure,
    ExpCombo,
    HolderParams,
    InequalityReport,
    CHECK_REGISTRY,
    run_check,
)
from wickbench import checks, quadrature
from wickbench.checks import (
    _Block,
    _chaos_jsons,
    _deficit_batch,
    _dirichlet,
    _nu_jsons,
    functions_from_json,
    resolve_tols,
)
from wickbench.expspan import alpha_exp, exp_eval
from wickbench.measures import WEIGHT_SUM_TOL, measures_from_json, sample_rho
from wickbench.quadrature import mc_integral_rho
from wickbench.suite import SuiteConfig, build_tasks
from wickbench.suite import _ENCODE

from reference_routes import dirac, gradient_exp

E1 = ExpCombo.exponential([1.0])
RHO0 = dirac([0.0] * 1)
SYM = DiscreteMeasure(1, [[1.0], [-1.0]], [0.5, 0.5])
RHO_SYM = SYM


def test_report_shapes():
    r = InequalityReport.from_sides("demo", {}, 1.0, 3.0, 1e-9)
    assert r.gap == 2.0 and r.passed
    n = r.negated()
    assert n.gap == -2.0 and not n.passed
    assert n.lhs == 3.0 and n.rhs == 1.0
    psd = InequalityReport.from_sides("demo", {}, 0.0, -1e-12, 1e-10)
    assert psd.passed and psd.rhs == -1e-12
    ident = InequalityReport.from_mismatch("demo", {}, 5e-13, 1e-12)
    assert ident.passed and ident.gap == -5e-13
    d = r.as_dict()
    assert d["pass"] is True and d["method"] == {"lhs": "exact", "rhs": "exact"}
    assert r.method == "exact"
    # a non-finite side is no verdict, whichever row shape carries it
    for lhs, rhs in ((math.nan, 1.0), (0.0, math.inf), (-math.inf, 0.0)):
        with pytest.raises(OverflowError, match="demo has a non-finite side"):
            InequalityReport.from_sides("demo", {}, lhs, rhs, 1e-9)
    with pytest.raises(OverflowError, match="demo has a non-finite side"):
        InequalityReport.from_mismatch("demo", {}, math.nan, 1e-12)


def _deficit(check, f, nu, alpha):
    (row,) = run_check(check, {"alpha": alpha, "f": f.to_json_dict(), "nu": nu.to_json_dict()})
    return row


def test_beckner_deficit_gaussian_case():
    rep = _deficit("beckner_deficit", E1, RHO0, 0.5)
    assert rep.lhs == pytest.approx(math.e - math.exp(0.5), rel=1e-13)
    assert rep.rhs == pytest.approx(0.5 * math.e, rel=1e-13)
    assert rep.gap == pytest.approx(math.exp(0.5) - 0.5 * math.e, rel=1e-12)
    assert rep.passed
    assert rep.params["integrals"]["f_sq"] == pytest.approx(math.e, rel=1e-14)


def test_beckner_deficit_convolution_case():
    rep = _deficit("beckner_deficit", E1, RHO_SYM, 0.5)
    c2 = math.cosh(2.0)
    assert rep.lhs == pytest.approx((math.e - math.exp(0.5)) * c2, rel=1e-13)
    assert rep.rhs == pytest.approx(0.5 * math.e * c2, rel=1e-13)
    assert rep.gap == pytest.approx((math.exp(0.5) - 0.5 * math.e) * c2, rel=1e-12)


def test_beckner_deficit_alpha_one_is_exactly_zero():
    for f in (E1, ExpCombo.exponential([0.3, -1.2], 2.0) + ExpCombo.exponential([0.9, 0.1], -0.5)):
        rho = RHO_SYM if f.dim == 1 else dirac([0.0] * 2)
        rep = _deficit("beckner_deficit", f, rho, 1.0)
        assert rep.lhs == 0.0
        assert rep.rhs == 0.0
        assert rep.gap == 0.0


def test_beckner_deficit_chaos_route():
    f = ChaosExpansion.basis((1,))
    rep = _deficit("beckner_deficit", f, RHO0, 0.3)
    # int f^2 = 1, int f o_a f = a, dirichlet = 1
    assert rep.lhs == pytest.approx(0.7, rel=1e-14)
    assert rep.rhs == pytest.approx(0.7, rel=1e-14)
    assert rep.passed
    with pytest.raises(ValueError):
        _deficit("beckner_deficit", f, RHO0, 1.5)


def test_left_positivity_values():
    rep = _deficit("left_positivity", E1, RHO0, 0.5)
    assert rep.gap == pytest.approx(math.e - math.exp(0.5), rel=1e-13)
    exact = _deficit("left_positivity", E1, RHO_SYM, 1.0)
    assert exact.gap == 0.0
    chaos = _deficit("left_positivity", ChaosExpansion.basis((1,)), RHO0, 0.25)
    assert chaos.gap == pytest.approx(0.75, rel=1e-14)


def test_ab_matrix_values():
    rows = run_check("ab_psd", {"alpha": 0.0, "hs": [[0.0], [1.0]], "nu": RHO0.to_json_dict()})
    by_name = {r.check: r for r in rows}
    assert set(by_name) == {"ab_matrix_a", "ab_matrix_b", "ab_matrix_hadamard"}
    # a_jk = 1 - e^s + s e^s on s = [[0,0],[0,1]] is diag(0, 1)
    assert by_name["ab_matrix_a"].rhs == pytest.approx(0.0, abs=1e-14)
    # b is the all-ones matrix for the point mass at the origin
    assert by_name["ab_matrix_b"].rhs == pytest.approx(0.0, abs=1e-14)
    assert all(r.passed for r in rows)


def test_ab_matrix_alpha_one_vanishes():
    rows = run_check("ab_psd", {"alpha": 1.0, "hs": [[0.7], [-0.3], [1.1]], "nu": RHO_SYM.to_json_dict()})
    a_row = next(r for r in rows if r.check == "ab_matrix_a")
    assert a_row.rhs == 0.0  # the matrix itself is identically zero


def test_ab_matrix_random_psd():
    rng = np.random.default_rng(97)
    for _ in range(25):
        dim = int(rng.integers(1, 4))
        hs = rng.uniform(-1.5, 1.5, size=(int(rng.integers(1, 6)), dim))
        atoms = rng.uniform(-1.5, 1.5, size=(int(rng.integers(1, 5)), dim))
        nu = DiscreteMeasure(dim, atoms, rng.dirichlet(np.ones(len(atoms))))
        alpha = int(rng.integers(0, 11)) / 10
        rows = run_check("ab_psd", {"alpha": alpha, "hs": hs.tolist(), "nu": nu.to_json_dict()})
        assert all(r.rhs >= -1e-10 for r in rows)


def test_char_gram_psd_check():
    (rep,) = run_check("char_gram_psd", {"hs": [[0.0], [1.0]], "nu": SYM.to_json_dict()})
    assert rep.rhs == pytest.approx(1.0 - math.cos(1.0), rel=1e-12)
    assert rep.passed


def test_holder_equality_on_conjugate_family():
    for k in range(1, 11):
        alpha = k / 10
        f = ExpCombo.exponential([0.9, -0.6])
        (rep,) = run_check("holder", {"alpha": alpha, "f": f.to_json_dict()})
        assert rep.method_lhs == "exact" and rep.method_rhs == "exact"
        assert abs(rep.gap) <= 1e-10, f"alpha={alpha}: gap {rep.gap}"


def test_holder_strict_case():
    (rep,) = run_check("holder", {"alpha": 0.5, "f": E1.to_json_dict(),
                                  "g": ExpCombo.exponential([-1.0]).to_json_dict()})
    assert rep.lhs == pytest.approx(math.exp(-0.5), rel=1e-13)
    assert rep.rhs == pytest.approx(math.exp(2.0), rel=1e-13)
    assert rep.passed


def test_holder_classical_endpoint():
    # alpha = 1, p = q = 2, r = 1: Cauchy-Schwarz with equality on f = g
    (rep,) = run_check("holder", {"alpha": 1.0, "p": 2.0, "q": 2.0, "r": 1.0, "f": E1.to_json_dict()})
    assert rep.lhs == pytest.approx(math.e, rel=1e-13)
    assert rep.rhs == pytest.approx(math.e, rel=1e-13)
    assert abs(rep.gap) <= 1e-12 * math.e


def test_holder_rejects_inadmissible():
    with pytest.raises(ValueError):
        run_check("holder", {"alpha": 1.0, "p": 3.0, "q": 3.0, "r": 2.0, "f": E1.to_json_dict()})


def test_holder_quadrature_route():
    f = ExpCombo.exponential([0.4]) + ExpCombo.exponential([-0.3], 0.5)
    # alpha = 0.5 takes p = q = 3: no exact route
    (rep,) = run_check("holder", {"alpha": 0.5, "f": f.to_json_dict()})
    assert rep.method_rhs == "quadrature"
    assert rep.tolerance == 1e-6
    assert rep.passed


F_TWO = {"kind": "exp", "dim": 1, "terms": [{"coef": 1.0, "h": [0.4]}, {"coef": 0.5, "h": [-0.3]}]}


def test_holder_explicit_conjugate_exponents_match_default_family():
    for alpha in (0.0, 0.5, 1.0):
        e = 2.0 * (1.0 + alpha)
        (default,) = run_check("holder", {"alpha": alpha, "f": F_TWO})
        (explicit,) = run_check("holder", {"alpha": alpha, "f": F_TWO, "p": e, "q": e, "r": 2.0})
        assert _ENCODE(explicit.as_dict()) == _ENCODE(default.as_dict())


def test_holder_explicit_exponents_match_holder_check():
    # at alpha = 0.5, p = r = 3 is admissible with q = 10.5, off the conjugate family
    (row,) = run_check("holder", {"alpha": 0.5, "f": F_TWO, "p": 3.0, "q": 10.5, "r": 3.0})
    (f,) = functions_from_json([F_TWO])
    hp = HolderParams(3.0, 10.5, 3.0, 0.5)
    (direct,) = run_check("holder", {"alpha": hp.alpha, "p": hp.p, "q": hp.q, "r": hp.r, "f": f.to_json_dict()})
    assert _ENCODE(row.as_dict()) == _ENCODE(direct.as_dict())
    assert row.passed and row.method_rhs == "quadrature"


def _classic(f, alpha):
    (row,) = run_check("classic_beckner", {"alpha": alpha, "f": f.to_json_dict()})
    return row


def test_classic_beckner_values():
    h3 = ChaosExpansion.basis((3,))
    rep = _classic(h3, 0.4)
    assert rep.lhs == pytest.approx(6.0 * (1.0 - 0.4**3), rel=1e-15)
    assert rep.rhs == pytest.approx(18.0 * 0.6, rel=1e-15)
    assert rep.passed


def test_classic_beckner_first_chaos_equality():
    f = ChaosExpansion(2, {(1, 0): 0.8, (0, 1): -1.4})
    for alpha in (0.0, 0.3, 0.9, 1.0):
        rep = _classic(f, alpha)
        assert rep.gap == 0.0


def test_classic_beckner_random_nonnegative():
    rng = np.random.default_rng(101)
    for _ in range(50):
        coeffs = {}
        for _ in range(rng.integers(1, 10)):
            deg = int(rng.integers(0, 9))
            m = tuple(int(x) for x in rng.multinomial(deg, [0.5, 0.5]))
            coeffs[m] = float(rng.uniform(-1, 1))
        f = ChaosExpansion(2, coeffs)
        alpha = int(rng.integers(0, 11)) / 10
        assert _classic(f, alpha).gap >= -1e-12


def _strong_positivity(nu, alpha, phi):
    (row,) = run_check("strong_positivity", {"alpha": alpha, "nu": nu.to_json_dict(), "phi": phi.to_json_dict()})
    return row


def test_strong_positivity():
    nu = DiscreteMeasure(1, [[2.0], [-2.0]], [0.5, 0.5])
    rep = _strong_positivity(nu, 0.25, E1)
    assert rep.rhs == pytest.approx(math.cosh(4.0), rel=1e-13)
    assert rep.passed
    one = _strong_positivity(RHO_SYM, 0.5, ExpCombo.one(1))
    assert one.rhs == pytest.approx(1.0, rel=1e-15)
    with pytest.raises(ValueError):
        _strong_positivity(RHO_SYM, 0.5, ExpCombo.exponential([1.0], -1.0))


def _covariance(nu1, nu2, phi):
    (row,) = run_check("covariance", {"nu1": nu1.to_json_dict(), "nu2": nu2.to_json_dict(),
                                      "phi": phi.to_json_dict()})
    return row


def test_covariance_gap_point_masses():
    d1 = dirac([1.0])
    rep = _covariance(d1, d1, ExpCombo.one(1))
    assert rep.rhs == pytest.approx(math.e - 2.0, rel=1e-14)
    rep2 = _covariance(d1, SYM, ExpCombo.one(1))
    assert rep2.rhs == pytest.approx(math.cosh(1.0) - 1.0, rel=1e-14)


def test_covariance_gap_vanishes_on_centered_factor():
    # nu2 = delta_0 makes every s_ij = 0, so the gap is exactly 0
    rep = _covariance(SYM, dirac([0.0]), ExpCombo.exponential([0.7]))
    assert rep.rhs == 0.0
    with pytest.raises(ValueError):
        _covariance(SYM, SYM, ExpCombo.exponential([1.0], -2.0))
    with pytest.raises(ValueError):
        _covariance(SYM, dirac([0.0, 0.0]), ExpCombo.one(1))


def test_covariance_gap_nonnegative_random():
    rng = np.random.default_rng(103)
    for _ in range(40):
        dim = int(rng.integers(1, 4))
        def rand_nu():
            k = int(rng.integers(1, 5))
            return DiscreteMeasure(dim, rng.uniform(-1.5, 1.5, size=(k, dim)),
                                   rng.dirichlet(np.ones(k)))
        phi = ExpCombo.exponential(rng.uniform(-1, 1, size=dim), float(rng.uniform(0.1, 2)))
        assert _covariance(rand_nu(), rand_nu(), phi).rhs >= -1e-10


def test_g_lambda_bound_check():
    (rep,) = run_check("g_lambda_bound", {"lambda": 1.0, "nu": RHO_SYM.to_json_dict()})
    assert rep.lhs == pytest.approx(math.sqrt(math.cosh(1.0)), rel=1e-14)
    assert rep.rhs == pytest.approx(math.exp(0.5), rel=1e-14)
    assert rep.passed
    (solo,) = run_check("g_lambda_bound", {"lambda": 1.4, "nu": dirac([1.2]).to_json_dict()})
    assert abs(solo.gap) <= 1e-9  # equality case


def test_oracle_triangle_small():
    f = ExpCombo.exponential([0.5], 1.5)
    params = {"alpha": 0.5, "f": f.to_json_dict(), "nu": RHO_SYM.to_json_dict(),
              "mc_seed": 4, "mc_count": 30_000}
    rows = run_check("oracle_triangle", params)
    assert len(rows) == 6
    assert all(r.passed for r in rows)
    routes = {(r.params["integral"], r.params["route"]) for r in rows}
    assert routes == {(i, r) for i in ("f_sq", "alpha_prod", "dirichlet")
                      for r in ("quadrature", "mc")}
    with pytest.raises(ValueError):
        run_check("oracle_triangle", {"alpha": -0.2, "f": f.to_json_dict(), "nu": RHO_SYM.to_json_dict()})


def test_oracle_triangle_exact_is_the_deficit_kernel():
    # f = E(h), h = 1e-10, under mu * delta_y, y = 0.5:
    # int |Df|^2 drho = h^2 e^{h^2} e^{2hy} = 1.0000000001e-20, up to 2e-20 relative
    f = ExpCombo.exponential([1e-10])
    rho = dirac([0.5])
    rows = run_check("oracle_triangle", {"alpha": 0.5, "f": f.to_json_dict(), "nu": rho.to_json_dict(),
                                         "mc_count": 1000})
    exact = {r.params["integral"]: r.params["exact"] for r in rows}
    assert exact["dirichlet"] == pytest.approx(1.0000000001e-20, rel=1e-15, abs=0.0)
    assert (exact["f_sq"], exact["alpha_prod"], exact["dirichlet"]) == _deficit_batch([f], [rho], [0.5])[0]


def _oracle_sweeps(seed, sweeps, mc_count):
    cfg = SuiteConfig(seed=seed, checks=["oracle_triangle"], random_sweeps=sweeps, mc_count=mc_count)
    tasks = [t["params"] for t in build_tasks(cfg)]
    return [row for rows in CHECK_REGISTRY["oracle_triangle"].run(tasks, resolve_tols({})) for row in rows]


@pytest.mark.parametrize("dim, dims", [(None, {1, 2}), (1, {1}), (2, {2}), (5, {2})])
def test_oracle_sweeps_keep_their_distribution(dim, dims):
    # f: 1-3 terms, |h| coordinates <= 1, |coef| <= 1.5; nu: 1-3 atoms,
    # coordinates in [-1, 1], weights summing to 1; n <= 2 for the grid
    sweeps = [t["params"] for seed in (1, 2, 3) for t in build_tasks(SuiteConfig(
        seed=seed, dim=dim, checks=["oracle_triangle"], random_sweeps=200, mc_count=500))]
    assert {p["f"]["dim"] for p in sweeps} == {p["nu"]["dim"] for p in sweeps} == dims
    assert {len(p["f"]["terms"]) for p in sweeps} == {len(p["nu"]["atoms"]) for p in sweeps} == {1, 2, 3}
    assert {p["alpha"] for p in sweeps} == {k / 10 for k in range(11)}
    for p in sweeps:
        f, nu = p["f"], p["nu"]
        assert f["dim"] == nu["dim"]
        assert all(len(t["h"]) == f["dim"] and max(map(abs, t["h"])) <= 1.0 and abs(t["coef"]) <= 1.5
                   for t in f["terms"])
        assert all(len(y) == nu["dim"] and max(map(abs, y)) <= 1.0 for y in nu["atoms"])
        assert len(nu["weights"]) == len(nu["atoms"]) and min(nu["weights"]) >= 0.0
        assert abs(sum(nu["weights"]) - 1.0) <= WEIGHT_SUM_TOL
        assert type(p["mc_seed"]) is int and p["mc_seed"] >= 0
        assert p["mc_count"] == 500 and "quad_order" not in p


def test_oracle_mc_rows_do_not_fail_on_correct_integrals():
    # a bounded importance weight makes the mc_sigmas gate valid: a plain
    # draw fails 5-15 of these 1,500 correct mc rows per seed
    for seed in range(1, 6):
        assert [r.params for r in _oracle_sweeps(seed, 100, 500) if not r.passed] == []


def test_oracle_quadrature_passes_where_a_set_order_10_failed():
    # at a fixed order 10 alpha_prod's quadrature row was off by 1.93x its
    # 1e-6 relative bound while the exact value is right; the oracle now
    # picks its own order, checked against two thirds of it
    f = ExpCombo(1, [(-1.2866672849629608, [-0.9921288060264333]), (1.0831861416831563, [0.5049949206447744]),
                     (1.1752618826293708, [0.5413948453327679])])
    nu = DiscreteMeasure(1, [[-0.8352053104946799], [-0.47370656011876555], [-0.4001259614858643]],
                         [0.12465407003043429, 0.20450026530835236, 0.6708456646612133])
    rows = run_check("oracle_triangle", {"alpha": 0.1, "f": f.to_json_dict(), "nu": nu.to_json_dict(),
                                         "mc_count": 500, "mc_seed": 1})
    assert all(r.passed for r in rows)
    assert {r.params["order"] for r in rows if r.params["route"] == "quadrature"} == {30}


def _box_tasks(n, scale, count=30):
    # 3 terms, coef U(-1.5, 1.5), and 2 atoms, weights 0.4/0.6, with every
    # direction and atom coordinate uniform in [-scale, scale]; alpha 0.5
    rng = np.random.default_rng([n, int(10 * scale)])
    for _ in range(count):
        coefs, hs = rng.uniform(-1.5, 1.5, 3), rng.uniform(-scale, scale, (3, n))
        f = ExpCombo(n, zip(coefs, hs))
        nu = DiscreteMeasure(n, rng.uniform(-scale, scale, (2, n)), [0.4, 0.6])
        yield {"alpha": 0.5, "f": f.to_json_dict(), "nu": nu.to_json_dict(), "mc_count": 200}


@pytest.mark.parametrize("n, scale, orders", [
    (1, 1.0, {30}), (2, 1.0, {30}), (3, 1.0, {12, 18}), (3, 1.5, {18, 27}), (3, 2.0, {27, 40}),
    (2, 4.0, {30, 45, 67}), (1, 5.0, {30, 45, 67, 100})])
def test_oracle_quadrature_rows_pass_on_correct_integrals_far_from_the_origin(n, scale, orders):
    # at the fixed default order (30 in n <= 2, 12 in n = 3) 45-87 of each
    # family's 90 quadrature rows failed from coordinates +-1.5 in n = 3,
    # +-4 in n = 2 and +-5 in n = 1 on, with the closed forms right; the
    # rows record the orders they settled at
    quad = [r for params in _box_tasks(n, scale)
            for r in run_check("oracle_triangle", params) if r.params["route"] == "quadrature"]
    assert [r.params for r in quad if not r.passed] == []
    assert {r.params["order"] for r in quad} == orders


def test_oracle_refuses_a_task_whose_quadrature_does_not_settle():
    # +-6 in n = 1 needs orders up to 150: each task passes its quadrature
    # rows or is refused, never a FAIL row
    for params in _box_tasks(1, 6.0):
        try:
            rows = run_check("oracle_triangle", params)
        except ValueError as exc:
            assert "quadrature does not settle by order 225" in str(exc)
        else:
            assert all(r.passed for r in rows if r.params["route"] == "quadrature")
    # a zero quadrature tolerance asks two orders to agree to the last bit
    params = next(_box_tasks(1, 1.0))
    with pytest.raises(ValueError, match="quadrature does not settle by order 225"):
        run_check("oracle_triangle", params, {"quadrature": 0.0})


def test_oracle_mc_rows_catch_a_tiny_error_in_the_deficit_kernel(monkeypatch):
    # int f^2 off by 1e-9 relative: rows whose weighted values are one
    # constant (one-signed f) leave only a rounding tolerance, so they fail
    clean = _oracle_sweeps(1, 40, 2000)

    def planted(fs, nus, alphas):
        return [(sq * (1.0 + 1e-9), ap, en) for sq, ap, en in _deficit_batch(fs, nus, alphas)]

    monkeypatch.setattr(checks, "_deficit_batch", planted)
    broken = _oracle_sweeps(1, 40, 2000)
    newly = [b.params for a, b in zip(clean, broken) if a.passed and not b.passed]
    assert newly and all((p["integral"], p["route"]) == ("f_sq", "mc") for p in newly)


def test_oracle_mc_rows_catch_a_shifted_sampler(monkeypatch):
    # rows whose weighted values vary still read the sample: moving every
    # drawn point by 0.2 along the first axis turns some correct mc rows into
    # FAILs, and only rows with real variance (the constant rows read Z
    # wherever the points fall)
    clean = _oracle_sweeps(1, 40, 2000)

    def shifted(nu, seed, count):
        pts = sample_rho(nu, seed, count)
        pts[:, 0] += 0.2
        return pts

    monkeypatch.setattr(quadrature, "sample_rho", shifted)
    broken = _oracle_sweeps(1, 40, 2000)
    newly = [b for a, b in zip(clean, broken) if a.passed and not b.passed]
    assert newly and all(b.params["route"] == "mc" and b.params["se"] > b.tolerance for b in newly)


def test_oracle_weighted_mc_agrees_with_a_plain_draw():
    # mixed-sign f, so every weighted integrand has real variance
    f = ExpCombo(2, [(1.2, [0.6, -0.3]), (-0.9, [-0.4, 0.8]), (0.5, [0.1, 0.2])])
    nu = DiscreteMeasure(2, [[0.5, 0.5], [-0.7, 0.2]], [0.3, 0.7])
    rows = run_check("oracle_triangle", {"alpha": 0.3, "f": f.to_json_dict(), "nu": nu.to_json_dict(),
                                         "mc_seed": 11, "mc_count": 20_000})
    prod = alpha_exp(f, f, 0.3)
    plain = {
        "f_sq": lambda p: exp_eval(f, p) ** 2,
        "alpha_prod": prod.eval,
        "dirichlet": lambda p: sum(exp_eval(g, p) ** 2 for g in gradient_exp(f)),
    }
    for row in rows:
        if row.params["route"] == "mc":
            assert row.params["se"] > 0.0 and row.tolerance < 1e-12 * abs(row.params["exact"])
            est, se = mc_integral_rho(plain[row.params["integral"]], nu, 12, 20_000)
            assert abs(row.params["value"] - est) <= 4.0 * math.hypot(row.params["se"], se)


def test_oracle_mc_rows_when_the_proposal_has_equal_atoms():
    # y_i + h_j + h_k repeats (1 = 0 + 0 + 1 = 1 + 0 + 0, ...), so the proposal's
    # canonical form merges equal atoms: the same measure, the same weight
    f = ExpCombo(1, [(1.0, [0.0]), (0.5, [1.0])])
    nu = DiscreteMeasure(1, [[0.0], [1.0]], [0.5, 0.5])
    rows = run_check("oracle_triangle", {"alpha": 0.5, "f": f.to_json_dict(), "nu": nu.to_json_dict(),
                                         "mc_seed": 3, "mc_count": 5000})
    assert all(r.passed for r in rows)
    (sq,) = [r for r in rows if (r.params["integral"], r.params["route"]) == ("f_sq", "mc")]
    assert sq.params["value"] == pytest.approx(sq.params["exact"], rel=1e-12)


def test_oracle_mc_rows_of_a_zero_function():
    rows = run_check("oracle_triangle", {"alpha": 0.5, "f": {"kind": "exp", "dim": 1, "terms": []},
                                         "nu": SYM.to_json_dict(), "mc_count": 100})
    for row in rows:
        if row.params["route"] == "mc":
            assert (row.params["value"], row.params["se"], row.tolerance, row.passed) == (0.0, 0.0, 0.0, True)


@pytest.mark.parametrize("check", ["classic_beckner", "beckner_deficit"])
def test_chaos_rows_do_not_depend_on_term_order(check):
    # one chaos function with its JSON terms reversed or shuffled gives the
    # same row bytes; each index is drawn three times, so the sums of
    # repeated indices must not depend on the order either
    rng = np.random.default_rng(5)
    block = _Block(rng.random((60, 124)))
    dims = block.integers(1, 3).tolist()
    cases = zip((block.integers(0, 10) / 10).tolist(), _chaos_jsons(block, dims), _nu_jsons(block, dims))
    for alpha, f, nu in cases:
        params = {"alpha": alpha, "f": f, "nu": nu}
        terms = [{"m": t["m"], "c": float(rng.uniform(-1.0, 1.0))}
                 for t in params["f"]["terms"] for _ in range(3)]
        params["f"]["terms"] = terms
        (row,) = run_check(check, params)
        for order in (terms[::-1], [terms[i] for i in rng.permutation(len(terms))]):
            (moved,) = run_check(check, {**params, "f": {**params["f"], "terms": order}})
            assert _ENCODE(moved.as_dict()) == _ENCODE(row.as_dict())


def test_registry_and_run_check():
    assert len(CHECK_REGISTRY) == 11
    rows = run_check("beckner_deficit", {
        "alpha": 0.5,
        "f": {"kind": "exp", "dim": 1, "terms": [{"coef": 1.0, "h": [1.0]}]},
        "nu": {"dim": 1, "atoms": [[0.0]], "weights": [1.0]},
    })
    assert len(rows) == 1
    assert rows[0].gap == pytest.approx(math.exp(0.5) - 0.5 * math.e, rel=1e-12)
    with pytest.raises(ValueError):
        run_check("no_such_check", {})


def test_run_check_tolerance_override():
    params = {
        "alpha": 0.5,
        "f": {"kind": "exp", "dim": 1, "terms": [{"coef": 1.0, "h": [1.0]}]},
        "nu": {"dim": 1, "atoms": [[0.0]], "weights": [1.0]},
    }
    strict = run_check("beckner_deficit", params, tols={"exact": 1e-15})[0]
    assert strict.tolerance == 1e-15


def test_function_from_json_sniffing():
    exp_fn, chaos_fn = functions_from_json([{"dim": 1, "terms": [{"coef": 1.0, "h": [0.5]}]},
                                            {"dim": 1, "terms": [{"m": [2], "c": 1.0}]}])
    assert isinstance(exp_fn, ExpCombo)
    assert isinstance(chaos_fn, ChaosExpansion)
    with pytest.raises(ValueError):
        functions_from_json([{"kind": "mystery", "dim": 1, "terms": []}])


# The laws of each light check's random sweeps: (lowest alpha index, or
# None without an alpha; dim cap; per params key, its law).  Laws:
# ("nu", max atoms, scale), ("exp", max terms, scale, lowest coef),
# ("points", max count, scale), ("chaos", max terms, max degree),
# ("phi",) (E(h), h = 0 or uniform on [-1.5, 1.5)) and ("lambda",).
SWEEP_LAWS = {
    "beckner_deficit": (0, 3, {"f": ("exp", 4, 1.5, -1.5), "nu": ("nu", 5, 1.5)}),
    "left_positivity": (0, 3, {"f": ("exp", 4, 1.5, -1.5), "nu": ("nu", 5, 1.5)}),
    "ab_psd": (0, 3, {"hs": ("points", 6, 1.5), "nu": ("nu", 5, 1.5)}),
    "char_gram_psd": (None, 3, {"hs": ("points", 6, 1.5), "nu": ("nu", 5, 1.5)}),
    "holder": (1, 2, {"f": ("exp", 3, 0.75, -1.5), "g": ("exp", 3, 0.75, -1.5)}),
    "classic_beckner": (0, 3, {"f": ("chaos", 10, 8)}),
    "strong_positivity": (1, 3, {"nu": ("nu", 5, 1.5), "phi": ("exp", 4, 1.5, 0.1)}),
    "covariance": (None, 3, {"nu1": ("nu", 4, 1.5), "nu2": ("nu", 4, 1.5), "phi": ("phi",)}),
    "wick_density_identity": (None, 3, {"nu1": ("nu", 4, 1.5), "nu2": ("nu", 4, 1.5)}),
    "g_lambda_bound": (None, 3, {"nu": ("nu", 5, 1.5), "lambda": ("lambda",)}),
}


def _assert_plain_json(value):
    # int, float, str, list and dict themselves: no numpy scalar or array
    assert type(value) in (int, float, str, list, dict), type(value)
    for item in value.values() if isinstance(value, dict) else value if isinstance(value, list) else ():
        _assert_plain_json(item)


def _assert_points(points, n, scale):
    for x in points:
        assert len(x) == n and all(-scale <= c < scale for c in x)


def _law_values(law, values, dims):
    """What each sweep's value shows of its law, asserting its ranges."""
    kind = law[0]
    if kind == "lambda":
        assert all(1.0 <= v < 2.0 for v in values)
        return set()
    if kind == "points":
        for pts, n in zip(values, dims):
            _assert_points(pts, n, law[2])
        return {len(pts) for pts in values}
    if kind == "nu":
        for nu, n in zip(values, dims):
            assert nu["dim"] == n and len(nu["weights"]) == len(nu["atoms"])
            _assert_points(nu["atoms"], n, law[2])
        measures_from_json(values)  # DiscreteMeasure's checks: finite, >= 0, sum to 1
        return {len(nu["atoms"]) for nu in values}
    if kind == "phi":
        hs = [phi["terms"][0]["h"] for phi in values]
        assert all(len(phi["terms"]) == 1 and phi["terms"][0]["coef"] == 1.0 for phi in values)
        for h, n in zip(hs, dims):
            _assert_points([h], n, 1.5)
        return {any(h) for h in hs}
    if kind == "exp":
        for f, n in zip(values, dims):
            assert f["kind"] == "exp" and f["dim"] == n
            _assert_points([t["h"] for t in f["terms"]], n, law[2])
            assert all(law[3] <= t["coef"] < 1.5 for t in f["terms"])
        return {len(f["terms"]) for f in values}
    degrees = set()
    for f, n in zip(values, dims):
        assert f["kind"] == "chaos" and f["dim"] == n
        for t in f["terms"]:
            assert len(t["m"]) == n and min(t["m"]) >= 0 and -1.0 <= t["c"] < 1.0
            degrees.add(sum(t["m"]))
    assert degrees == set(range(law[2] + 1))
    return {len(f["terms"]) for f in values}


@pytest.mark.parametrize("check", list(SWEEP_LAWS))
def test_random_sweeps_follow_their_laws(check):
    # every count from 1 to its maximum, every alpha and every dim occurs;
    # coordinates lie in [-scale, scale); every nu is a valid measure
    low, cap, laws = SWEEP_LAWS[check]
    params = [t["params"] for t in build_tasks(SuiteConfig(seed=2, checks=[check], random_sweeps=2000))]
    _assert_plain_json(params)
    assert set(params[0]) == set(laws) | {"sweep"} | ({"alpha"} if low is not None else set())
    dims = [next(v["dim"] for v in p.values() if isinstance(v, dict)) for p in params]
    assert set(dims) == set(range(1, cap + 1))
    if low is not None:
        assert {p["alpha"] for p in params} == {k / 10 for k in range(low, 11)}
    for key, law in laws.items():
        seen = _law_values(law, [p[key] for p in params], dims)
        if law[0] == "phi":
            assert seen == {False, True}
        elif law[0] != "lambda":
            assert seen == set(range(1, law[1] + 1)), key


@pytest.mark.parametrize("dim", [1, 2, 7])
def test_a_config_dim_fixes_every_sweep_dim(dim):
    cfg = SuiteConfig(seed=3, dim=dim, checks=list(SWEEP_LAWS), random_sweeps=20)
    for task in build_tasks(cfg):
        want = min(dim, SWEEP_LAWS[task["check"]][1])
        for value in task["params"].values():
            if isinstance(value, dict):
                assert type(value["dim"]) is int and value["dim"] == want


def test_dirichlet_weights_survive_zero_uniforms():
    # random() can return 0.0: -log(0) would be inf, -log1p(-0) is 0
    u = np.array([[0.0, 0.5, 0.0, 0.25], [0.0, 0.0, 0.0, 0.0], [0.0, 0.9, 0.3, 0.6], [0.0, 0.7, 0.7, 0.7]])
    weights = _dirichlet(u, [3, 4, 1, 2])
    assert [len(w) for w in weights] == [3, 4, 1, 2]
    for w in weights:
        assert all(math.isfinite(x) and x >= 0.0 for x in w)
        assert abs(sum(w) - 1.0) <= WEIGHT_SUM_TOL
    assert weights[0][1] == 1.0 and weights[2] == [1.0]
    measures_from_json([{"dim": 1, "atoms": [[0.0]] * len(w), "weights": w} for w in weights])


def test_a_sweep_reads_the_same_columns_whatever_it_draws():
    # a check's B is the columns a dry draw of zeros reads, so no draw may
    # read more or fewer columns for other uniforms or a config dim
    for check in SWEEP_LAWS:
        spec = CHECK_REGISTRY[check].random
        used = set()
        for fill, dim in [(0.0, None), (0.999, None), (0.5, 2), (0.999, 7)]:
            block = _Block(np.full((3, 1024), fill), spec.cap)
            assert len(spec.draw(dim, block)) == 3
            used.add(block.used)
        assert len(used) == 1, check


@pytest.mark.parametrize("check", list(CHECK_REGISTRY))
def test_random_takes_an_empty_range(check):
    assert CHECK_REGISTRY[check].random(SuiteConfig(seed=1), 0, range(3, 3)) == []
