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
from wickbench.checks import _deficit_batch, _rand_chaos_json, _rand_nu_json, functions_from_json
from wickbench.suite import _ENCODE

E1 = ExpCombo.exponential([1.0])
RHO0 = DiscreteMeasure.dirac([0.0] * 1)
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
        rho = RHO_SYM if f.dim == 1 else DiscreteMeasure.dirac([0.0] * 2)
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
    d1 = DiscreteMeasure.dirac([1.0])
    rep = _covariance(d1, d1, ExpCombo.one(1))
    assert rep.rhs == pytest.approx(math.e - 2.0, rel=1e-14)
    rep2 = _covariance(d1, SYM, ExpCombo.one(1))
    assert rep2.rhs == pytest.approx(math.cosh(1.0) - 1.0, rel=1e-14)


def test_covariance_gap_vanishes_on_centered_factor():
    # nu2 = delta_0 makes every s_ij = 0, so the gap is exactly 0
    rep = _covariance(SYM, DiscreteMeasure.dirac([0.0]), ExpCombo.exponential([0.7]))
    assert rep.rhs == 0.0
    with pytest.raises(ValueError):
        _covariance(SYM, SYM, ExpCombo.exponential([1.0], -2.0))
    with pytest.raises(ValueError):
        _covariance(SYM, DiscreteMeasure.dirac([0.0, 0.0]), ExpCombo.one(1))


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
    (solo,) = run_check("g_lambda_bound", {"lambda": 1.4, "nu": DiscreteMeasure.dirac([1.2]).to_json_dict()})
    assert abs(solo.gap) <= 1e-9  # equality case


def test_oracle_triangle_small():
    f = ExpCombo.exponential([0.5], 1.5)
    params = {"alpha": 0.5, "f": f.to_json_dict(), "nu": RHO_SYM.to_json_dict(),
              "quad_order": 25, "mc_seed": 4, "mc_count": 30_000}
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
    rho = DiscreteMeasure.dirac([0.5])
    rows = run_check("oracle_triangle", {"alpha": 0.5, "f": f.to_json_dict(), "nu": rho.to_json_dict(),
                                         "mc_count": 1000})
    exact = {r.params["integral"]: r.params["exact"] for r in rows}
    assert exact["dirichlet"] == pytest.approx(1.0000000001e-20, rel=1e-15, abs=0.0)
    assert (exact["f_sq"], exact["alpha_prod"], exact["dirichlet"]) == _deficit_batch([f], [rho], [0.5])[0]


@pytest.mark.parametrize("check", ["classic_beckner", "beckner_deficit"])
def test_chaos_rows_do_not_depend_on_term_order(check):
    # one chaos function with its JSON terms reversed or shuffled gives the
    # same row bytes; each index is drawn three times, so the sums of
    # repeated indices must not depend on the order either
    rng = np.random.default_rng(5)
    for _ in range(60):
        n = int(rng.integers(1, 4))
        params = {"alpha": int(rng.integers(0, 11)) / 10, "f": _rand_chaos_json(rng, n),
                  "nu": _rand_nu_json(rng, n)}
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
