"""The deficit checks' quadratic forms against the product route.

beckner_deficit reports (int f^2, int f o_a f, int |Df|^2) computed as
quadratic forms in the coefficients of f.  The reference builds the
product functions (pointwise_*, alpha_*, one per gradient component) and
integrates each with rho_integral_*.  Agreement is measured relative to
the sum of the absolute values of the summands, which is the scale of
rounding in either route and bounds the integral itself: a sum that
cancels to near zero has no relative accuracy in any floating-point
route.  Below a scale of 1 the bound is absolute, because the product
route drops every intermediate coefficient smaller than COEFF_EPS.
"""

import itertools
import math

import numpy as np
from numpy.polynomial.hermite_e import hermeval
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wickbench import (
    ChaosExpansion,
    DiscreteMeasure,
    ExpCombo,
    alpha_chaos,
    alpha_exp,
    gradient,
    pointwise_chaos,
    pointwise_exp,
    rho_integral_chaos,
    rho_integral_exp,
    run_check,
)
from wickbench import checks
from wickbench.chaos import index_factorial
from wickbench.checks import functions_from_json
from wickbench.measures import measures_from_json

from reference_routes import dirac, gradient_exp

REL = 1e-12
SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=120)

coord = st.floats(-1.5, 1.5)
alphas = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


def _product_route(f, rho, alpha):
    if isinstance(f, ExpCombo):
        integral, product, alpha_product, grad = rho_integral_exp, pointwise_exp, alpha_exp, gradient_exp
    else:
        integral, product, alpha_product, grad = rho_integral_chaos, pointwise_chaos, alpha_chaos, gradient
    return (integral(product(f, f), rho),
            integral(alpha_product(f, f, alpha), rho),
            sum(integral(product(g, g), rho) for g in grad(f)))


def _abs_scale(f, rho, alpha):
    """The three integrals summed with every summand replaced by its size."""
    if isinstance(f, ChaosExpansion):
        # the Hermite linearisation's terms carry the signs of c and y only
        f_abs = ChaosExpansion(f.dim, {m: abs(c) for m, c in f.coeffs.items()})
        nu_abs = DiscreteMeasure(rho.dim, np.abs(rho.atoms), rho.weights)
        return _product_route(f_abs, nu_abs, alpha)
    # every exponential factor is positive: only the weights carry signs
    w = np.abs(f.weights)
    sq, ap, _ = _product_route(ExpCombo(f.dim, zip(w, f.directions)), rho, alpha)
    en = 0.0
    for x in range(f.dim):
        g = ExpCombo(f.dim, zip(w * np.abs(f.directions[:, x]), f.directions))
        en += rho_integral_exp(pointwise_exp(g, g), rho)
    return sq, ap, en


def _stored(value):
    if isinstance(value, ChaosExpansion):
        return list(value.coeffs.items())
    if isinstance(value, ExpCombo):
        return value.weights.tolist(), value.directions.tolist()
    return value.weights.tolist(), value.atoms.tolist()


def _assert_matches_product_route(f, rho, alpha):
    params = {"alpha": alpha, "f": f.to_json_dict(), "nu": rho.to_json_dict()}
    # the checks parse the JSON: they test the drawn f and rho only if the
    # round trip returns the same stored values
    assert _stored(functions_from_json([params["f"]])[0]) == _stored(f)
    assert _stored(measures_from_json([params["nu"]])[0]) == _stored(rho)
    (rep,) = run_check("beckner_deficit", params)
    got = rep.params["integrals"]
    got = (got["f_sq"], got["alpha_prod"], got["dirichlet"])
    for name, g, want, scale in zip(("f_sq", "alpha_prod", "dirichlet"), got,
                                    _product_route(f, rho, alpha), _abs_scale(f, rho, alpha)):
        assert abs(g - want) <= REL * max(scale, 1.0), (name, g, want, scale)
    if alpha == 1.0:
        assert rep.lhs == rep.rhs == rep.gap == 0.0
    (left,) = run_check("left_positivity", params)
    assert (left.lhs, left.rhs) == (got[1], got[0])


@st.composite
def measures(draw, dim):
    count = draw(st.integers(1, 4))
    atoms = [draw(st.lists(coord, min_size=dim, max_size=dim)) for _ in range(count)]
    raw = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=count, max_size=count)))
    return DiscreteMeasure(dim, atoms, raw / raw.sum())


@st.composite
def exp_cases(draw):
    dim = draw(st.integers(1, 3))
    count = draw(st.integers(1, 4))
    terms = [(draw(coord), draw(st.lists(coord, min_size=dim, max_size=dim))) for _ in range(count)]
    return ExpCombo(dim, terms), draw(measures(dim)), draw(alphas)


@st.composite
def sparse_chaos_cases(draw):
    dim = draw(st.integers(1, 3))
    index = st.lists(st.integers(0, 8), min_size=dim, max_size=dim).filter(lambda m: sum(m) <= 8)
    coeffs = draw(st.dictionaries(index.map(tuple), st.floats(-1.0, 1.0), min_size=1, max_size=6))
    return ChaosExpansion(dim, coeffs), draw(measures(dim)), draw(alphas)


def _dense_indices(dim, degree):
    return [m for m in itertools.product(range(degree + 1), repeat=dim) if sum(m) <= degree]


@st.composite
def dense_chaos_cases(draw, dim, degree):
    indices = _dense_indices(dim, degree)
    cs = draw(st.lists(st.floats(-1.0, 1.0), min_size=len(indices), max_size=len(indices)))
    return ChaosExpansion(dim, dict(zip(indices, cs))), draw(measures(dim)), draw(alphas)


@SETTINGS
@given(exp_cases())
def test_exp_forms_match_product_route(case):
    _assert_matches_product_route(*case)


@SETTINGS
@given(sparse_chaos_cases())
def test_sparse_chaos_forms_match_product_route(case):
    _assert_matches_product_route(*case)


@settings(SETTINGS, max_examples=15)
@given(dense_chaos_cases(2, 6))
def test_dense_chaos_forms_match_product_route(case):
    _assert_matches_product_route(*case)


@settings(SETTINGS, max_examples=10)
@given(dense_chaos_cases(3, 4))
def test_dense_chaos_forms_in_dim_3_match_product_route(case):
    # the 35 indices of degree <= 4: every axis of the coefficient box translates
    _assert_matches_product_route(*case)


@pytest.mark.parametrize("f", [
    ExpCombo.exponential([0.5, -0.2]),
    ChaosExpansion.basis((1, 2)),
])
def test_deficit_checks_reject_dimension_mismatch(f):
    rho = dirac([0.0] * 1)
    params = {"alpha": 0.5, "f": f.to_json_dict(), "nu": rho.to_json_dict()}
    with pytest.raises(ValueError, match="dimension mismatch"):
        run_check("beckner_deficit", params)
    with pytest.raises(ValueError, match="dimension mismatch"):
        run_check("left_positivity", params)


@pytest.mark.parametrize("check", ["beckner_deficit", "left_positivity"])
def test_constant_chaos_and_exp_functions_give_the_same_rows(check):
    # f = 2 in dim 0: the index () and the direction () are one constant
    nu = {"dim": 0, "atoms": [[]], "weights": [1.0]}
    chaos = {"kind": "chaos", "dim": 0, "terms": [{"m": [], "c": 2.0}]}
    exp = {"kind": "exp", "dim": 0, "terms": [{"coef": 2.0, "h": []}]}
    (c_row,), (e_row,) = (run_check(check, {"alpha": 0.5, "f": f, "nu": nu}) for f in (chaos, exp))
    assert (c_row.lhs, c_row.rhs, c_row.passed) == (e_row.lhs, e_row.rhs, True)
    assert c_row.params["integrals"] == e_row.params["integrals"]
    assert (c_row.lhs, c_row.rhs) == ((0.0, 0.0) if check == "beckner_deficit" else (4.0, 4.0))


FIRST_CHAOS = [([1.3], [0.3]), ([1.3, -0.7], [0.3, -1.1]), ([0.5, -1.2, 0.9], [1.4, 0.2, -0.6])]


def _first_chaos_rows(c, y, alpha):
    dim = len(c)
    f = {"kind": "chaos", "dim": dim,
         "terms": [{"m": np.eye(dim, dtype=int)[l].tolist(), "c": c[l]} for l in range(dim)]}
    (row,) = run_check("beckner_deficit", {"alpha": alpha, "f": f, "nu": dirac(y).to_json_dict()})
    return row


def _first_chaos_closed_forms(c, y, alpha):
    """The closed forms of the row's integrals and their rounding unit.
    f = sum_l c_l He_{e_l} under mu * delta_y: f(. + y) = c.y + f, so
    int f^2 = (c.y)^2 + |c|^2, int f o_a f = (c.y)^2 + a |c|^2 and
    int |Df|^2 = |c|^2, and both sides are (1 - a) |c|^2."""
    cy, cc = float(np.dot(c, y)), float(np.dot(c, c))
    scale = float(np.dot(np.abs(c), np.abs(y))) ** 2 + cc
    return {"f_sq": cy**2 + cc, "alpha_prod": cy**2 + alpha * cc, "dirichlet": cc}, np.finfo(float).eps * scale


@pytest.mark.parametrize("alpha", [0.0, 0.3, 0.7])
@pytest.mark.parametrize("c, y", FIRST_CHAOS)
def test_first_chaos_under_a_dirac_is_the_equality_case(c, y, alpha):
    row = _first_chaos_rows(c, y, alpha)
    want, ulp = _first_chaos_closed_forms(c, y, alpha)
    for name in want:
        assert abs(row.params["integrals"][name] - want[name]) <= 4 * ulp, name
    cc = want["dirichlet"]
    assert abs(row.lhs - (1.0 - alpha) * cc) <= 8 * ulp
    assert abs(row.rhs - (1.0 - alpha) * cc) <= 8 * ulp
    assert row.passed


def _planted_translation(choose, power):
    """A translation matrix P[..., k, r] = choose(r, k) y^{power(r, k)},
    in the layout of checks._translation."""
    def planted(y, top):
        ks = range(top + 1)
        binom = np.array([[choose(r, k) for r in ks] for k in ks], dtype=float)
        return binom * y[..., None, None] ** np.array([[max(power(r, k), 0) for r in ks] for k in ks])
    return planted


def test_translation_matrix_translates_hermite_polynomials():
    # He_r(x + y) = sum_k P[k, r] He_k(x), on a few points, r <= 8
    xs, ys = np.linspace(-2.0, 2.0, 7), np.array([-1.3, 0.0, 0.4, 2.1])
    for y, p in zip(ys, checks._translation(ys, 8)):
        for r in range(9):
            want = hermeval(xs + y, np.eye(9)[r])
            assert np.allclose(hermeval(xs, p[:, r]), want, rtol=1e-12, atol=1e-12)
    assert np.array_equal(checks._translation(ys, 8), _planted_translation(math.comb, lambda r, k: r - k)(ys, 8))


@pytest.mark.parametrize("choose, power", [(math.comb, lambda r, k: r - k + 1),
                                           (lambda r, k: math.comb(r, k + 1), lambda r, k: r - k)],
                         ids=["y^(r-k+1)", "C(r,k+1)"])
def test_first_chaos_equality_catches_a_wrong_translation(monkeypatch, choose, power):
    monkeypatch.setattr(checks, "_translation", _planted_translation(choose, power))
    for c, y in FIRST_CHAOS:
        for alpha in (0.0, 0.3, 0.7):
            got = _first_chaos_rows(c, y, alpha).params["integrals"]
            want, ulp = _first_chaos_closed_forms(c, y, alpha)
            assert any(abs(got[name] - want[name]) > 4 * ulp for name in want), (c, y, alpha)


def test_first_chaos_equality_catches_a_wrong_degree_weight(monkeypatch):
    # a^{|m|+1} for a^{|m|} scales int f o_a f by a: the deficit is then
    # (1 - a) ((c.y)^2 + (1 + a) |c|^2), above (1 - a) |c|^2 at every 0 < a < 1
    right = checks._chaos_forms

    def planted(f, nu, alpha):
        sq, ap, en = right(f, nu, alpha)
        return sq, alpha * ap, en

    monkeypatch.setattr(checks, "_chaos_forms", planted)
    for c, y in FIRST_CHAOS:
        for alpha in (0.3, 0.7):
            assert not _first_chaos_rows(c, y, alpha).passed


def _forms(f, nu, alpha):
    return checks._deficit_batch([f], [nu], [alpha])[0]


@SETTINGS
@given(st.one_of(exp_cases(), sparse_chaos_cases()))
def test_forms_under_nu_average_the_forms_under_its_atoms(case):
    # each integral is linear in nu: under sum_i p_i delta_{y_i} it is
    # sum_i p_i times the integral under delta_{y_i}
    f, nu, alpha = case
    atoms = [_forms(f, dirac(y), alpha) for y in nu.atoms]
    for name, got, parts, scale in zip(("f_sq", "alpha_prod", "dirichlet"), _forms(f, nu, alpha), zip(*atoms),
                                       _abs_scale(f, nu, alpha)):
        want = sum(p * part for p, part in zip(nu.weights.tolist(), parts))
        assert abs(got - want) <= REL * max(scale, 1.0), (name, got, want)


@SETTINGS
@given(sparse_chaos_cases())
def test_classic_beckner_is_the_deficit_under_delta_0(case):
    # under delta_0 the translate is f itself, so beckner_deficit's sides
    # are classic_beckner's coefficient sums, up to the rounding of the
    # difference int f^2 - int f o_a f
    f, _, alpha = case
    params = {"alpha": alpha, "f": f.to_json_dict()}
    (classic,) = run_check("classic_beckner", params)
    (deficit,) = run_check("beckner_deficit", {**params, "nu": dirac([0.0] * f.dim).to_json_dict()})
    scale = sum(index_factorial(m) * c * c * (1 + sum(m)) for m, c in f.coeffs.items())
    assert abs(classic.lhs - deficit.lhs) <= REL * scale
    assert abs(classic.rhs - deficit.rhs) <= REL * scale
    assert classic.passed == deficit.passed
