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

import numpy as np
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
    gradient_exp,
    pointwise_chaos,
    pointwise_exp,
    rho_integral_chaos,
    rho_integral_exp,
    run_check,
)
from wickbench.checks import functions_from_json
from wickbench.measures import measures_from_json

from reference_routes import dirac

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


DENSE_INDICES = [m for m in itertools.product(range(7), repeat=2) if sum(m) <= 6]


@st.composite
def dense_chaos_cases(draw):
    cs = draw(st.lists(st.floats(-1.0, 1.0), min_size=len(DENSE_INDICES), max_size=len(DENSE_INDICES)))
    return ChaosExpansion(2, dict(zip(DENSE_INDICES, cs))), draw(measures(2)), draw(alphas)


@SETTINGS
@given(exp_cases())
def test_exp_forms_match_product_route(case):
    _assert_matches_product_route(*case)


@SETTINGS
@given(sparse_chaos_cases())
def test_sparse_chaos_forms_match_product_route(case):
    _assert_matches_product_route(*case)


@settings(SETTINGS, max_examples=15)
@given(dense_chaos_cases())
def test_dense_chaos_forms_match_product_route(case):
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
