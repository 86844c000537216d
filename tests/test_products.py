"""Chaos-side products and the Holder exponent relation."""

import math

import numpy as np
import pytest

from wickbench import (
    ChaosExpansion,
    ExpCombo,
    HolderParams,
    alpha_chaos,
    alpha_exp,
    eval_chaos,
    gamma_apply,
    pointwise_chaos,
    to_chaos,
    wick_chaos,
)
from wickbench.products import holder_relation_check

H1 = ChaosExpansion.basis((1,))
H2 = ChaosExpansion.basis((2,))
H3 = ChaosExpansion.basis((3,))


def _random_chaos(rng, dim, n_terms, max_degree=6):
    coeffs = {}
    for _ in range(n_terms):
        deg = int(rng.integers(0, max_degree + 1))
        m = tuple(int(x) for x in rng.multinomial(deg, [1.0 / dim] * dim))
        coeffs[m] = float(rng.uniform(-1, 1))
    return ChaosExpansion(dim, coeffs)


def test_wick_chaos_values():
    assert wick_chaos(H1, H1).allclose(H2, tol=0.0)
    one = ChaosExpansion.constant(1, 1.0)
    assert wick_chaos(H3, one).allclose(H3, tol=0.0)
    f = wick_chaos(2.0 * H1, 3.0 * H2)
    assert f.allclose(6.0 * H3, tol=0.0)


def test_wick_chaos_matches_exponential_route():
    rng = np.random.default_rng(19)
    for _ in range(10):
        h = rng.uniform(-0.8, 0.8, size=2)
        k = rng.uniform(-0.8, 0.8, size=2)
        ef, eg = ExpCombo.exponential(h), ExpCombo.exponential(k)
        cap = 10
        lhs = wick_chaos(to_chaos(ef, cap), to_chaos(eg, cap))
        rhs = to_chaos(ExpCombo.exponential(h + k), cap)
        # degrees above cap differ by construction; compare the shared range
        for m, c in rhs.coeffs.items():
            if sum(m) <= cap:
                assert lhs.coeffs.get(m, 0.0) == pytest.approx(c, rel=1e-10, abs=1e-12)


def test_pointwise_chaos_values():
    # He_1^2 = He_2 + 1
    sq = pointwise_chaos(H1, H1)
    assert sq.allclose(H2 + ChaosExpansion.constant(1, 1.0), tol=0.0)
    # He_1 He_2 = He_3 + 2 He_1
    prod = pointwise_chaos(H1, H2)
    assert prod.allclose(H3 + 2.0 * H1, tol=0.0)
    # alpha weights the order-k terms and must lie in [0, 1]
    for alpha in (-0.5, 1.5, math.nan):
        with pytest.raises(ValueError):
            pointwise_chaos(H1, H1, alpha)


def test_pointwise_chaos_matches_evaluation():
    rng = np.random.default_rng(29)
    for _ in range(10):
        f = _random_chaos(rng, 2, 4)
        g = _random_chaos(rng, 2, 3)
        prod = pointwise_chaos(f, g)
        w = rng.uniform(-2, 2, size=2)
        assert eval_chaos(prod, w) == pytest.approx(
            eval_chaos(f, w) * eval_chaos(g, w), rel=1e-11, abs=1e-11)


def test_products_associative_and_commutative():
    rng = np.random.default_rng(59)
    f = _random_chaos(rng, 2, 3, max_degree=4)
    g = _random_chaos(rng, 2, 3, max_degree=4)
    h = _random_chaos(rng, 2, 2, max_degree=4)
    for prod in (wick_chaos, pointwise_chaos):
        assert prod(f, g).allclose(prod(g, f), tol=1e-12)
        assert prod(prod(f, g), h).allclose(prod(f, prod(g, h)), tol=1e-10)


def test_alpha_chaos_endpoints():
    rng = np.random.default_rng(61)
    f = _random_chaos(rng, 2, 4)
    g = _random_chaos(rng, 2, 4)
    assert alpha_chaos(f, g, 0.0).allclose(wick_chaos(f, g), tol=0.0)
    # alpha=1 goes through identity scalings, so it is bit-exact
    p1 = alpha_chaos(f, g, 1.0)
    assert p1.coeffs == pointwise_chaos(f, g).coeffs


def test_alpha_chaos_small_alpha_keeps_high_degrees():
    # He_4 o_a He_4 = sum_k a^k C(4,k)^2 k! He_{8-2k}; at a = 1e-4 the
    # operator form's intermediate Gamma(sqrt(a)) He_4 = 1e-8 He_4 has a
    # square below COEFF_EPS, so that route would lose every term
    alpha = 1e-4
    prod = alpha_chaos(ChaosExpansion.basis((4,)), ChaosExpansion.basis((4,)), alpha)
    expected = {(8 - 2 * k,): alpha**k * math.comb(4, k) ** 2 * math.factorial(k) for k in range(5)}
    assert set(prod.coeffs) == set(expected)
    for m, c in expected.items():
        assert prod.coeffs[m] == pytest.approx(c, rel=1e-14)


def test_alpha_chaos_first_chaos():
    # He_1 o_a He_1 = He_2 + alpha
    for alpha in (0.25, 0.5, 0.75):
        prod = alpha_chaos(H1, H1, alpha)
        expected = H2 + ChaosExpansion.constant(1, alpha)
        assert prod.allclose(expected, tol=1e-14)
    with pytest.raises(ValueError):
        alpha_chaos(H1, H1, -0.5)


def test_alpha_chaos_matches_exponential_route():
    rng = np.random.default_rng(67)
    cap = 12
    for alpha in (0.2, 0.7):
        h = rng.uniform(-0.7, 0.7, size=2)
        k = rng.uniform(-0.7, 0.7, size=2)
        combo = alpha_exp(ExpCombo.exponential(h), ExpCombo.exponential(k), alpha)
        via_exp = to_chaos(combo, 6)
        via_chaos = alpha_chaos(to_chaos(ExpCombo.exponential(h), cap),
                                to_chaos(ExpCombo.exponential(k), cap), alpha)
        for m, c in via_exp.coeffs.items():
            assert via_chaos.coeffs.get(m, 0.0) == pytest.approx(c, rel=1e-7, abs=1e-9)


def test_degree_bounds():
    rng = np.random.default_rng(71)
    f = _random_chaos(rng, 2, 3, max_degree=5)
    g = _random_chaos(rng, 2, 3, max_degree=4)
    total = f.degree + g.degree
    assert wick_chaos(f, g).degree <= total
    assert pointwise_chaos(f, g).degree <= total
    assert alpha_chaos(f, g, 0.6).degree <= total


def test_jensen_contraction_pointwise():
    # Mehler averaging plus Jensen: (Gamma(s) f)^2 <= Gamma(s)(f^2) pointwise
    rng = np.random.default_rng(73)
    for _ in range(10):
        f = _random_chaos(rng, 1, 4, max_degree=5)
        s = float(rng.uniform(0.0, 1.0))
        lhs = pointwise_chaos(gamma_apply(s, f), gamma_apply(s, f))
        rhs = gamma_apply(s, pointwise_chaos(f, f))
        w = rng.uniform(-2.5, 2.5, size=(8, 1))
        assert np.all(eval_chaos(lhs, w) <= eval_chaos(rhs, w) + 1e-10)


def test_holder_params_validation():
    with pytest.raises(ValueError):
        HolderParams(p=1.0, q=2.0, r=2.0, alpha=0.5)
    with pytest.raises(ValueError):
        HolderParams(p=2.0, q=2.0, r=0.5, alpha=0.5)
    with pytest.raises(ValueError):
        HolderParams(p=2.0, q=2.0, r=2.0, alpha=1.5)
    for p, q, r in ((math.inf, 1.75, 2.0), (2.0, math.nan, 2.0), (2.0, 2.0, math.inf)):
        with pytest.raises(ValueError, match="p, q and r must be finite"):
            HolderParams(p=p, q=q, r=r, alpha=0.5)


def test_holder_relation_conjugate_family():
    for k in range(11):
        alpha = k / 10
        ok, residual = holder_relation_check(HolderParams.conjugate_family(alpha))
        assert ok, f"alpha={alpha}: residual {residual}"
        assert abs(residual) <= 1e-15


def test_holder_relation_classical_endpoint():
    # alpha = 1 collapses to ordinary Holder: 1/r = 1/p + 1/q
    ok, _ = holder_relation_check(HolderParams(p=2.0, q=2.0, r=1.0, alpha=1.0))
    assert ok
    ok, _ = holder_relation_check(HolderParams(p=3.0, q=6.0, r=2.0, alpha=1.0))
    assert ok
    bad, residual = holder_relation_check(HolderParams(p=3.0, q=3.0, r=2.0, alpha=1.0))
    assert not bad and abs(residual) > 1e-3


def test_holder_relation_rejects_singular_r():
    # at alpha = 0 the shift is 1, so r = 1 puts the relation on its pole
    with pytest.raises(ValueError):
        holder_relation_check(HolderParams(p=2.0, q=2.0, r=1.0, alpha=0.0))
