"""Exponential-span combos: closed-form products, gamma action, chaos lowering."""

import math

import numpy as np
import pytest

from wickbench import (
    ChaosExpansion,
    ExpCombo,
    alpha_exp,
    eval_chaos,
    exp_eval,
    gammas_exp,
    l2_inner,
    mu_inner_exp,
    pointwise_exp,
    to_chaos,
    to_chaos_tail_bound,
    wick_exp,
)
from wickbench.expspan import exps_from_json

from reference_routes import gradient_exp


def _random_combo(rng, dim, n_terms, scale=1.0):
    terms = [
        (float(rng.uniform(-1.5, 1.5)), rng.uniform(-scale, scale, size=dim))
        for _ in range(n_terms)
    ]
    out = None
    for w, h in terms:
        piece = ExpCombo.exponential(h, w)
        out = piece if out is None else out + piece
    return out


def test_exp_eval_values():
    one = ExpCombo.exponential([0.0])
    assert exp_eval(one, [123.0]) == 1.0
    e1 = ExpCombo.exponential([1.0])
    assert exp_eval(e1, [1.0]) == pytest.approx(math.exp(0.5), rel=1e-15)
    odd = ExpCombo.exponential([1.0]) - ExpCombo.exponential([-1.0])
    assert exp_eval(odd, [0.0]) == 0.0


def test_exp_eval_batch():
    f = ExpCombo.exponential([1.0, 0.0], 2.0)
    pts = np.array([[0.0, 5.0], [1.0, -1.0]])
    vals = exp_eval(f, pts)
    assert vals.shape == (2,)
    assert vals[0] == pytest.approx(2.0 * math.exp(-0.5), rel=1e-15)
    assert vals[1] == pytest.approx(2.0 * math.exp(0.5), rel=1e-15)


def test_exp_eval_batch_is_the_direct_formula_bitwise():
    rng = np.random.default_rng(3)
    for k in (1, 3, 9):
        f = ExpCombo(2, zip(rng.uniform(-1.5, 1.5, k), rng.uniform(-1.5, 1.5, (k, 2))))
        pts = rng.standard_normal((20_000, 2))
        half = 0.5 * np.sum(f.directions**2, axis=1)
        direct = np.exp(pts @ f.directions.T - half) @ f.weights
        assert np.array_equal(exp_eval(f, pts), direct)


def test_combo_merges_repeated_directions():
    f = ExpCombo.exponential([0.5]) + ExpCombo.exponential([0.5])
    assert f.n_terms == 1
    assert f.terms[0][0] == 2.0
    z = ExpCombo.exponential([0.5]) - ExpCombo.exponential([0.5])
    assert z.n_terms == 0


def test_combo_merges_nearby_directions():
    f = ExpCombo.exponential([0.5]) + ExpCombo.exponential([0.5 + 1e-14])
    assert f.n_terms == 1


def test_wick_exp():
    e1 = ExpCombo.exponential([1.0])
    prod = wick_exp(e1, e1)
    assert prod.allclose(ExpCombo.exponential([2.0]), tol=0.0)
    unit = ExpCombo.one(1)
    assert wick_exp(unit, e1).allclose(e1, tol=0.0)


def test_wick_exp_bilinear():
    rng = np.random.default_rng(11)
    f, g, h = (_random_combo(rng, 2, 3) for _ in range(3))
    lhs = wick_exp(f + g, h)
    rhs = wick_exp(f, h) + wick_exp(g, h)
    assert lhs.allclose(rhs, tol=1e-13)


def test_pointwise_exp():
    e1 = ExpCombo.exponential([1.0])
    prod = pointwise_exp(e1, e1)
    assert prod.allclose(ExpCombo.exponential([2.0], math.e), tol=0.0)
    em1 = ExpCombo.exponential([-1.0])
    cancel = pointwise_exp(e1, em1)
    assert cancel.allclose(ExpCombo.one(1) * math.exp(-1.0), tol=0.0)


def test_pointwise_exp_matches_evaluation():
    rng = np.random.default_rng(5)
    f = _random_combo(rng, 2, 3)
    g = _random_combo(rng, 2, 2)
    prod = pointwise_exp(f, g)
    for _ in range(5):
        w = rng.uniform(-2, 2, size=2)
        assert exp_eval(prod, w) == pytest.approx(
            exp_eval(f, w) * exp_eval(g, w), rel=1e-12)


def test_alpha_exp_endpoints_are_exact():
    rng = np.random.default_rng(17)
    f = _random_combo(rng, 2, 3)
    g = _random_combo(rng, 2, 3)
    w0 = alpha_exp(f, g, 0.0)
    w1 = alpha_exp(f, g, 1.0)
    assert w0.allclose(wick_exp(f, g), tol=0.0)
    assert w1.allclose(pointwise_exp(f, g), tol=0.0)
    # the endpoint weights agree bit for bit, not just within tolerance
    assert [t[0] for t in w1.terms] == [t[0] for t in pointwise_exp(f, g).terms]


def test_alpha_exp_value():
    e1 = ExpCombo.exponential([1.0])
    prod = alpha_exp(e1, e1, 0.5)
    assert prod.allclose(ExpCombo.exponential([2.0], math.exp(0.5)), tol=0.0)
    with pytest.raises(ValueError):
        alpha_exp(e1, e1, 1.2)
    with pytest.raises(ValueError):
        alpha_exp(e1, e1, -0.1)


def test_alpha_exp_commutes():
    rng = np.random.default_rng(23)
    f = _random_combo(rng, 3, 2)
    g = _random_combo(rng, 3, 3)
    assert alpha_exp(f, g, 0.3).allclose(alpha_exp(g, f, 0.3), tol=1e-13)


def test_gamma_exp():
    e2 = ExpCombo.exponential([2.0], 3.0)
    assert gammas_exp([1.0], [e2])[0].allclose(e2, tol=0.0)
    assert gammas_exp([0.5], [e2])[0].allclose(ExpCombo.exponential([1.0], 3.0), tol=0.0)
    squashed = gammas_exp([0.0], [e2])[0]
    assert squashed.allclose(ExpCombo.one(1) * 3.0, tol=0.0)
    with pytest.raises(ValueError):
        gammas_exp([-1.0], [e2])


def test_gamma_exp_wick_homomorphism():
    rng = np.random.default_rng(31)
    for _ in range(10):
        f = _random_combo(rng, 2, 3)
        g = _random_combo(rng, 2, 2)
        lam = float(rng.uniform(0.0, 2.0))
        lhs = gammas_exp([lam], [wick_exp(f, g)])[0]
        rhs = wick_exp(*gammas_exp([lam, lam], [f, g]))
        assert lhs.allclose(rhs, tol=1e-12)


def test_gamma_exp_alpha_homomorphism():
    # Gamma(lam) sends the alpha-product to the alpha/lam^2 product
    rng = np.random.default_rng(37)
    for _ in range(10):
        f = _random_combo(rng, 2, 2)
        g = _random_combo(rng, 2, 2)
        lam = float(rng.uniform(1.0, 2.0))
        alpha = float(rng.uniform(0.0, 1.0))
        lhs = gammas_exp([lam], [alpha_exp(f, g, alpha)])[0]
        rhs = alpha_exp(*gammas_exp([lam, lam], [f, g]), alpha / lam**2)
        assert lhs.allclose(rhs, tol=1e-12)


def test_gradient_exp():
    assert all(g.n_terms == 0 for g in gradient_exp(ExpCombo.one(1)))
    e3 = ExpCombo.exponential([3.0])
    (g,) = gradient_exp(e3)
    assert g.allclose(e3 * 3.0, tol=0.0)
    gx, gy = gradient_exp(ExpCombo.exponential([1.0, 2.0]))
    assert gx.allclose(ExpCombo.exponential([1.0, 2.0]), tol=0.0)
    assert gy.allclose(ExpCombo.exponential([1.0, 2.0], 2.0), tol=0.0)


def test_mu_inner_exp_values():
    e1 = ExpCombo.exponential([1.0])
    em1 = ExpCombo.exponential([-1.0])
    assert mu_inner_exp(e1, ExpCombo.one(1)) == 1.0
    assert mu_inner_exp(e1, em1) == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert mu_inner_exp(e1, e1) == pytest.approx(math.e, rel=1e-15)


def test_wick_characterized_by_exponential_pairing():
    # <f <> g, E(h)> = <f, E(h)> <g, E(h)>
    rng = np.random.default_rng(41)
    for _ in range(10):
        f = _random_combo(rng, 2, 3)
        g = _random_combo(rng, 2, 2)
        probe = ExpCombo.exponential(rng.uniform(-1, 1, size=2))
        lhs = mu_inner_exp(wick_exp(f, g), probe)
        rhs = mu_inner_exp(f, probe) * mu_inner_exp(g, probe)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-13)


def test_to_chaos_values():
    c = to_chaos(ExpCombo.one(1) * 4.0, 6)
    assert c.allclose(4.0 * to_chaos(ExpCombo.one(1), 0), tol=0.0)
    f = to_chaos(ExpCombo.exponential([0.5]), 2)
    assert eval_chaos(f, [0.0]) == pytest.approx(1.0 - 0.125, rel=1e-15)
    assert [f.coeffs[m] for m in sorted(f.coeffs, key=sum)] == \
        pytest.approx([1.0, 0.5, 0.125])


def test_to_chaos_converges_pointwise():
    rng = np.random.default_rng(43)
    f = _random_combo(rng, 2, 3, scale=0.6)
    trunc = to_chaos(f, 20)
    for _ in range(5):
        w = rng.uniform(-1.5, 1.5, size=2)
        assert eval_chaos(trunc, w) == pytest.approx(exp_eval(f, w), abs=1e-8)


def _series_tail(s, cap, terms=80):
    # sum_{t > cap} s^t / t!, the mixed tail of e^s
    return sum(s**t / math.factorial(t) for t in range(cap + 1, cap + terms))


def test_to_chaos_tail_bound_dominates_l2_tail():
    # the exact squared tail expands over term pairs as the tail of the
    # exponential series in s = <h_j, h_k>; summing that series directly
    # avoids the catastrophic cancellation of ||f||^2 - ||trunc||^2
    rng = np.random.default_rng(47)
    for _ in range(10):
        f = _random_combo(rng, 2, 3, scale=0.9)
        for cap in (4, 8, 12):
            tail_sq = 0.0
            for wa, ha in zip(f.weights, f.directions):
                for wb, hb in zip(f.weights, f.directions):
                    tail_sq += wa * wb * _series_tail(float(ha @ hb), cap)
            bound = to_chaos_tail_bound(f, cap)
            assert math.sqrt(max(tail_sq, 0.0)) <= bound * (1 + 1e-12) + 1e-15
            # and the projection route agrees up to its own noise floor
            trunc = to_chaos(f, cap)
            proj_tail = mu_inner_exp(f, f) - l2_inner(trunc, trunc)
            assert proj_tail == pytest.approx(tail_sq, abs=1e-10)
    assert to_chaos_tail_bound(ExpCombo.one(2), 3) == 0.0


def test_dim_mismatch_raises():
    with pytest.raises(ValueError):
        wick_exp(ExpCombo.one(1), ExpCombo.one(2))
    with pytest.raises(ValueError):
        mu_inner_exp(ExpCombo.one(1), ExpCombo.one(2))
    c1, c2 = ChaosExpansion.constant(1, 1.0), ChaosExpansion.constant(2, 1.0)
    for mismatched in (lambda: ExpCombo.one(1) + ExpCombo.one(2), lambda: c1 + c2,
                       lambda: l2_inner(c1, c2)):
        with pytest.raises(ValueError, match="dimension mismatch: 1 vs 2"):
            mismatched()


def test_json_round_trip():
    f = ExpCombo.exponential([1.0, -0.5], 2.0) + ExpCombo.exponential([0.0, 0.25], -1.0)
    back = exps_from_json([f.to_json_dict()])[0]
    assert back.allclose(f, tol=0.0)
    assert back.terms == f.terms
