"""Hermite basis, chaos expansions, and the diagonal operator calculus."""

import math

import numpy as np
import pytest

from wickbench import (
    ChaosExpansion,
    dirichlet_energy,
    eval_chaos,
    gamma_apply,
    gauss_hermite_grid,
    gradient,
    l2_inner,
    l2_norm,
    number_apply,
    ou_apply,
)
from wickbench.chaos import chaos_from_json, index_factorial, multi_index, multi_indices

from reference_routes import integrate_mu


def test_multi_index_basics():
    # multi-indices are plain int tuples; lists and numpy ints are coerced
    m = multi_index([2, np.int64(0), 1])
    assert m == (2, 0, 1) and type(m) is tuple and all(type(e) is int for e in m)
    assert index_factorial(m) == 2 and index_factorial((3, 2)) == 12 and index_factorial(()) == 1
    with pytest.raises(TypeError):
        multi_index((1.5, 0))


def test_multi_index_rejects_negative():
    with pytest.raises(ValueError, match=">= 0"):
        multi_index((1, -1))
    with pytest.raises(ValueError, match=">= 0"):
        ChaosExpansion(2, {(1, 0): 1.0, (0, -1): 2.0})
    with pytest.raises(ValueError, match="length 3, expected 2"):
        ChaosExpansion(2, [((1, 0), 1.0), ((1, 0, 0), 2.0)])
    with pytest.raises(ValueError):
        chaos_from_json([{"dim": 1, "terms": [{"m": [-2], "c": 1.0}]}])


def test_expansion_is_canonical():
    # the same terms in any order, with duplicates, give one coeffs list;
    # building again from that list changes nothing
    rng = np.random.default_rng(11)
    for dim in (1, 2, 3) * 10:
        terms = [(tuple(int(x) for x in rng.multinomial(rng.integers(0, 3), np.full(dim, 1 / dim))),
                  float(rng.uniform(-1, 1))) for _ in range(12)]
        f = ChaosExpansion(dim, terms)
        assert list(f.coeffs) == sorted(f.coeffs)
        for _ in range(5):
            order = rng.permutation(len(terms))
            g = ChaosExpansion(dim, [terms[i] for i in order])
            assert list(g.coeffs.items()) == list(f.coeffs.items())
            assert list(ChaosExpansion(dim, dict(g.coeffs)).coeffs.items()) == list(f.coeffs.items())
        assert list(ChaosExpansion(dim, reversed(list(f.coeffs.items()))).coeffs.items()) == \
            list(f.coeffs.items())


@pytest.mark.parametrize("m,w,expected", [
    ((0,), (7.3,), 1.0),
    ((2,), (2.0,), 3.0),       # He_2(x) = x^2 - 1
    ((1, 2), (1.0, 1.0), 0.0),
    ((3,), (2.0,), 2.0),       # He_3(x) = x^3 - 3x
])
def test_hermite_eval_values(m, w, expected):
    assert eval_chaos(ChaosExpansion.basis(m), w) == pytest.approx(expected, abs=1e-14)


def test_hermite_eval_dim_mismatch():
    with pytest.raises(ValueError):
        eval_chaos(ChaosExpansion.basis((1, 2)), (1.0,))


def test_eval_chaos_values():
    const = ChaosExpansion.constant(2, 5.0)
    assert eval_chaos(const, (0.3, -4.0)) == 5.0
    h2 = ChaosExpansion.basis((2,))
    assert eval_chaos(h2, (0.0,)) == -1.0
    f = ChaosExpansion.basis((1,)) + ChaosExpansion.basis((2,))
    assert eval_chaos(f, (1.0,)) == pytest.approx(1.0, abs=1e-14)


def test_eval_chaos_batch():
    f = ChaosExpansion.basis((2,))
    pts = np.array([[0.0], [1.0], [2.0]])
    assert np.allclose(eval_chaos(f, pts), [-1.0, 0.0, 3.0])


def test_l2_inner_values():
    h2 = ChaosExpansion.basis((2,))
    assert l2_inner(h2, h2) == 2.0
    assert l2_inner(ChaosExpansion.basis((1,)), h2) == 0.0
    f = 3.0 * ChaosExpansion.basis((1, 1))
    assert l2_inner(f, f) == 9.0
    with pytest.raises(ValueError):
        l2_inner(h2, ChaosExpansion.basis((1, 1)))


def test_orthogonality_exact_and_by_quadrature():
    # <H_m, H_m'> = m! [m = m'], checked exactly and against the grid
    grid = gauss_hermite_grid(2, 10)
    idx = [m for m in multi_indices(2, 3)]
    for a in idx:
        fa = ChaosExpansion.basis(a)
        for b in idx:
            fb = ChaosExpansion.basis(b)
            exact = l2_inner(fa, fb)
            expected = index_factorial(a) if a == b else 0.0
            assert exact == expected
            quad = integrate_mu(lambda p: eval_chaos(fa, p) * eval_chaos(fb, p), grid)
            assert quad == pytest.approx(expected, abs=1e-8)


def test_dirichlet_energy_values():
    assert dirichlet_energy(ChaosExpansion.constant(1, 3.0)) == 0.0
    assert dirichlet_energy(ChaosExpansion.basis((2,))) == 4.0
    f = ChaosExpansion.basis((1,)) + ChaosExpansion.basis((3,))
    assert dirichlet_energy(f) == 19.0


def test_dirichlet_energy_matches_gradient_quadrature():
    grid = gauss_hermite_grid(1, 12)
    f = ChaosExpansion.basis((2,))
    (df,) = gradient(f)
    quad = integrate_mu(lambda p: eval_chaos(df, p) ** 2, grid)
    assert quad == pytest.approx(4.0, abs=1e-10)


def test_gradient_values():
    (g,) = gradient(ChaosExpansion.basis((1,)))
    assert g.coeffs == {(0,): 1.0}
    (g3,) = gradient(ChaosExpansion.basis((3,)))
    assert g3.allclose(3.0 * ChaosExpansion.basis((2,)))
    gx, gy = gradient(ChaosExpansion.basis((1, 1)))
    assert gx.allclose(ChaosExpansion.basis((0, 1)))
    assert gy.allclose(ChaosExpansion.basis((1, 0)))


def test_gradient_finite_difference():
    rng = np.random.default_rng(42)
    f = ChaosExpansion(2, {(3, 0): 0.7, (1, 2): -1.3, (0, 1): 0.4})
    parts = gradient(f)
    step = 1e-6
    for _ in range(5):
        w = rng.uniform(-2, 2, size=2)
        for k in range(2):
            ek = np.zeros(2)
            ek[k] = step
            fd = (eval_chaos(f, w + ek) - eval_chaos(f, w - ek)) / (2 * step)
            assert fd == pytest.approx(eval_chaos(parts[k], w), abs=1e-6, rel=1e-6)


def test_dirichlet_equals_gradient_inner():
    rng = np.random.default_rng(7)
    for _ in range(20):
        coeffs = {}
        for _ in range(rng.integers(1, 8)):
            m = tuple(int(x) for x in rng.multinomial(rng.integers(0, 7), [0.5, 0.5]))
            coeffs[m] = float(rng.uniform(-2, 2))
        f = ChaosExpansion(2, coeffs)
        total = sum(l2_inner(g, g) for g in gradient(f))
        energy = dirichlet_energy(f)
        assert total == pytest.approx(energy, rel=1e-12, abs=1e-12)


def test_gamma_apply():
    f = ChaosExpansion(1, {(0,): 2.0, (2,): 1.0})
    assert gamma_apply(1.0, f).allclose(f)
    assert gamma_apply(0.0, f).allclose(ChaosExpansion.constant(1, 2.0))
    half = gamma_apply(0.5, ChaosExpansion.basis((2,)))
    assert half.coeffs[(2,)] == 0.25
    with pytest.raises(ValueError):
        gamma_apply(-0.1, f)


@pytest.mark.parametrize("lam", [math.nan, math.inf, -0.5, True, "1"])
def test_gamma_apply_refuses_what_is_not_a_finite_lambda(lam):
    # NaN passed "lam < 0" and scaled every coefficient of positive degree to
    # NaN, which the constructor dropped: gamma_apply(nan, 1 + 0.5 He_2) was 1
    with pytest.raises(ValueError, match="lambda must be a finite number >= 0"):
        gamma_apply(lam, ChaosExpansion(1, {(0,): 1.0, (2,): 0.5}))


def test_gamma_semigroup_and_linearity():
    rng = np.random.default_rng(3)
    f = ChaosExpansion(1, {(k,): float(rng.uniform(-1, 1)) for k in range(5)})
    g = ChaosExpansion(1, {(k,): float(rng.uniform(-1, 1)) for k in range(4)})
    lhs = gamma_apply(0.6, gamma_apply(0.8, f))
    assert lhs.allclose(gamma_apply(0.48, f), tol=1e-14)
    assert gamma_apply(0.7, f + g).allclose(gamma_apply(0.7, f) + gamma_apply(0.7, g), tol=1e-14)


def test_ou_apply():
    f = ChaosExpansion(1, {(0,): 1.5, (1,): 2.0, (4,): -1.0})
    assert ou_apply(0.0, f).allclose(f)
    tamed = ou_apply(math.log(2.0), ChaosExpansion.basis((1,)))
    assert tamed.coeffs[(1,)] == pytest.approx(0.5, rel=1e-15)
    # tau -> infinity keeps only the constant term
    assert ou_apply(800.0, f).allclose(ChaosExpansion.constant(1, 1.5))
    with pytest.raises(ValueError):
        ou_apply(-1.0, f)


@pytest.mark.parametrize("tau", [math.nan, math.inf, -1.0, False])
def test_ou_apply_refuses_what_is_not_a_finite_tau(tau):
    with pytest.raises(ValueError, match="tau must be a finite number >= 0"):
        ou_apply(tau, ChaosExpansion(1, {(0,): 1.0, (2,): 0.5}))


def test_number_operator_matches_energy():
    f = ChaosExpansion(2, {(1, 0): 1.0, (2, 1): -0.5})
    assert l2_inner(number_apply(f), f) == pytest.approx(dirichlet_energy(f), rel=1e-14)


def test_normalization_drops_tiny_coefficients():
    f = ChaosExpansion(1, {(0,): 1.0, (3,): 1e-17})
    assert (3,) not in f.coeffs


def test_expansion_rejects_bad_keys():
    with pytest.raises(ValueError):
        ChaosExpansion(2, {(1,): 1.0})


def test_json_round_trip():
    f = ChaosExpansion(2, {(0, 0): 1.0, (2, 1): -0.25})
    back = chaos_from_json([f.to_json_dict()])[0]
    assert back.allclose(f, tol=0.0)


def test_l2_norm():
    f = 3.0 * ChaosExpansion.basis((1,))
    assert l2_norm(f) == 3.0


def test_multi_indices_enumeration():
    idx = list(multi_indices(2, 2))
    assert idx == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    assert list(multi_indices(0, 5)) == [()]
