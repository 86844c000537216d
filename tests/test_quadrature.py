"""The independent oracles: Gauss-Hermite grids, Monte Carlo, Mehler smoothing."""

import math
import re

import numpy as np
import pytest

from wickbench import (
    ChaosExpansion,
    DiscreteMeasure,
    ExpCombo,
    eval_chaos,
    exp_eval,
    gamma_apply,
    gauss_hermite_grid,
    default_grid,
    integrate_rho,
    lp_norm_exp,
    mc_integral_rho,
    mu_inner_exp,
    ou_apply,
    sample_rho,
)
from wickbench import quadrature
from wickbench.chaos import multi_indices
from wickbench.measures import MC_BLOCK
from wickbench.quadrature import default_order, lp_norm_mu

from reference_routes import integrate_mu, mehler_ou


def test_grid_structure():
    grid = gauss_hermite_grid(2, 5)
    assert grid.nodes.shape == (25, 2)
    assert np.all(grid.weights > 0)
    assert grid.weights.sum() == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        gauss_hermite_grid(0, 5)
    with pytest.raises(ValueError):
        gauss_hermite_grid(1, 0)


def test_grid_warns_on_huge_node_count():
    with pytest.warns(UserWarning):
        gauss_hermite_grid(3, 101)


def test_small_grids_are_built_once_and_large_ones_warn_every_time(monkeypatch):
    grid = gauss_hermite_grid(2, 7)
    assert gauss_hermite_grid(2, 7) is grid
    assert not grid.nodes.flags.writeable and not grid.weights.flags.writeable
    # a grid past NODE_COUNT_WARN is neither shared nor silent
    monkeypatch.setattr(quadrature, "NODE_COUNT_WARN", 10)
    grids = []
    for _ in range(2):
        with pytest.warns(UserWarning, match="grid has 16 nodes"):
            grids.append(gauss_hermite_grid(2, 4))
    assert grids[0] is not grids[1]
    assert np.array_equal(grids[0].nodes, grids[1].nodes)


def test_grid_is_immutable():
    grid = gauss_hermite_grid(1, 4)
    with pytest.raises(ValueError):
        grid.nodes[0, 0] = 99.0


def test_polynomial_exactness():
    # order 8 integrates every Hermite pair of degree <= 7 exactly
    grid = gauss_hermite_grid(2, 8)
    for m in multi_indices(2, 4):
        f = ChaosExpansion.basis(m)
        val = integrate_mu(lambda p: eval_chaos(f, p), grid)
        expected = 1.0 if sum(m) == 0 else 0.0
        assert val == pytest.approx(expected, abs=1e-13)
    h2 = ChaosExpansion.basis((2, 0))
    sq = integrate_mu(lambda p: eval_chaos(h2, p) ** 2, grid)
    assert sq == pytest.approx(2.0, rel=1e-13)


def test_integrate_mu_exponentials():
    grid = gauss_hermite_grid(1, 25)
    e1 = ExpCombo.exponential([1.0])
    assert integrate_mu(e1.eval, grid) == pytest.approx(1.0, abs=1e-12)
    sq = integrate_mu(lambda p: exp_eval(e1, p) ** 2, grid)
    assert sq == pytest.approx(math.e, rel=1e-12)


def test_integrate_mu_rejects_non_batch_callable():
    # point functions take the whole (N, n) node array; one that returns
    # any other shape is an error, not a cue to evaluate point by point
    grid = gauss_hermite_grid(1, 10)
    with pytest.raises(ValueError, match=r"shape \(1,\)"):
        integrate_mu(lambda w: w[0] ** 2, grid)
    with pytest.raises(ValueError, match=r"shape \(10, 1\)"):
        lp_norm_mu(lambda w: w ** 2, 2.0, grid)


def test_lp_norm_mu():
    grid = gauss_hermite_grid(1, 30)
    e1 = ExpCombo.exponential([1.0])
    assert lp_norm_mu(e1.eval, 2.0, grid) == pytest.approx(math.exp(0.5), rel=1e-12)
    assert lp_norm_mu(e1.eval, 3.0, grid) == pytest.approx(math.e, rel=1e-10)
    assert lp_norm_mu(lambda p: np.ones(p.shape[0]), 7.0, grid) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        lp_norm_mu(e1.eval, 0.5, grid)


def test_mehler_identity_at_zero():
    grid = gauss_hermite_grid(1, 20)
    f = ChaosExpansion(1, {(0,): 0.5, (3,): -1.0})
    smoothed = mehler_ou(lambda p: eval_chaos(f, p), 0.0, grid)
    for w in ([0.0], [1.3], [-0.4]):
        assert smoothed(w) == pytest.approx(eval_chaos(f, w), abs=1e-12)


def test_mehler_matches_exponential_decay():
    grid = gauss_hermite_grid(1, 25)
    e1 = ExpCombo.exponential([1.0])
    tau = 0.5
    smoothed = mehler_ou(e1.eval, tau, grid)
    # P_tau E(h) = E(e^{-tau} h), checked at a point
    decayed = ExpCombo.exponential([math.exp(-tau)])
    assert smoothed([1.0]) == pytest.approx(exp_eval(decayed, [1.0]), rel=1e-12)


def test_mehler_matches_coefficient_action():
    grid = gauss_hermite_grid(2, 20)
    rng = np.random.default_rng(21)
    f = ChaosExpansion(2, {(3, 1): 0.8, (0, 2): -0.3, (1, 0): 1.1})
    for tau in (0.2, 1.0):
        smoothed = mehler_ou(lambda p: eval_chaos(f, p), tau, grid)
        direct = ou_apply(tau, f)
        w = rng.uniform(-1.5, 1.5, size=(6, 2))
        assert np.allclose(smoothed(w), eval_chaos(direct, w), atol=1e-10)
    with pytest.raises(ValueError):
        mehler_ou(f.eval, -0.2, grid)


def test_integrate_rho_shifts():
    grid = gauss_hermite_grid(1, 25)
    rho = DiscreteMeasure(1, [[1.0], [-1.0]], [0.5, 0.5])
    f = ExpCombo.exponential([2.0])
    val = integrate_rho(f.eval, rho, grid)
    assert val == pytest.approx(math.cosh(2.0), rel=1e-10)


def test_integrate_rho_rows_are_one_integral_each():
    # a point function of three rows gives the three 1-D integrals, read
    # from one evaluation per atom
    grid = gauss_hermite_grid(2, 12)
    nu = DiscreteMeasure(2, [[0.4, -0.3], [-1.1, 0.2]], [0.3, 0.7])
    fns = [ExpCombo(2, [(1.2, [0.6, -0.3]), (-0.9, [-0.4, 0.8])]).eval,
           lambda p: p[:, 0] ** 2 * p[:, 1], lambda p: np.cos(p).sum(axis=1)]
    rows = integrate_rho(lambda p: np.stack([fn(p) for fn in fns]), nu, grid)
    assert rows.shape == (3,)
    for got, fn in zip(rows, fns):
        want = integrate_rho(fn, nu, grid)
        assert isinstance(want, float)
        assert abs(got - want) <= 1e-15 * abs(want)


@pytest.mark.parametrize("shape", [(11,), (2, 11), (2, 3, 10)])
def test_rho_integrals_reject_other_shapes(shape):
    # integrate_rho and mc_integral_rho share one contract on their 10
    # points: (10,) or (m, 10)
    grid, nu = gauss_hermite_grid(1, 10), DiscreteMeasure(1, [[0.5]], [1.0])
    message = re.escape(f"returned shape {shape}, expected (10,) or (m, 10)")
    for integrate in (lambda fn: integrate_rho(fn, nu, grid), lambda fn: mc_integral_rho(fn, nu, 3, 10)):
        with pytest.raises(ValueError, match=message):
            integrate(lambda p: np.zeros(shape))


def test_mc_integral_rho():
    rho = DiscreteMeasure(1, [[1.0], [-1.0]], [0.5, 0.5])
    est, se = mc_integral_rho(lambda p: np.ones(p.shape[0]), rho, 5, 1000)
    assert est == 1.0 and se == 0.0
    f = ExpCombo.exponential([2.0])
    est, se = mc_integral_rho(f.eval, rho, 12345, 100_000)
    assert abs(est - math.cosh(2.0)) <= 4.0 * se
    est2, _ = mc_integral_rho(f.eval, rho, 12345, 100_000)
    assert est2 == est
    with pytest.raises(ValueError):
        mc_integral_rho(f.eval, rho, 1, 1)


@pytest.mark.parametrize("count", [2, MC_BLOCK - 1, MC_BLOCK, MC_BLOCK + 1, 20_000])
def test_mc_integral_rho_blocks_give_the_bits_of_a_whole_evaluation(count):
    # fn sees at most MC_BLOCK points at a time, and the estimate and
    # standard error are bit for bit those of mean() and std(ddof=1) over
    # one evaluation on the whole sample, for (N,) and (m, N) values
    nu = DiscreteMeasure(2, [[0.4, -0.3], [-1.1, 0.2]], [0.3, 0.7])
    f = ExpCombo(2, [(1.2, [0.6, -0.3]), (-0.9, [-0.4, 0.8])])
    for fn in (f.eval, lambda p: np.stack([f.eval(p), p[:, 0] ** 2 * p[:, 1], np.cos(p).sum(axis=1)])):
        sizes = []

        def blocked(p):
            sizes.append(len(p))
            return fn(p)

        est, se = mc_integral_rho(blocked, nu, 9, count)
        assert max(sizes) <= MC_BLOCK and sum(sizes) == count
        vals = fn(sample_rho(nu, 9, count))
        whole = vals.mean(axis=-1), vals.std(axis=-1, ddof=1) / math.sqrt(count)
        assert np.ndim(est) == np.ndim(se) == vals.ndim - 1
        assert np.asarray(est).tobytes() == whole[0].tobytes() and np.asarray(se).tobytes() == whole[1].tobytes()


def test_default_order_policy():
    assert default_order(1) == 30
    assert default_order(2) == 30
    assert default_order(3) == 12
    # the one rule for which dimensions tensor quadrature serves
    with pytest.raises(ValueError, match="tensor quadrature is limited to n <= 3, got n=4"):
        default_order(4)


def test_lp_norm_exp_single_term():
    f = ExpCombo.exponential([0.6, -0.8], -2.0)
    for p in (1.0, 2.0, 2.5, 4.0):
        val, method = lp_norm_exp(f, p)
        assert method == "exact"
        assert val == pytest.approx(2.0 * math.exp(0.5 * (p - 1.0)), rel=1e-15)


@pytest.mark.parametrize("p", [math.nan, math.inf, 0.5, True])
def test_lp_norm_exp_refuses_what_is_not_a_finite_p(p):
    # NaN passed "p < 1" and came back as (nan, "quadrature")
    f = ExpCombo(1, [(1.0, [0.5]), (-0.5, [-0.3])])
    with pytest.raises(ValueError, match="p must be a finite number >= 1"):
        lp_norm_exp(f, p)


def test_lp_norm_exp_p2_matches_inner():
    f = ExpCombo.exponential([1.0]) + ExpCombo.exponential([-0.5], 0.7)
    val, method = lp_norm_exp(f, 2.0)
    assert method == "exact"
    assert val == pytest.approx(math.sqrt(mu_inner_exp(f, f)), rel=1e-15)


def test_lp_norm_exp_even_power_matches_quadrature():
    f = ExpCombo.exponential([0.5]) + ExpCombo.exponential([-0.25], -0.4)
    exact, method = lp_norm_exp(f, 4.0)
    assert method == "exact"
    grid = gauss_hermite_grid(1, 30)
    quad = lp_norm_mu(f.eval, 4.0, grid)
    assert quad == pytest.approx(exact, rel=1e-10)


def test_lp_norm_exp_quadrature_fallback():
    f = ExpCombo.exponential([0.5]) + ExpCombo.exponential([-0.25], 0.4)
    val, method = lp_norm_exp(f, 3.0)
    assert method == "quadrature"
    grid = gauss_hermite_grid(1, 40)
    assert val == pytest.approx(lp_norm_mu(f.eval, 3.0, grid), rel=1e-9)


def test_lp_norm_exp_rejects_odd_high_dim():
    f = ExpCombo.exponential([0.1] * 4) + ExpCombo.exponential([0.2] * 4)
    with pytest.raises(ValueError, match="tensor quadrature is limited to n <= 3"):
        lp_norm_exp(f, 3.0)
    with pytest.raises(ValueError):
        lp_norm_exp(f, 0.9)


def test_zero_combo_norm():
    val, method = lp_norm_exp(ExpCombo(2), 3.0)
    assert val == 0.0 and method == "exact"


def test_default_grid():
    grid = default_grid(2)
    assert grid.order == 30 and grid.dim == 2
