"""Discrete convolution factors, shifted-measure integrals, Gram certificates."""

import math

import numpy as np
import pytest

from wickbench import (
    ChaosExpansion,
    DiscreteMeasure,
    ExpCombo,
    char_gram,
    convolutions,
    densities_xi,
    exp_eval,
    g_lambda_norms,
    mu_inner_exp,
    rho_integral_chaos,
    rho_integral_exp,
    run_check,
    sample_rho,
)
from wickbench.measures import MC_BLOCK, gammas_xi, measures_from_json
from wickbench.suite import _ENCODE

from reference_routes import dirac, draw_rho


def _two_atom(dim=1, a=1.0):
    y = np.zeros(dim)
    y[0] = a
    return DiscreteMeasure(dim, [y, -y], [0.5, 0.5])


def test_discrete_measure_validation():
    with pytest.raises(ValueError):
        DiscreteMeasure(1, [[0.0]], [0.9])
    with pytest.raises(ValueError):
        DiscreteMeasure(1, [[0.0], [1.0]], [1.5, -0.5])
    with pytest.raises(ValueError):
        DiscreteMeasure(2, [[0.0]], [1.0])


@pytest.mark.parametrize("atoms, weights, what", [
    ([[math.nan]], [1.0], "atoms"),
    ([[-math.inf]], [1.0], "atoms"),
    ([[0.0]], [math.nan], "weights"),
])
def test_discrete_measure_rejects_non_finite_input(atoms, weights, what):
    # a NaN weight compares false, so the sign and sum checks alone let it through
    with pytest.raises(ValueError, match=f"{what} must be finite numbers"):
        DiscreteMeasure(1, atoms, weights)


def test_stored_zeros_do_not_depend_on_input_order():
    # -0.0 == 0.0, so the merge of equal rows keeps whichever sign comes first
    rows = [[0.0], [-0.0]]
    for build in (lambda r: DiscreteMeasure(1, r, [0.5, 0.5]),
                  lambda r: ExpCombo(1, [(0.5, h) for h in r])):
        assert _ENCODE(build(rows).to_json_dict()) == _ENCODE(build(rows[::-1]).to_json_dict())


def test_discrete_measure_merges_duplicates():
    nu = DiscreteMeasure(1, [[1.0], [1.0], [0.0]], [0.25, 0.25, 0.5])
    assert nu.n_atoms == 2
    assert nu.weights.sum() == 1.0


def test_measure_and_combo_share_canonical_form():
    # exact duplicates summed, rows sorted, a row within MERGE_TOL of its
    # sorted neighbour folded into it; only ExpCombo drops zero weights
    rows = [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0 + 1e-13], [-1.0, 2.0], [2.0, 2.0]]
    weights = [0.1, 0.2, 0.3, 0.0, 0.4, 0.0]
    nu = DiscreteMeasure(2, rows, weights)
    assert nu.atoms.tolist() == [[-1.0, 2.0], [0.0, 1.0], [1.0, 0.0], [2.0, 2.0]]
    assert nu.weights.tolist() == [0.4, 0.2, 0.1 + 0.3, 0.0]
    f = ExpCombo(2, zip(weights, rows))
    assert f.directions.tolist() == nu.atoms.tolist()[:3]
    assert f.weights.tolist() == nu.weights.tolist()[:3]


def test_density_xi():
    rho0 = dirac([0.0] * 1)
    assert densities_xi([rho0])[0].allclose(ExpCombo.one(1), tol=0.0)
    rho_a = dirac([0.7])
    assert densities_xi([rho_a])[0].allclose(ExpCombo.exponential([0.7]), tol=0.0)
    # density integrates to one against the Gaussian
    xi = densities_xi([_two_atom()])[0]
    assert mu_inner_exp(xi, ExpCombo.one(1)) == 1.0
    assert exp_eval(xi, [0.0]) == pytest.approx(math.exp(-0.5), rel=1e-15)


def test_gamma_xi():
    rho = dirac([0.5])
    at_one, at_quarter = gammas_xi([rho, rho], [1.0, 0.25])
    assert at_one.allclose(densities_xi([rho])[0], tol=0.0)
    assert at_quarter.allclose(ExpCombo.exponential([1.0]), tol=0.0)
    with pytest.raises(ValueError):
        gammas_xi([rho], [0.0])


def test_g_lambda_norm_values():
    rho0 = dirac([0.0] * 2)
    assert g_lambda_norms([rho0], [1.5])[0] == (1.0, 1.0)
    rho = _two_atom()
    norm_sq, bound = g_lambda_norms([rho], [1.0])[0]
    assert norm_sq == pytest.approx(math.cosh(1.0), rel=1e-15)
    assert bound == pytest.approx(math.exp(0.5), rel=1e-15)
    assert norm_sq <= bound**2
    # a dirac meets the bound with equality
    nsq, b = g_lambda_norms([dirac([0.9])], [1.3])[0]
    assert math.sqrt(nsq) == pytest.approx(b, rel=1e-14)


def test_g_lambda_norm_warns_below_one():
    with pytest.warns(UserWarning) as record:
        g_lambda_norms([_two_atom()], [0.5])
    # the warning names the line that called the kernel
    assert record[0].filename == __file__


def test_g_lambda_norm_rejects_non_finite_lambda():
    for lam in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            g_lambda_norms([_two_atom()], [lam])


def test_rho_integral_exp():
    rho0 = dirac([0.0] * 1)
    assert rho_integral_exp(ExpCombo.exponential([0.8]), rho0) == 1.0
    rho = _two_atom()
    val = rho_integral_exp(ExpCombo.exponential([2.0]), rho)
    assert val == pytest.approx(math.cosh(2.0), rel=1e-15)
    rho_a = dirac([0.3, -0.4])
    val = rho_integral_exp(ExpCombo.exponential([1.0, 2.0]), rho_a)
    assert val == pytest.approx(math.exp(0.3 - 0.8), rel=1e-15)


def test_rho_integral_exp_matches_sampling():
    rho = _two_atom()
    f = ExpCombo.exponential([0.5], 2.0)
    exact = rho_integral_exp(f, rho)
    pts = sample_rho(rho, 2024, 200_000)
    vals = exp_eval(f, pts)
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(vals.mean() - exact) <= 3.0 * se


def test_rho_integral_chaos():
    rho = _two_atom()
    assert rho_integral_chaos(ChaosExpansion.constant(1, 3.0), rho) == 3.0
    # E_rho He_2 = mean of y^2 over the factor atoms
    assert rho_integral_chaos(ChaosExpansion.basis((2,)), rho) == 1.0
    assert rho_integral_chaos(ChaosExpansion.basis((1,)), rho) == 0.0
    assert rho_integral_chaos(ChaosExpansion.basis((3,)), rho) == 0.0


def test_char_gram_values():
    nu0 = dirac([0.0])
    g = char_gram(nu0, [[0.0], [1.0], [2.0]])
    assert np.allclose(g, np.ones((3, 3)))
    assert np.linalg.eigvalsh(g)[0] == pytest.approx(0.0, abs=1e-12)
    two = _two_atom()
    g2 = char_gram(two, [[0.0], [1.0]])
    expected = np.array([[1.0, math.cos(1.0)], [math.cos(1.0), 1.0]])
    assert np.allclose(g2, expected, atol=1e-15)
    assert np.linalg.eigvalsh(g2)[0] == pytest.approx(1.0 - math.cos(1.0), rel=1e-12)


def test_char_gram_rejects_non_finite_or_misshapen_vectors():
    for hs in ([[0.0], [math.nan]], [[math.inf]]):
        with pytest.raises(ValueError, match="hs must be finite"):
            char_gram(_two_atom(), hs)
    with pytest.raises(ValueError, match="vector dimension 2 does not match n=1"):
        char_gram(_two_atom(), [[0.0, 1.0]])


def test_char_gram_psd_random():
    rng = np.random.default_rng(83)
    for _ in range(20):
        dim = int(rng.integers(1, 4))
        k = int(rng.integers(1, 5))
        atoms = rng.uniform(-2, 2, size=(k, dim))
        w = rng.dirichlet(np.ones(k))
        nu = DiscreteMeasure(dim, atoms, w)
        hs = rng.uniform(-3, 3, size=(int(rng.integers(1, 7)), dim))
        assert np.linalg.eigvalsh(char_gram(nu, hs))[0] >= -1e-12


def test_convolve_nu():
    two = _two_atom()
    assert convolutions([two], [dirac([0.0])])[0].n_atoms == 2
    shifted = convolutions([dirac([1.0])], [dirac([2.0])])[0]
    assert shifted.n_atoms == 1
    assert shifted.atoms[0, 0] == 3.0
    auto = convolutions([two], [two])[0]
    assert auto.n_atoms == 3
    assert np.allclose(sorted(auto.weights), [0.25, 0.25, 0.5])


def test_wick_density_identity():
    two = _two_atom()
    other = DiscreteMeasure(1, [[0.3], [-0.9]], [0.625, 0.375])
    (rep,) = run_check("wick_density_identity", {"nu1": two.to_json_dict(), "nu2": other.to_json_dict()})
    assert rep.passed and rep.lhs <= 1e-12
    (rep0,) = run_check("wick_density_identity", {"nu1": dirac([0.4]).to_json_dict(),
                                                  "nu2": dirac([-0.2]).to_json_dict()})
    assert rep0.passed


def test_sample_rho():
    rho = _two_atom(2, 0.5)
    a = sample_rho(rho, [1, 2], 1000)
    b = sample_rho(rho, [1, 2], 1000)
    assert a.shape == (1000, 2)
    assert np.array_equal(a, b)
    c = sample_rho(rho, [1, 3], 1000)
    assert not np.array_equal(a, c)
    # dirac shift moves the sample mean
    rho_a = dirac([2.0])
    pts = sample_rho(rho_a, 7, 40_000)
    assert abs(pts.mean() - 2.0) <= 4.0 / math.sqrt(40_000)


def test_sample_rho_is_gauss_plus_chosen_atoms():
    # the blocked draw, atoms found by counting cdf entries, gives the bits
    # of the textbook draw with rng.choice: 1, 2 and 18 atoms and a
    # weight-0 atom, dims 1-3, counts around the block size, int and list seeds
    rng = np.random.default_rng(4)
    for dim in (1, 2, 3):
        measures = [
            DiscreteMeasure(dim, rng.uniform(-1, 1, (1, dim)), [1.0]),
            DiscreteMeasure(dim, rng.uniform(-1, 1, (2, dim)), [0.3, 0.7]),
            DiscreteMeasure(dim, rng.uniform(-1, 1, (18, dim)), rng.dirichlet(np.ones(18))),
            DiscreteMeasure(dim, rng.uniform(-1, 1, (3, dim)), [0.25, 0.0, 0.75]),
        ]
        assert 0.0 in measures[3].weights.tolist()
        for nu in measures:
            for count in (1, MC_BLOCK - 1, MC_BLOCK, MC_BLOCK + 1, 20_000):
                for seed in (5, [5, 6]):
                    pts = sample_rho(nu, seed, count)
                    assert pts.shape == (count, dim)
                    assert np.array_equal(pts, draw_rho(nu, seed, count)), (dim, nu.n_atoms, count, seed)


def test_measure_json_round_trip():
    nu = DiscreteMeasure(2, [[0.1, -0.2], [0.4, 0.0]], [0.3, 0.7])
    back = measures_from_json([nu.to_json_dict()])[0]
    assert back.dim == 2 and back.n_atoms == 2
    assert np.array_equal(back.atoms, nu.atoms)
    assert np.array_equal(back.weights, nu.weights)
