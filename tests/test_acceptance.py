"""Acceptance gate: ten numbered criteria, one printed verdict line each.

Each test drives the public API (mostly through the suite harness, i.e.
the same code path as `wickbench run`) and prints a single PASS/FAIL
line through the capture bypass so the verdicts are visible in any
pytest invocation.
"""

import json
import math
import time

import numpy as np
import pytest

from wickbench import (
    ChaosExpansion,
    DiscreteMeasure,
    ExpCombo,
    SuiteConfig,
    alpha_exp,
    convolutions,
    densities_xi,
    eval_chaos,
    gamma_apply,
    gammas_exp,
    gauss_hermite_grid,
    rho_integral_chaos,
    run_check,
    run_suite,
    to_chaos,
    wick_exp,
    write_reports,
)
from wickbench.chaos import index_factorial, multi_indices
from wickbench.cli import main as cli_main

from reference_routes import dirac, mehler_ou

SEED = 20260814


def _emit(capsys, idx, label, ok, detail):
    with capsys.disabled():
        print(f"[acceptance {idx:02d}] {label}: {'PASS' if ok else 'FAIL'} ({detail})",
              flush=True)


def _sweep(check, sweeps, **cfg_overrides):
    cfg = SuiteConfig(seed=SEED, checks=[check], random_sweeps=sweeps,
                      measures=[], functions=[], **cfg_overrides)
    return run_suite(cfg)


def test_01_main_inequality_sweep(capsys):
    t0 = time.perf_counter()
    rows, code = _sweep("beckner_deficit", 1000)
    dt = time.perf_counter() - t0
    min_gap = min(r.gap for r in rows)
    ok = (code == 0 and len(rows) == 1000 and min_gap >= -1e-9 and dt < 10.0
          and all(r.method == "exact" for r in rows))
    _emit(capsys, 1, "main inequality sweep", ok,
          f"1000 rows, min gap {min_gap:.3e}, {dt:.2f}s")
    assert code == 0
    assert len(rows) == 1000
    assert min_gap >= -1e-9
    assert all(r.method == "exact" for r in rows)
    assert dt < 10.0, f"sweep took {dt:.2f}s"


def test_02_left_positivity_sweep(capsys):
    rows, code = _sweep("left_positivity", 1000)
    min_gap = min(r.gap for r in rows)
    at_one = [r for r in rows if r.params["alpha"] == 1.0]
    worst_tie = max(abs(r.gap) for r in at_one)
    ok = code == 0 and min_gap >= -1e-9 and len(at_one) > 0 and worst_tie <= 1e-12
    _emit(capsys, 2, "left positivity sweep", ok,
          f"min gap {min_gap:.3e}, {len(at_one)} rows at alpha=1, worst |gap| {worst_tie:.1e}")
    assert code == 0 and min_gap >= -1e-9
    assert at_one, "no alpha=1 draws in 1000 sweeps"
    assert worst_tie <= 1e-12


def test_03_psd_certificates(capsys):
    t0 = time.perf_counter()
    ab_rows, code_ab = _sweep("ab_psd", 500)
    gram_rows, code_g = _sweep("char_gram_psd", 500)
    dt = time.perf_counter() - t0
    min_eig_ab = min(r.rhs for r in ab_rows)
    min_eig_gram = min(r.rhs for r in gram_rows)
    ok = (code_ab == 0 and code_g == 0 and len(ab_rows) == 1500
          and len(gram_rows) == 500
          and min_eig_ab >= -1e-10 and min_eig_gram >= -1e-10 and dt < 5.0)
    _emit(capsys, 3, "PSD certificates", ok,
          f"min eig A/B/Hadamard {min_eig_ab:.3e}, char gram {min_eig_gram:.3e}, {dt:.2f}s")
    assert code_ab == 0 and code_g == 0
    assert len(ab_rows) == 1500 and len(gram_rows) == 500
    assert min_eig_ab >= -1e-10
    assert min_eig_gram >= -1e-10
    assert dt < 5.0, f"PSD sweep took {dt:.2f}s"


def test_04_wick_density_identity_and_moments(capsys):
    rows, code = _sweep("wick_density_identity", 200)
    worst_mismatch = max(r.lhs for r in rows)

    # moment cross-check: the wick-product density and the convolved
    # factor must give the same moments of mu * nu1 * nu2 through order 4
    rng = np.random.default_rng([SEED, 4])
    worst_moment = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 4))
        def draw():
            k = int(rng.integers(1, 5))
            return DiscreteMeasure(n, rng.uniform(-1.5, 1.5, size=(k, n)),
                                   rng.dirichlet(np.ones(k)))
        nu1, nu2 = draw(), draw()
        xi = wick_exp(*densities_xi([nu1, nu2]))
        chaos_side = to_chaos(xi, 4)
        rho3 = convolutions([nu1], [nu2])[0]
        for m in multi_indices(n, 4):
            lhs = index_factorial(m) * chaos_side.coeffs.get(m, 0.0)
            rhs = rho_integral_chaos(ChaosExpansion.basis(m), rho3)
            worst_moment = max(worst_moment, abs(lhs - rhs))

    ok = code == 0 and worst_mismatch <= 1e-12 and worst_moment <= 1e-10
    _emit(capsys, 4, "wick density identity", ok,
          f"200 pairs, worst mismatch {worst_mismatch:.1e}, worst moment diff {worst_moment:.1e}")
    assert code == 0
    assert worst_mismatch <= 1e-12
    assert worst_moment <= 1e-10


def test_05_holder_sharpness(capsys):
    # equality witnesses: f = g = E(h), p = q = 2(1+alpha), r = 2
    rng = np.random.default_rng([SEED, 5])
    worst_eq = 0.0
    for k in range(1, 11):
        alpha = k / 10
        for radius in (1.5, float(rng.uniform(0.0, 1.5))):
            n = int(rng.integers(1, 4))
            direction = rng.standard_normal(n)
            h = direction / np.linalg.norm(direction) * radius
            (rep,) = run_check("holder", {"alpha": alpha, "f": ExpCombo.exponential(h).to_json_dict(),
                                          "g": ExpCombo.exponential(h).to_json_dict()})
            assert rep.method == "exact"
            worst_eq = max(worst_eq, abs(rep.gap))

    rows, code = _sweep("holder", 200)
    min_gap = min(r.gap for r in rows)
    ok = worst_eq <= 1e-10 and code == 0 and min_gap >= -1e-6
    _emit(capsys, 5, "holder sharpness", ok,
          f"equality |gap| <= {worst_eq:.1e}, 200 random pairs min gap {min_gap:.3e}")
    assert worst_eq <= 1e-10
    assert code == 0
    assert min_gap >= -1e-6


def test_06_classic_beckner_coefficients(capsys):
    rows, code = _sweep("classic_beckner", 1000)
    min_gap = min(r.gap for r in rows)

    rng = np.random.default_rng([SEED, 6])
    worst_eq = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 4))
        coeffs = {tuple(int(i == k) for i in range(n)): float(rng.uniform(-2, 2))
                  for k in range(n)}
        f = ChaosExpansion(n, coeffs)
        alpha = int(rng.integers(0, 11)) / 10
        (rep,) = run_check("classic_beckner", {"alpha": alpha, "f": f.to_json_dict()})
        worst_eq = max(worst_eq, abs(rep.gap))

    ok = code == 0 and min_gap >= -1e-12 and worst_eq <= 1e-12
    _emit(capsys, 6, "classic coefficient inequality", ok,
          f"1000 expansions, min gap {min_gap:.3e}, first-chaos equality {worst_eq:.1e}")
    assert code == 0
    assert min_gap >= -1e-12
    assert worst_eq <= 1e-12


def test_07_covariance_inequality(capsys):
    rows, code = _sweep("covariance", 500)
    min_gap = min(r.gap for r in rows)

    d1 = dirac([1.0])
    sym = DiscreteMeasure(1, [[1.0], [-1.0]], [0.5, 0.5])
    one = ExpCombo.one(1).to_json_dict()
    (spot1,) = run_check("covariance", {"nu1": d1.to_json_dict(), "nu2": d1.to_json_dict(), "phi": one})
    (spot2,) = run_check("covariance", {"nu1": d1.to_json_dict(), "nu2": sym.to_json_dict(), "phi": one})
    spot1, spot2 = spot1.rhs, spot2.rhs
    err1 = abs(spot1 - (math.e - 2.0))
    err2 = abs(spot2 - (math.cosh(1.0) - 1.0))

    ok = code == 0 and min_gap >= -1e-10 and err1 <= 1e-9 and err2 <= 1e-9
    _emit(capsys, 7, "covariance inequality", ok,
          f"500 rows, min gap {min_gap:.3e}, spot errors {err1:.1e}/{err2:.1e}")
    assert code == 0
    assert min_gap >= -1e-10
    assert err1 <= 1e-9 and err2 <= 1e-9


def test_08_oracle_triangle_battery(capsys):
    # fixed battery: 10 functions x 5 measures, all in n = 2, |h|, |y| <= 1
    rng = np.random.default_rng(2468)
    t0 = time.perf_counter()

    def clipped(vecs):
        norms = np.maximum(1.0, np.linalg.norm(vecs, axis=1, keepdims=True))
        return vecs / norms

    functions = []
    for i in range(10):
        k = 1 + i % 3
        dirs = clipped(rng.uniform(-1, 1, size=(k, 2)))
        weights = rng.uniform(0.2, 1.2, size=k) * rng.choice([-1.0, 1.0], size=k)
        functions.append(ExpCombo(2, zip(weights, dirs)))
    measures = []
    for j, atoms_count in enumerate((1, 2, 3, 2, 4)):
        atoms = clipped(rng.uniform(-1, 1, size=(atoms_count, 2)))
        measures.append(DiscreteMeasure(2, atoms, rng.dirichlet(np.ones(atoms_count))))

    all_rows = []
    worst_rel = 0.0
    worst_share = 0.0
    for i, f in enumerate(functions):
        for j, rho in enumerate(measures):
            alpha = ((5 * i + j) % 11) / 10
            rows = run_check("oracle_triangle", {"alpha": alpha, "f": f.to_json_dict(), "nu": rho.to_json_dict()})
            all_rows.extend(rows)
            for r in rows:
                worst_rel = max(worst_rel, r.lhs / max(1.0, abs(r.params["exact"])))
                # the quadrature error as a share of the bound derived for it
                worst_share = max(worst_share, r.lhs / r.rhs)
    dt = time.perf_counter() - t0

    ok = (len(all_rows) == 300 and all(r.passed for r in all_rows)
          and worst_rel <= 1e-6 and worst_share <= 0.5 and dt < 60.0)
    _emit(capsys, 8, "oracle triangle battery", ok,
          f"50 instances, worst quad rel {worst_rel:.2e}, worst share of bound {worst_share:.3f}, {dt:.1f}s")
    assert len(all_rows) == 300
    assert all(r.passed for r in all_rows)
    assert worst_rel <= 1e-6
    assert worst_share <= 0.5
    assert dt < 60.0, f"battery took {dt:.1f}s"


def test_09_operator_consistency(capsys):
    # Mehler smoothing vs the diagonal coefficient action, degree <= 6
    rng = np.random.default_rng([SEED, 9])
    worst_mehler = 0.0
    for _ in range(10):
        n = int(rng.integers(1, 3))
        grid = gauss_hermite_grid(n, 30)
        coeffs = {}
        for _ in range(int(rng.integers(1, 7))):
            deg = int(rng.integers(0, 7))
            m = tuple(int(x) for x in rng.multinomial(deg, np.full(n, 1.0 / n)))
            coeffs[m] = float(rng.uniform(-1, 1))
        f = ChaosExpansion(n, coeffs)
        tau = float(rng.uniform(0.05, 1.5))
        smoothed = mehler_ou(f.eval, tau, grid)
        direct = gamma_apply(math.exp(-tau), f)
        pts = rng.uniform(-1.5, 1.5, size=(8, n))
        worst_mehler = max(worst_mehler,
                           float(np.max(np.abs(smoothed(pts) - eval_chaos(direct, pts)))))

    # Gamma(lam)(f o_a g) = Gamma(lam) f o_{a/lam^2} Gamma(lam) g
    failures = 0
    for _ in range(200):
        n = int(rng.integers(1, 4))
        def combo():
            k = int(rng.integers(1, 4))
            return ExpCombo(n, zip(rng.uniform(-1.5, 1.5, size=k),
                                   rng.uniform(-1.5, 1.5, size=(k, n))))
        f, g = combo(), combo()
        lam = float(rng.uniform(1.0, 2.0))
        alpha = float(rng.uniform(0.0, 1.0))
        lhs = gammas_exp([lam], [alpha_exp(f, g, alpha)])[0]
        rhs = alpha_exp(*gammas_exp([lam, lam], [f, g]), alpha / lam**2)
        if not lhs.allclose(rhs, tol=1e-12):
            failures += 1

    ok = worst_mehler <= 1e-8 and failures == 0
    _emit(capsys, 9, "operator consistency", ok,
          f"mehler max diff {worst_mehler:.2e}, homomorphism failures {failures}/200")
    assert worst_mehler <= 1e-8
    assert failures == 0


def test_10_harness_self_test(capsys, tmp_path):
    cfg = {
        "seed": 5,
        "alphas": [0.3, 1.0],
        "functions": [{"kind": "exp", "dim": 1,
                       "terms": [{"coef": 1.0, "h": [1.0]}, {"coef": 0.5, "h": [-0.5]}]}],
        "measures": [{"dim": 1, "atoms": [[0.8], [-0.8]], "weights": [0.5, 0.5]}],
        "checks": ["beckner_deficit", "covariance", "g_lambda_bound", "oracle_triangle"],
        "random_sweeps": 3,
        "mc_count": 5000,
    }
    good = tmp_path / "suite.json"
    good.write_text(json.dumps(cfg))
    bad = tmp_path / "negated.json"
    bad.write_text(json.dumps({**cfg, "negate": True}))

    codes = {}
    blobs = {}
    for jobs in (1, 2, 4):
        out = tmp_path / f"out{jobs}"
        codes[jobs] = cli_main(["run", "--config", str(good),
                                "--out", str(out), "--jobs", str(jobs)])
        blobs[jobs] = ((out / "report.json").read_bytes(), (out / "report.csv").read_bytes())
    neg_code = cli_main(["run", "--config", str(bad), "--out", str(tmp_path / "neg")])
    neg_rows = json.load(open(tmp_path / "neg" / "report.json"))
    capsys.readouterr()  # swallow CLI chatter

    identical = blobs[1] == blobs[2] == blobs[4]
    any_fail = any(not row["pass"] for row in neg_rows)
    ok = (all(c == 0 for c in codes.values()) and neg_code == 1
          and any_fail and identical)
    _emit(capsys, 10, "harness self-test", ok,
          f"jobs codes {sorted(codes.values())}, negate code {neg_code}, byte-identical {identical}")
    assert all(c == 0 for c in codes.values())
    assert neg_code == 1
    assert any_fail
    assert identical
