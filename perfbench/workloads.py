"""Seeded suite configs for the benchmark workloads.

Each workload is a plain wickbench suite config built only from the seed;
the program under test sees nothing but the JSON file written here.  The
sizes are fixed so one `wickbench run` takes a few seconds on a 2-vCPU
machine, long enough that a median over a handful of runs is steady.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random

# every check except oracle_triangle: sub-millisecond tasks that stress task
# expansion, canonicalisation, quadrature grids and report writing
LIGHT_CHECKS = [
    "beckner_deficit", "left_positivity", "ab_psd", "char_gram_psd", "holder",
    "classic_beckner", "strong_positivity", "covariance", "wick_density_identity",
    "g_lambda_bound",
]
SWEEPS_LIGHT = 500

# oracle_triangle Monte Carlo sweeps plus dense chaos functions for the
# deficit checks: few heavy tasks, dominated by chaos products and sampling
HEAVY_CHECKS = ["oracle_triangle", "beckner_deficit", "left_positivity", "classic_beckner"]
SWEEPS_HEAVY = 150
MC_COUNT = 20_000
HEAVY_ALPHAS = [0.25, 0.5, 0.75]
# (dim, degree): every multi-index up to the degree carries a coefficient
DENSE_CHAOS = [(3, 4), (2, 6)]
MEASURES_PER_DIM = 2
ATOMS_PER_MEASURE = 3


def _sweep_config(seed: int) -> dict:
    return {"seed": seed, "checks": list(LIGHT_CHECKS), "random_sweeps": SWEEPS_LIGHT}


def _dense_chaos(rng: random.Random, dim: int, degree: int) -> dict:
    terms = [
        {"m": list(m), "c": rng.uniform(-1.0, 1.0)}
        for m in itertools.product(range(degree + 1), repeat=dim)
        if sum(m) <= degree
    ]
    return {"kind": "chaos", "dim": dim, "terms": terms}


def _measure(rng: random.Random, dim: int) -> dict:
    raw = [rng.uniform(0.1, 1.0) for _ in range(ATOMS_PER_MEASURE)]
    total = sum(raw)
    weights = [w / total for w in raw[:-1]]
    weights.append(1.0 - sum(weights))
    atoms = [[rng.uniform(-1.0, 1.0) for _ in range(dim)] for _ in range(ATOMS_PER_MEASURE)]
    return {"dim": dim, "atoms": atoms, "weights": weights}


def _oracle_chaos_config(seed: int) -> dict:
    rng = random.Random(seed)
    return {
        "seed": seed,
        "dim": 2,
        "checks": list(HEAVY_CHECKS),
        "random_sweeps": SWEEPS_HEAVY,
        "mc_count": MC_COUNT,
        "alphas": list(HEAVY_ALPHAS),
        "functions": [_dense_chaos(rng, dim, deg) for dim, deg in DENSE_CHAOS],
        "measures": [_measure(rng, dim) for dim, _ in DENSE_CHAOS for _ in range(MEASURES_PER_DIM)],
    }


# workload name -> (config builder, --jobs); the two sweep workloads share
# one config, so their reports must be byte-identical
WORKLOADS = {
    "sweep_j1": (_sweep_config, 1),
    "sweep_j2": (_sweep_config, 2),
    "oracle_chaos": (_oracle_chaos_config, 1),
}


def config_bytes(workload: str, seed: int) -> bytes:
    """The workload's suite config for this seed, as the bytes written to disk."""
    build, _ = WORKLOADS[workload]
    return (json.dumps(build(seed), indent=1, sort_keys=True) + "\n").encode()


def jobs_for(workload: str) -> int:
    return WORKLOADS[workload][1]


def write_config(workload: str, seed: int, path: str) -> str:
    """Write the config to path; returns its sha256."""
    data = config_bytes(workload, seed)
    with open(path, "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()
