"""
Running the verification harness
================================

Every inequality lives in a named check that emits uniform report rows
(lhs, rhs, gap, tolerance, pass).  A config expands into a task grid plus
seeded random sweeps; the suite runs them (optionally in parallel, with
byte-identical output) and writes report.json / report.csv.

The same thing is available from the shell:

    wickbench run --config suite.json --out reports/
    wickbench check beckner_deficit --params '{...}'
    wickbench list-checks
"""

import json
import tempfile

from wickbench import CHECK_REGISTRY, SuiteConfig, run_check, run_suite, write_reports

# --- a single check, directly -------------------------------------------------

row = run_check("beckner_deficit", {
    "alpha": 0.5,
    "f": {"kind": "exp", "dim": 1, "terms": [{"coef": 1.0, "h": [1.0]}]},
    "nu": {"dim": 1, "atoms": [[0.0]], "weights": [1.0]},
})[0]
print("single check:", row.check, "gap =", row.gap, "pass =", row.passed)

# --- the full registry ----------------------------------------------------------

print("\navailable checks:")
for name, spec in CHECK_REGISTRY.items():
    print(f"  {name:<22} {spec.describe}")

# --- a small suite ---------------------------------------------------------------

cfg = SuiteConfig.from_json_dict({
    "seed": 42,
    "alphas": [0.0, 0.5, 1.0],
    "functions": [
        {"kind": "exp", "dim": 1,
         "terms": [{"coef": 1.0, "h": [1.0]}, {"coef": 0.5, "h": [-0.5]}]},
        {"kind": "chaos", "dim": 1,
         "terms": [{"m": [1], "c": 1.0}, {"m": [3], "c": -0.25}]},
    ],
    "measures": [
        {"dim": 1, "atoms": [[0.0]], "weights": [1.0]},
        {"dim": 1, "atoms": [[1.0], [-1.0]], "weights": [0.5, 0.5]},
    ],
    "checks": ["beckner_deficit", "left_positivity", "classic_beckner",
               "covariance", "wick_density_identity", "g_lambda_bound"],
    "random_sweeps": 5,
})
rows, code = run_suite(cfg)
print(f"\nsuite: {len(rows)} rows, exit code {code}")

worst = min(rows, key=lambda r: r.gap)
print("tightest row:", worst.check, "gap =", worst.gap)

with tempfile.TemporaryDirectory() as out:
    json_path, csv_path = write_reports(rows, out)
    data = json.load(open(json_path))
    print("wrote", len(data), "rows to report.json / report.csv")

# --- the self-test: flipping every inequality must fail ---------------------------

cfg.negate = True
_, neg_code = run_suite(cfg)
print("\nnegated suite exit code:", neg_code, "(1 = failures detected, as intended)")
