"""In-memory span tracing of wickbench, installed from outside the package.

`Tracer.install` wraps a fixed list of public functions and constructors.
A wrapped function is rebound in every loaded `wickbench*` module that
holds it, because `checks` and `quadrature` import kernels by name; a
wrapped constructor is patched on its class.  Each call records one span
(name, start, end, parent, count) in flat lists, and `layer_metrics`
turns the span tree into per-layer self times and counts.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import math
import sys
import time

from perfbench import workloads


def _n_terms_pair(args, kwargs, result):
    return args[0].n_terms * args[1].n_terms


def _coeff_pair(args, kwargs, result):
    return len(args[0].coeffs) * len(args[1].coeffs)


def _points(args, kwargs, result):
    pts = args[1]
    return len(pts) if getattr(pts, "ndim", 1) == 2 else 1


def _sample_count(args, kwargs, result):
    return int(args[2] if len(args) > 2 else kwargs["count"])


def _result_len(args, kwargs, result):
    return len(result)


def _first_arg_len(args, kwargs, result):
    return len(args[0])


def _check_name(args, kwargs):
    return "checks." + args[0]


# (module, attribute, span name, count) -- span names are the layer metrics'
# prefixes; a count is summed only over spans not nested in one of the same
# name, so alpha_chaos calling pointwise_chaos counts its pairs once
WRAPPED = [
    ("suite", "load_config", "suite.load_config", None),
    ("suite", "build_tasks", "suite.build_tasks", _result_len),
    ("suite", "write_reports", "suite.write_reports", _first_arg_len),
    ("checks", "run_check", _check_name, None),
    ("expspan", "ExpCombo.__init__", "expspan.ctor", None),
    ("measures", "DiscreteMeasure.__init__", "measures.ctor", None),
    ("chaos", "ChaosExpansion.__init__", "chaos.ctor", None),
    ("expspan", "pointwise_exp", "expspan.product", _n_terms_pair),
    ("expspan", "alpha_exp", "expspan.product", _n_terms_pair),
    ("expspan", "wick_exp", "expspan.product", _n_terms_pair),
    ("expspan", "exp_eval", "expspan.eval", _points),
    ("products", "pointwise_chaos", "products.chaos_product", _coeff_pair),
    ("products", "wick_chaos", "products.chaos_product", _coeff_pair),
    ("products", "alpha_chaos", "products.chaos_product", _coeff_pair),
    ("measures", "sample_rho", "measures.sample", _sample_count),
    ("measures", "rho_integral_exp", "measures.rho_integral", None),
    ("measures", "rho_integral_chaos", "measures.rho_integral", None),
    ("quadrature", "gauss_hermite_grid", "quadrature.grid", None),
    ("quadrature", "lp_norm_exp", "quadrature.lp_norm", None),
    ("quadrature", "integrate_rho", "quadrature.integrate", None),
    ("quadrature", "mc_integral_rho", "quadrature.mc", None),
    ("report", "InequalityReport.as_dict", "report.as_dict", None),
]

CHECK_NAMES = workloads.LIGHT_CHECKS + ["oracle_triangle"]

# per-layer metric -> (span name, what to sum: "self" seconds, "count" or "calls")
SPAN_METRICS = {
    "suite.build_tasks_s": ("suite.build_tasks", "self"),
    "suite.tasks": ("suite.build_tasks", "count"),
    "suite.sort_s": ("suite.sort", "self"),
    "suite.write_reports_s": ("suite.write_reports", "self"),
    "suite.report_rows": ("suite.write_reports", "count"),
    "expspan.ctor_s": ("expspan.ctor", "self"),
    "expspan.ctor_calls": ("expspan.ctor", "calls"),
    "measures.ctor_s": ("measures.ctor", "self"),
    "measures.ctor_calls": ("measures.ctor", "calls"),
    "chaos.ctor_s": ("chaos.ctor", "self"),
    "chaos.ctor_calls": ("chaos.ctor", "calls"),
    "expspan.product_s": ("expspan.product", "self"),
    "expspan.product_pairs": ("expspan.product", "count"),
    "expspan.eval_s": ("expspan.eval", "self"),
    "expspan.eval_points": ("expspan.eval", "count"),
    "products.chaos_product_s": ("products.chaos_product", "self"),
    "products.chaos_pairs": ("products.chaos_product", "count"),
    "measures.sample_s": ("measures.sample", "self"),
    "measures.sample_points": ("measures.sample", "count"),
    "measures.rho_integral_s": ("measures.rho_integral", "self"),
    "measures.rho_integral_calls": ("measures.rho_integral", "calls"),
    "quadrature.grid_s": ("quadrature.grid", "self"),
    "quadrature.grid_calls": ("quadrature.grid", "calls"),
    "quadrature.lp_norm_s": ("quadrature.lp_norm", "self"),
    "quadrature.integrate_s": ("quadrature.integrate", "self"),
    "quadrature.mc_s": ("quadrature.mc", "self"),
    "report.as_dict_s": ("report.as_dict", "self"),
}


class Tracer:
    """Span recorder; one per traced process, single-threaded."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.counts: list[int] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self.absent: list[str] = []

    # -- recording -----------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0)
        self.counts.append(0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int):
        self.ends[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, fn, name, count=None):
        tracer = self

        def traced(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            idx = tracer._open(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            parent = tracer.parents[idx]
            if count is not None and (parent < 0 or tracer.names[parent] != span_name):
                tracer.counts[idx] = count(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation --------------------------------------------------

    def install(self, wrapped=WRAPPED):
        """Wrap every listed name; names that no longer exist go to `absent`."""
        for module_name, attr, span_name, count in wrapped:
            full = f"wickbench.{module_name}.{attr}"
            try:
                module = importlib.import_module(f"wickbench.{module_name}")
            except ImportError:
                self.absent.append(full)
                continue
            owner_name, _, member = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                original = vars(owner).get(member) if isinstance(owner, type) else None
                if original is None:
                    self.absent.append(full)
                    continue
                setattr(owner, member, self.wrap(original, span_name, count))
                self._restore.append((owner, member, original))
                continue
            original = getattr(module, member, None)
            if not callable(original):
                self.absent.append(full)
                continue
            wrapper = self.wrap(original, span_name, count)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "wickbench" or mod_name.startswith("wickbench.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- output --------------------------------------------------------

    def dump(self, path: str, workload: str):
        """Write the spans as gzipped tab-separated lines, one span a line."""
        with gzip.open(path, "wt") as fh:
            fh.write("index\tname\tstart_ns\tend_ns\tparent\tcount\tworkload\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i}\t{name}\t{self.starts[i]}\t{self.ends[i]}\t"
                         f"{self.parents[i]}\t{self.counts[i]}\t{workload}\n")


def self_times(starts, ends, parents) -> list[int]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append((starts[i], ends[i]))
    out = []
    for i, (s, e) in enumerate(zip(starts, ends)):
        covered = 0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, s), min(hi, e)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((e - s) - covered)
    return out


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def layer_metrics(names, starts, ends, parents, counts) -> dict:
    """Per-layer metrics of one traced replay; a layer that never ran reads 0."""
    selfs = self_times(starts, ends, parents)
    by_name: dict[str, list[int]] = {}
    for i, name in enumerate(names):
        by_name.setdefault(name, []).append(i)
    out = {}
    for metric, (span_name, kind) in SPAN_METRICS.items():
        idx = by_name.get(span_name, [])
        if kind == "self":
            out[metric] = sum(selfs[i] for i in idx) / 1e9
        elif kind == "count":
            out[metric] = sum(counts[i] for i in idx)
        else:
            out[metric] = len(idx)
    task_ms = []
    for check in CHECK_NAMES:
        durs = [ends[i] - starts[i] for i in by_name.get("checks." + check, [])]
        out[f"checks.{check}_s"] = sum(durs) / 1e9
        out[f"checks.{check}_tasks"] = len(durs)
        task_ms.extend(d / 1e6 for d in durs)
    out["cli.run_s"] = sum(ends[i] - starts[i] for i in by_name.get("cli.run", [])) / 1e9
    out["checks.task_p50_ms"] = percentile(task_ms, 50)
    out["checks.task_p99_ms"] = percentile(task_ms, 99)
    out["checks.task_samples"] = len(task_ms)
    return out
