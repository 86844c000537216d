"""wickbench benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload sweep_j1 --seed 1 --seconds 35 --trace 0

Run from the repository root.  The workload's suite config is generated
from the seed, then:

  --trace 0  times fresh-interpreter set-up (import, load_config,
             build_tasks) several times, and runs the real CLI,
             `python -m wickbench run --config <generated> --out <tmp>
             --jobs J`, in child processes for --seconds seconds;
             prints the end-to-end metrics.
  --trace 1  alternates untraced and traced replays of the same run
             through the public API, each in its own process, for
             --seconds seconds; prints the per-layer metrics.

Every run is checked by the correctness gate (perfbench/gate.py).  Human
readable lines come first; the last line of stdout is one JSON object
with keys correct, attempted, failed and metrics.  Everything written
stays under .perfbench_out/ in the repository root.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import gate, workloads  # noqa: E402

SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")
# a run must end within 180 s; children get what is left of this budget
HARD_LIMIT_S = 165.0
MIN_CLI_RUNS = 3
MIN_TRACE_ROUNDS = 2

# everything `wickbench run` does before its first check, in a fresh interpreter
SETUP_PROBE = (
    "import collections, json, sys, wickbench\n"
    "cfg = wickbench.load_config(sys.argv[1])\n"
    "tasks = wickbench.build_tasks(cfg)\n"
    "print(json.dumps(collections.Counter(t['check'] for t in tasks)))\n"
)

END_TO_END_UNITS = {
    "wall_s": "s",
    "rows_per_s": "rows/s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "report_mb": "MB",
}

RATIO_METRICS = {"suite.jobs2_speedup", "trace.overhead_share"}


def layer_unit(name: str) -> str:
    if name in RATIO_METRICS:
        return "ratio"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    return "count"


def run_child(argv: list, work_dir: str, timeout: float) -> dict:
    """Run one child in its own session with src/ on PYTHONPATH; reap it with
    wait4 for its CPU time and peak RSS, killing its process group on timeout."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    out_path = os.path.join(work_dir, "child.out")
    err_path = os.path.join(work_dir, "child.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err,
                                start_new_session=True)
        timer = threading.Timer(max(timeout, 1.0), _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as fh:
        stdout = fh.read()
    with open(err_path) as fh:
        stderr = fh.read()
    return {
        "wall_s": wall,
        "code": proc.returncode,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_mib": usage.ru_maxrss / 1024.0,
        "stdout": stdout,
        "stderr": stderr,
    }


def _kill_group(pid: int):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _last_json(text: str):
    lines = text.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def read_loadavg() -> list:
    try:
        with open("/proc/loadavg") as fh:
            return [float(x) for x in fh.read().split()[:3]]
    except OSError:
        return []


def machine_meta() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or commit
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "absent"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
        "loadavg_start": read_loadavg(),
    }


def summary(values: list) -> dict:
    """Median, quartiles and sample count of a list of numbers."""
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


class Run:
    """State of one benchmark run: gate verdicts, breaches and samples."""

    def __init__(self, workload: str, seed: int, seconds: float, work_dir: str):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.deadline = time.perf_counter() + HARD_LIMIT_S
        self.work_dir = work_dir
        self.config = os.path.join(work_dir, "config.json")
        self.config_sha = workloads.write_config(workload, seed, self.config)
        self.jobs = workloads.jobs_for(workload)
        self.report_dir = os.path.join(work_dir, "report")
        self.breaches: list[str] = []
        self.reference_sha: str | None = None
        self.reference_failed = 0
        self.expected = 0

    def child(self, argv: list) -> dict:
        return run_child(argv, self.work_dir, self.deadline - time.perf_counter())

    def probe(self) -> dict:
        """Fresh-interpreter set-up; also yields the expected row count."""
        res = self.child([sys.executable, "-c", SETUP_PROBE, self.config])
        if res["code"] != 0:
            raise RuntimeError(f"set-up probe exited {res['code']}: {res['stderr'][-2000:]}")
        self.expected = gate.expected_rows(_last_json(res["stdout"]))
        return res

    def check_report(self, code: int, label: str) -> gate.RunCheck:
        """Check the report in report_dir; the first clean one is the reference."""
        check = gate.check_run(code, self.report_dir, self.expected, self.reference_sha)
        if check.ok and self.reference_sha is None:
            self.reference_sha = check.sha256
            self.reference_failed = check.counted_failed
        for breach in check.breaches:
            self.breaches.append(f"{label}: {breach}")
            print(f"GATE BREACH {label}: {breach}")
        shutil.rmtree(self.report_dir, ignore_errors=True)
        return check

    # Every clean run of one config writes the reference report's bytes, so
    # the rows to verify are the config's rows, once, however many runs fit
    # in --seconds; the counts then depend on the seed alone.
    @property
    def attempted(self) -> int:
        return self.expected

    @property
    def failed(self) -> int:
        """FAIL rows of the reference report; every row after any breach."""
        return self.expected if self.breaches else self.reference_failed

    def cli(self, jobs: int) -> dict:
        argv = [sys.executable, "-m", "wickbench", "run", "--config", self.config,
                "--out", self.report_dir, "--jobs", str(jobs)]
        return self.child(argv)

    def replay(self, *args) -> dict:
        argv = [sys.executable, os.path.join(ROOT, "perfbench", "replay.py"), *args]
        res = self.child(argv)
        res["result"] = _last_json(res["stdout"]) if res["code"] == 0 else None
        # the CLI's exit code for the replayed run; 2 when the replay crashed
        res["cli_code"] = res["result"]["code"] if res["result"] else 2
        return res

    def more(self, loop_start: float, done: int, minimum: int, last: float) -> bool:
        """Whether to start another round of `last` seconds: until the minimum
        is met, then while it would end less than half a round past
        --seconds; never when it could overrun the hard limit."""
        now = time.perf_counter()
        if self.deadline - now < 1.5 * last + 5.0:
            return False
        return done < minimum or now - loop_start + last / 2 < self.seconds


def timed_run(run: Run) -> tuple[dict, dict]:
    """--trace 0: CLI runs, each followed by a set-up probe; returns (metrics, samples).

    Alternating the two spreads both over the whole run, so a slow phase of
    a shared machine weighs on both medians alike.
    """
    run.probe()  # warm-up: byte-compiles the package and fills the page cache
    if run.jobs > 1:
        # byte-identity across --jobs: the reference digest comes from --jobs 1
        res = run.cli(1)
        run.check_report(res["code"], "reference run at --jobs 1")
        if run.reference_sha is None:
            run.breaches.append("no reference digest at --jobs 1")
    samples = {name: [] for name in END_TO_END_UNITS}
    loop_start = time.perf_counter()
    last = 0.0
    while run.more(loop_start, len(samples["wall_s"]), MIN_CLI_RUNS, last):
        round_start = time.perf_counter()
        res = run.cli(run.jobs)
        check = run.check_report(res["code"], f"cli run {len(samples['wall_s']) + 1}")
        samples["wall_s"].append(res["wall_s"])
        samples["rows_per_s"].append(check.rows / res["wall_s"])
        samples["cpu_s"].append(res["cpu_s"])
        samples["peak_rss_mb"].append(res["maxrss_mib"])
        samples["report_mb"].append(check.report_bytes / 1e6)
        samples["setup_s"].append(run.probe()["wall_s"])
        last = time.perf_counter() - round_start
    metrics = {name: statistics.median(samples[name]) for name in END_TO_END_UNITS}
    return metrics, samples


def traced_run(run: Run) -> tuple[dict, dict]:
    """--trace 1: alternating plain and traced replays; returns (metrics, samples)."""
    run.probe()
    spans_path = os.path.join(OUT_ROOT, f"spans-{run.workload}-seed{run.seed}.tsv.gz")
    plain, traced, layers, speed_j1, speed_j2 = [], [], [], [], []
    absent: set = set()
    loop_start = time.perf_counter()
    last = 0.0
    while run.more(loop_start, len(traced), MIN_TRACE_ROUNDS, last):
        round_start = time.perf_counter()
        rounds = len(traced)
        res = run.replay("plain", run.config, run.report_dir)
        run.check_report(res["cli_code"], f"plain replay {rounds + 1}")
        if res["result"]:
            plain.append(res["result"]["wall_s"])
        res = run.replay("traced", run.config, run.report_dir, spans_path, run.workload)
        run.check_report(res["cli_code"], f"traced replay {rounds + 1}")
        if res["result"] is None:
            run.breaches.append(f"traced replay {rounds + 1} crashed: {res['stderr'][-2000:]}")
            break
        traced.append(res["result"]["wall_s"])
        layers.append(res["result"]["metrics"])
        absent.update(res["result"]["absent"])
        if run.jobs > 1:
            res = run.replay("speedup", run.config, str(1 + rounds % 2))
            if res["result"] is None:
                run.breaches.append(f"speedup run crashed: {res['stderr'][-2000:]}")
            else:
                speed_j1.append(res["result"]["j1_s"])
                speed_j2.append(res["result"]["j2_s"])
        last = time.perf_counter() - round_start
    if not layers or not plain:
        raise RuntimeError("no traced or plain replay completed")
    metrics = {}
    for name in layers[0]:
        values = [m[name] for m in layers]
        if layer_unit(name) != "count":
            metrics[name] = statistics.median(values)
            continue
        if len(set(values)) > 1:
            run.breaches.append(f"count {name} differs between traced replays: {values}")
        metrics[name] = values[0]
    metrics["suite.jobs2_speedup"] = (
        statistics.median(speed_j1) / statistics.median(speed_j2) if speed_j2 else 0.0)
    metrics["trace.overhead_share"] = statistics.median(traced) / statistics.median(plain) - 1.0
    metrics["trace.absent_wrappers"] = len(absent)
    for name in sorted(absent):
        print(f"absent wrapped name: {name}")
    samples = {"plain_wall_s": plain, "traced_wall_s": traced,
               "speedup_j1_s": speed_j1, "speedup_j2_s": speed_j2}
    return metrics, samples


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "wickbench", "__init__.py")):
        print(f"error: no wickbench sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_ROOT, exist_ok=True)
    meta = machine_meta()
    work_dir = tempfile.mkdtemp(prefix="run-", dir=OUT_ROOT)
    try:
        run = Run(args.workload, args.seed, args.seconds, work_dir)
        try:
            metrics, samples = (traced_run if args.trace else timed_run)(run)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    meta["loadavg_end"] = read_loadavg()

    units = {name: layer_unit(name) for name in metrics} if args.trace else END_TO_END_UNITS
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "jobs": run.jobs, "config_sha256": run.config_sha,
        "report_sha256": run.reference_sha, "expected_rows": run.expected,
        "fail_share": run.failed / max(run.attempted, 1),
        "breaches": run.breaches, "machine": meta,
        "stats": {name: summary(values) for name, values in samples.items() if values},
        "samples": samples,
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_ROOT, name), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(json.dumps({k: record[k] for k in ("workload", "seed", "jobs", "config_sha256",
                                             "report_sha256", "expected_rows")}))
    print(json.dumps({"machine": meta}))
    for name, stats in record["stats"].items():
        unit = units.get(name, "s")
        print(f"{name:<22} median {stats['median']:.6g} {unit}  "
              f"q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}  n={stats['n']}")
    print(f"{'fail_share':<22} {record['fail_share']:.6g} ratio  "
          f"({run.failed} of {run.attempted} rows)")
    if args.trace:
        for name in sorted(metrics):
            print(f"{name:<32} {metrics[name]:.6g} {units[name]}")
    correct = not run.breaches
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
