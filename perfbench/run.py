"""Benchmark of the mslca package: seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload null-chi2-small --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 15 --trace 0 --out .perfbench/base.jsonl

Each workload runs in its own worker process (``worker.py``) with one BLAS
thread. Times are reported in reference seconds (see ``hostclock.py``): each
step is timed between two runs of a fixed host probe, and its seconds are
scaled by how fast the probe ran. With ``--trace 0`` the worker is untraced
and ``setup_s`` is measured in fresh processes; with ``--trace 1`` the
worker alternates untraced and traced passes and the per-layer metrics are
reported. The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it list every metric by name and
unit. The exit code is 0 only if every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# The keys of workloads.WORKLOADS, repeated so that this file imports neither
# numpy nor the package and can reject a directory without them first.
WORKLOADS = ("null-chi2-small", "null-general-t", "cli-wide", "coeff-clt-plugin")
BLAS_THREADS = "1"
SETUP_RUNS = 5
WORKER_TIMEOUT_S = 160
SETUP_TIMEOUT_S = 60

# Fresh-process set-up: from the start of ``import mslca`` through the first
# BLAS (matrix product) and LAPACK (eigensolve) calls. Then, in the same
# process and on the same CPU, the median of three runs of the host probe.
SETUP_PROBE = """
import os, sys, time
os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
t0 = time.perf_counter()
import mslca
import numpy
a = numpy.arange(1.0, 65.0).reshape(8, 8)
mslca.sym_eig(a @ a.T)
setup = time.perf_counter() - t0
sys.path.insert(0, sys.argv[1])
import statistics, hostclock
print(setup, statistics.median(hostclock.probe_seconds() for _ in range(3)))
"""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_worker(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, timeout=WORKER_TIMEOUT_S, text=True
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure_setup() -> list[tuple[float, float]]:
    """(measured seconds, probe seconds) of set-up in each of SETUP_RUNS fresh processes."""
    times = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, HERE], cwd=ROOT, env=child_env(),
            stdout=subprocess.PIPE, timeout=SETUP_TIMEOUT_S, text=True, check=True,
        )
        setup, probe = (float(v) for v in proc.stdout.split())
        times.append((setup, probe))
    return times


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def summarise(raw: dict, setup: list[tuple[float, float]] | None) -> dict:
    """Metrics of one workload run: {name: {value, unit, better[, q1, q3, samples]}}.

    A pass time is the median over the run's timed untraced passes, in
    reference seconds. Besides the contract metrics this gives the per-stage
    seconds of a pass, replications per second, the failed share, and the
    measured seconds and probe seconds behind the reference seconds, which
    are shown and recorded but not part of the printed contract line.
    """
    import hostclock  # numpy-dependent, so not imported before the arguments are checked

    plain = [p for p in raw["passes"] if not (p["traced"] or p["warm_up"])]
    metrics = {}

    def timing(name, values):
        q1, med, q3 = quartiles(values)
        metrics[name] = {"value": med, "unit": "s", "better": "lower", "q1": q1, "q3": q3,
                         "samples": len(values)}

    if setup is not None:
        timing("setup_s", [hostclock.to_reference(t, probe) for t, probe in setup])
        timing("setup_raw_s", [t for t, _ in setup])
    timing("wall_s", [p["wall_s"] for p in plain])
    ops = plain[0]["ops"]
    metrics["ops_per_s"] = {"value": ops / metrics["wall_s"]["value"], "unit": "1/s", "better": "higher"}
    metrics["peak_rss_mb"] = {"value": raw["peak_rss_mb"], "unit": "MB", "better": "lower"}
    for stage in dict.fromkeys(k for p in plain for k in p["stages"]):
        timing(stage, [p["stages"][stage] for p in plain if stage in p["stages"]])
    timing("wall_raw_s", [p["wall_raw_s"] for p in plain])
    timing("host_probe_s", [p["probe_s"] for p in plain])
    if raw["replications"]:
        reps_per_s = raw["replications"] / metrics["plan_s"]["value"]
        metrics["reps_per_s"] = {"value": reps_per_s, "unit": "1/s", "better": "higher"}
    attempted = sum(p["ops"] for p in raw["passes"])
    failed = sum(p["failed"] for p in raw["passes"])
    metrics["failed_frac"] = {"value": failed / attempted, "unit": "1", "better": "lower"}
    if "layers" in raw:
        traced = [p["wall_s"] for p in raw["passes"] if p["traced"]]
        overhead = statistics.median(traced) - metrics["wall_s"]["value"]
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s", "better": "lower"}
        for name, m in raw["layers"].items():
            metrics[name] = {**m, "better": "lower"}
    return metrics


def print_table(workload: str, metrics: dict, raw: dict) -> None:
    print(f"== {workload}")
    for name, m in metrics.items():
        spread = ""
        if "samples" in m:
            spread = f"  median of {m['samples']} (q1 {m['q1']:.6g}, q3 {m['q3']:.6g})"
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}{spread}")
    if raw.get("missing"):
        print(f"  missing (not found in the package): {', '.join(raw['missing'])}")
    for msg in raw["messages"]:
        print(f"  FAILED CHECK: {msg}")


def contract_keys(trace: int) -> list[str]:
    """Metric names of the printed contract line, as BENCHMARK.json lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="mslca benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", help="append one JSON record per workload to this file")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(SRC, "mslca", "__init__.py")):
        print(f"error: no mslca package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "seed": args.seed,
    }
    selected = WORKLOADS if args.workload == "all" else (args.workload,)
    keys = contract_keys(args.trace)
    correct, attempted, failed, line_metrics = True, 0, 0, {}
    for workload in selected:
        try:
            raw = run_worker(workload, args.seed, args.seconds, args.trace)
            setup = measure_setup() if args.trace == 0 else None
        except (RuntimeError, subprocess.SubprocessError, ValueError) as err:
            print(f"error: {workload}: {err}", file=sys.stderr)
            return 1
        env.update(raw["env"])
        metrics = summarise(raw, setup)
        print_table(workload, metrics, raw)
        runs = raw["passes"]
        w_attempted = sum(p["ops"] for p in runs)
        w_failed = sum(p["failed"] for p in runs)
        attempted += w_attempted
        failed += w_failed
        correct = correct and w_failed == 0
        prefix = "" if len(selected) == 1 else f"{workload}."
        for key in keys:
            line_metrics[prefix + key] = {"value": metrics[key]["value"], "unit": metrics[key]["unit"]}
        if args.out:
            record = {
                "workload": workload, "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "env": env, "attempted": w_attempted, "failed": w_failed,
                "messages": raw["messages"], "metrics": metrics, "passes": runs,
                "spans_file": raw.get("spans_file"),
            }
            with open(args.out, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(record) + "\n")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": line_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
