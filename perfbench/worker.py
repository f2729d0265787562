"""Run one workload in this process and print its raw result as one JSON line.

Started by ``run.py``, which sets the BLAS thread count in the environment
before numpy is imported here. The first pass is a full-size warm-up: its
outputs are checked but its time is not used. Timed passes then repeat until
``--seconds`` have elapsed, at least two of them. With ``--trace 1`` the timed
passes alternate untraced and traced, which gives the tracing overhead and a
check that tracing leaves outputs unchanged. The process stays on one CPU,
and every step of a pass is timed on a ``hostclock.HostClock``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import sys
import time
import traceback

import numpy as np
import scipy

import tracing
import workloads
from hostclock import HostClock

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MAX_MESSAGES = 20


def pin_to_one_cpu() -> int:
    """Pin this process to the last CPU it may use, so that each probe of the
    host clock runs on the vCPU whose steps it brackets."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def blas_info() -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "blas_vendor": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = os.path.join(ROOT, ".perfbench", f"work-{os.getpid()}")
    workload = workloads.WORKLOADS[name](seed, workdir)
    recorder = tracing.SpanRecorder() if trace else None
    passes, messages = [], []
    clock = HostClock()
    cpu = pin_to_one_cpu()
    try:
        workload.prepare()
        first, started = None, None
        while started is None or len(passes) < 3 or time.perf_counter() - started < seconds:
            warm_up = not passes
            traced = trace and not warm_up and len(passes) % 2 == 0
            clock.start_pass()
            try:
                with recorder.active() if traced else contextlib.nullcontext():
                    out = workload.run_pass(clock)
                problems = workload.check(out)
                if first is None:
                    first = out
                elif out != first:
                    problems.append((workload.ops, "outputs differ from the first pass of this seed"))
            except Exception as err:  # a pass that raises fails all its operations
                traceback.print_exc()
                problems = [(workload.ops, f"pass raised {type(err).__name__}: {err}")]
            failed = min(workload.ops, sum(count for count, _ in problems))
            messages += [f"pass {len(passes)}: {msg}" for _, msg in problems]
            raw, ref, probe = clock.totals()
            passes.append({
                "wall_s": ref, "wall_raw_s": raw, "probe_s": probe, "warm_up": warm_up, "traced": traced,
                "stages": {key: stage["ref_s"] for key, stage in clock.stages.items()},
                "ops": workload.ops, "failed": failed,
            })
            if warm_up:
                started = time.perf_counter()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "passes": passes,
        "messages": messages[:MAX_MESSAGES],
        "replications": getattr(workload, "replications", None),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": {**blas_info(), "cpu": cpu},
    }
    if recorder is not None:
        traced_ops = sum(p["ops"] for p in passes if p["traced"])
        result["layers"] = recorder.layer_metrics(traced_ops)
        result["missing"] = sorted(recorder.missing)
        spans = os.path.join(ROOT, ".perfbench", f"spans-{name}-{seed}.npz")
        recorder.save(spans)
        result["spans_file"] = os.path.relpath(spans, ROOT)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
