"""Run one workload in this process and write its result as JSON.

Started by ``run.py`` in a fresh interpreter per run, so each run has its
own peak RSS and the tracing wrappers never leak into an untraced run:

    python3 perfbench/worker.py --workload sweep_k2 --seed 0 --seconds 10 \
        --traced 0 --outdir DIR

Untraced, it repeats ``vemlab.run_experiment`` until ``--seconds`` have
passed (at least once) and records each wall time.  Traced, it runs once
with every hook of ``spans.HOOKS`` installed and writes the spans to
``DIR/spans.json`` at the end.  The result goes to ``DIR/result.json``.
"""

import argparse
import json
import os
import platform
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import vemlab  # noqa: E402
import spans  # noqa: E402
from workloads import TOY, WORKLOADS  # noqa: E402


def environment(seed):
    """What a result depends on besides the code."""
    return {
        "kernel_backend": vemlab.kernels.backend_name(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": seed,
    }


def summarize(reports, csv_path):
    """Errors of every mesh per family, and the CSV report's row count."""
    with open(csv_path) as fh:
        csv_rows = sum(1 for _ in fh)
    out = {}
    for (family, _k, _mode), rep in reports.items():
        out[family] = {"records": [
            {"n_cells": r.n_cells, "err_L2_rel": r.err_L2_rel,
             "err_H1_rel": r.err_H1_rel, "err_point_rel": r.err_point_rel,
             "failed": bool(r.failed)} for r in rep.records]}
    return {"families": out, "csv_rows": csv_rows}


def run_plain(config, seconds):
    times = []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        reports = vemlab.run_experiment(config)
        times.append(perf_counter() - t0)
        if perf_counter() - start >= seconds:
            return {"times": times, **summarize(reports, config.out)}


def run_traced(config, run_id, outdir, env):
    tracer = spans.Tracer(run_id)
    problem = spans.traced_problem(tracer, vemlab.builtin_problem())
    with spans.installed(tracer):
        reports = tracer.wrap("harness.run_experiment",
                              vemlab.run_experiment)(config, problem=problem)
    root = next(s for s in tracer.spans if s[0] == "harness.run_experiment")
    residuals = spans.residuals(tracer)
    metrics = spans.layer_metrics(tracer, config.out, residuals)
    tracer.dump(outdir / "spans.json", env)
    return {"times": [root[2] - root[1]], **summarize(reports, config.out),
            "layers": metrics, "residuals": residuals}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", type=int, choices=(0, 1), default=0)
    parser.add_argument("--outdir", type=Path, required=True)
    args = parser.parse_args(argv)

    workload = (TOY if args.toy else WORKLOADS)[args.workload]
    config = vemlab.ExperimentConfig(**workload.config_kwargs(
        args.seed, str(args.outdir / "report.csv")))
    env = environment(args.seed)
    result = {"environment": env,
              "vemlab_file": vemlab.__file__,
              "wrapped_before_run": spans.wrapped_hooks()}
    try:
        if args.traced:
            run_id = f"{args.workload}:seed{args.seed}:pid{os.getpid()}"
            result.update(run_traced(config, run_id, args.outdir, env))
        else:
            result.update(run_plain(config, args.seconds))
    except Exception:  # a raising run is a failed result, not a crash
        result["error"] = traceback.format_exc()
    result["wrapped_after_run"] = spans.wrapped_hooks()
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.outdir / "result.json", "w") as fh:
        json.dump(result, fh)
    return 1 if "error" in result else 0


if __name__ == "__main__":
    raise SystemExit(main())
