"""End-to-end and per-layer benchmark of vemlab's convergence pipeline.

Run from the root of a source checkout (nothing needs building; vemlab is
imported from ``src/``):

    python3 perfbench/run.py --workload sweep_k2 --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

Each workload (see ``workloads.py``) is one ``ExperimentConfig`` run through
the public ``vemlab.run_experiment``, the same path as ``vemlab run``, in a
fresh worker process with one BLAS thread and no worker pool.

``--trace 0`` measures the end-to-end metrics with nothing wrapped:
``time_to_solution_s`` (median wall time of ``run_experiment`` over the
repeats that fit in ``--seconds``, at least one), ``setup_s`` (median over
fresh interpreters of ``import vemlab`` plus ``builtin_problem()``),
``peak_rss_mb`` of the worker, and the largest finest-mesh ``err_L2_rel``
and ``err_H1_rel`` over the workload's families.  ``err_point_rel`` and
``failed_frac`` are printed too but left out of the JSON metrics: the point
error of a random Voronoi mesh varies several-fold between seeds, and
``failed_frac`` is carried by the ``attempted``/``failed`` fields.

``--trace 1`` runs the workload once untraced and once traced, each in its
own process, and reports the per-layer metrics of ``spans.layer_metrics``
plus ``trace.overhead_frac`` and ``err_point_rel``.  The spans are written
to ``.perfbench_out/<workload>_seed<n>_trace/spans.json``.

Every result passes ``gate.check`` first; a failed check makes the command
exit 1.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic
from typing import NamedTuple

import gate
from workloads import TOY, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

SETUP_RUNS = 5
TIME_LIMIT_S = 170.0
BLAS_THREADS = "1"

SETUP_CODE = ("import time; t0 = time.perf_counter(); import vemlab; "
              "vemlab.builtin_problem(); print(repr(time.perf_counter() - t0))")


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed check)."""


class Outcome(NamedTuple):
    """What one workload run reports; ``extra`` is printed, not in the JSON."""

    metrics: dict
    extra: dict
    attempted: int
    failed: int
    messages: list
    environment: dict


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def remaining(deadline):
    left = deadline - monotonic()
    if left <= 0:
        raise BenchError(f"time limit of {TIME_LIMIT_S:.0f} s reached")
    return left


def setup_times(deadline):
    """Cold-start time of fresh interpreters; the first one only warms up."""
    times = []
    for _ in range(SETUP_RUNS + 1):
        try:
            proc = subprocess.run([sys.executable, "-c", SETUP_CODE],
                                  env=child_env(), cwd=ROOT,
                                  capture_output=True, text=True,
                                  timeout=remaining(deadline))
        except subprocess.TimeoutExpired as exc:
            raise BenchError("cold-start probe timed out") from exc
        if proc.returncode != 0:
            raise BenchError("import vemlab failed:\n" + proc.stderr)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times[1:]


def run_worker(name, seed, seconds, traced, toy, deadline):
    outdir = OUT / f"{name}_seed{seed}_{'trace' if traced else 'plain'}"
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
           "--seed", str(seed), "--seconds", repr(seconds),
           "--traced", str(int(traced)), "--toy", str(int(toy)),
           "--outdir", str(outdir)]
    try:
        subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=sys.stderr,
                       timeout=remaining(deadline))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker for {name} timed out") from exc
    path = outdir / "result.json"
    if not path.is_file():
        raise BenchError(f"worker for {name} wrote no result")
    with open(path) as fh:
        result = json.load(fh)
    if not Path(result["vemlab_file"]).is_relative_to(ROOT / "src"):
        raise BenchError(f"vemlab was imported from {result['vemlab_file']},"
                         f" not from {ROOT / 'src'}")
    if result["wrapped_before_run"]:
        raise BenchError("worker started with tracing wrappers installed: "
                         + ", ".join(result["wrapped_before_run"]))
    if result["wrapped_after_run"] and not traced:
        raise BenchError("untraced worker saw tracing wrappers")
    return result


def worst_error(result, name):
    return max(rec[name] for rec in gate.finest(result).values())


def measure(workload, seed, seconds, trace, toy, deadline):
    """Run one workload, check every result it gives; returns an Outcome."""
    reference = None if toy else gate.load_reference()
    if trace:
        runs = [run_worker(workload.name, seed, 0.0, traced, toy, deadline)
                for traced in (False, True)]
    else:
        setup = setup_times(deadline)
        runs = [run_worker(workload.name, seed, seconds, False, toy, deadline)]
    attempted = failed = 0
    msgs = []
    for res in runs:
        bad, found = gate.check(workload, seed, res, reference)
        reps = len(res.get("times", ())) or 1
        attempted += workload.n_meshes * reps
        failed += len(bad) * reps
        msgs += found
    extra = {"failed_frac": (failed / attempted, "ratio")}
    metrics = {}
    last = runs[-1]
    if not failed:
        point = (worst_error(last, "err_point_rel"), "ratio")
        if trace:
            metrics = {k: tuple(v) for k, v in last["layers"].items()}
            base = runs[0]["times"][0]
            metrics["trace.overhead_frac"] = (
                (last["times"][0] - base) / base, "ratio")
            metrics["err_point_rel"] = point
        else:
            metrics = {
                "time_to_solution_s": (statistics.median(last["times"]), "s"),
                "setup_s": (statistics.median(setup), "s"),
                "peak_rss_mb": (last["peak_rss_mb"], "MB"),
                "err_L2_rel": (worst_error(last, "err_L2_rel"), "ratio"),
                "err_H1_rel": (worst_error(last, "err_H1_rel"), "ratio")}
            extra["err_point_rel"] = point
    return Outcome(metrics, extra, attempted, failed, msgs,
                   last["environment"])


def report(name, seed, trace, out):
    print(f"== {name} seed={seed} trace={trace}")
    for key, (value, unit) in {**out.metrics, **out.extra}.items():
        print(f"  {key:32s} {value!r:>24} {unit}")
    print("environment " + json.dumps(out.environment, sort_keys=True))
    correct = out.failed == 0 and not out.messages
    print("correctness: " + ("ok" if correct else "FAILED"))
    for msg in out.messages:
        print("  " + msg)
    print(json.dumps({
        "correct": correct, "attempted": out.attempted, "failed": out.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in sorted(out.metrics.items())}}))
    return correct


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="vemlab end-to-end and per-layer benchmark")
    parser.add_argument("--workload", default="all",
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="toy sizes, for the benchmark's own test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "vemlab" / "__init__.py").is_file():
        print(f"error: no vemlab sources under {ROOT / 'src'}; run from a "
              "vemlab source checkout", file=sys.stderr)
        return 2
    table = TOY if args.toy else WORKLOADS
    names = sorted(table) if args.workload == "all" else [args.workload]
    deadline = monotonic() + TIME_LIMIT_S * len(names)
    ok = True
    for name in names:
        try:
            outcome = measure(table[name], args.seed, args.seconds,
                              args.trace, args.toy, deadline)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        ok = report(name, args.seed, args.trace, outcome) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
