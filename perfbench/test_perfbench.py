"""Tests of the benchmark itself, on the workloads at toy sizes.

    python3 -m pytest perfbench
"""

import functools
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import spans  # noqa: E402
import worker  # noqa: E402  (puts src/ on sys.path)
from workloads import TOY  # noqa: E402

EXACT_SUFFIXES = ("_calls", "_useful_ratio")


@functools.lru_cache(maxsize=None)
def bench(workload, trace, attempt=0):
    """Last-line JSON of one toy run; ``attempt`` tells repeats apart."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--toy", "--workload",
         workload, "--seed", "0", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared(kind):
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize("workload", sorted(TOY))
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_emitted_with_unit(workload, trace, kind):
    out = bench(workload, trace)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert {k: v["unit"] for k, v in out["metrics"].items()} == declared(kind)


@pytest.mark.parametrize("workload", sorted(TOY))
def test_exact_counts_repeat_between_traced_runs(workload):
    first, second = bench(workload, 1), bench(workload, 1, attempt=1)
    exact = [k for k in first["metrics"]
             if k.endswith(EXACT_SUFFIXES) or k == "assembly.lu_fill"]
    assert len(exact) == 12
    for key in exact:
        assert first["metrics"][key] == second["metrics"][key], key


def test_untraced_run_sees_unwrapped_functions(tmp_path):
    for traced in (1, 0):
        outdir = tmp_path / str(traced)
        outdir.mkdir()
        worker.main(["--workload", "sweep_k2", "--seed", "0", "--toy", "1",
                     "--traced", str(traced), "--outdir", str(outdir)])
        with open(outdir / "result.json") as fh:
            result = json.load(fh)
        assert "error" not in result
        assert result["wrapped_before_run"] == []
        assert result["wrapped_after_run"] == []
    tracer = spans.Tracer("probe")
    with spans.installed(tracer):
        assert len(spans.wrapped_hooks()) == len(spans.HOOKS)
    assert spans.wrapped_hooks() == []


def test_self_times_subtract_children():
    tree = [("root", 0.0, 10.0, -1), ("child", 1.0, 4.0, 0),
            ("leaf", 2.0, 3.0, 1), ("child", 5.0, 6.0, 0)]
    own = spans.self_times(tree)
    assert own == {"root": 6.0, "child": 3.0, "leaf": 1.0}
