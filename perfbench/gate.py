"""Correctness gate: every run's outputs are checked before any is reported.

A check that fails marks the meshes it concerns as failed, so it counts in
``failed`` and makes the command exit nonzero; it never becomes a silent
timing.  The checks:

* no ``failed`` record, no raised error, every error finite, and a CSV
  report with a header, one row per mesh and one fit row per family;
* traced runs: the residual recomputed from the system captured at
  ``solve`` is at most ``RESIDUAL_MAX`` relative to the right-hand side;
* seed 0: the finest-mesh errors match those of the seed commit in
  ``reference.json`` to ``REFERENCE_RTOL``, which leaves room for roundoff
  from a reordered solve but not for a change of discretisation;
* workloads with ``check_slopes``, any seed: each family's L2 and H1 slopes
  are within ``SLOPE_TOL`` of k+1 and k.  The slopes are least-squares fits
  against the mean cell size ``n_cells ** -0.5``: the ``h_max`` of random
  Voronoi meshes is noisy enough that the harness's own slopes ranged over
  3.1-4.9 (L2, k=2) on lloyd0 for seeds 0-9, against 2.7-3.3 (L2) and
  1.8-2.2 (H1) here for seeds 0-39; a lost order is still 1 off.
"""

import json
import math
from pathlib import Path

import numpy as np

RESIDUAL_MAX = 1e-10
#: relative tolerance per error against the seed commit.  Switching SuperLU's
#: column ordering from COLAMD to MMD_ATA moved the concave_k4 errors by
#: 5e-8 (L2), 1e-8 (H1) and 7e-4 (point, which sits near the roundoff floor
#: at k=4), and the sweep_k2 lloyd0 errors by at most 1e-10.
REFERENCE_RTOL = {"err_L2_rel": 1e-5, "err_H1_rel": 1e-5, "err_point_rel": 1e-2}
SLOPE_TOL = 0.6
ERRORS = ("err_L2_rel", "err_H1_rel", "err_point_rel")

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"


def load_reference():
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)


def mesh_labels(workload, family):
    """One label per mesh of ``family``, as ``family/size``, in size order."""
    return [f"{family}/{size}" for size in workload.sizes]


def finest(result):
    """``{family: finest-mesh record}`` of a worker result."""
    return {fam: data["records"][-1]
            for fam, data in result["families"].items()}


def mean_size_slopes(records):
    """(L2, H1) least-squares log-log slopes against ``n_cells ** -0.5``."""
    h = np.log(np.array([r["n_cells"] for r in records], float) ** -0.5)
    return tuple(float(np.polyfit(h, np.log([r[e] for r in records]), 1)[0])
                 for e in ("err_L2_rel", "err_H1_rel"))


def check(workload, seed, result, reference=None):
    """Return ``(failed mesh labels, messages)`` for one worker result."""
    every = {label for fam in workload.families
             for label in mesh_labels(workload, fam)}
    if "error" in result:
        return every, [result["error"]]
    rows = 1 + workload.n_meshes + len(workload.families)
    if (sorted(result["families"]) != sorted(workload.families)
            or result["csv_rows"] != rows):
        return every, [f"expected families {workload.families} and {rows} "
                       f"CSV rows, got {sorted(result['families'])} and "
                       f"{result['csv_rows']}"]
    bad, msgs = set(), []
    for fam, data in result["families"].items():
        for label, rec in zip(mesh_labels(workload, fam), data["records"]):
            if rec["failed"] or not all(math.isfinite(rec[e]) for e in ERRORS):
                bad.add(label)
                msgs.append(f"{label}: failed record or non-finite error")
    for label, resid in result.get("residuals", ()):
        if not resid <= RESIDUAL_MAX:
            bad.add(label)
            msgs.append(f"{label}: residual {resid:.3e} > {RESIDUAL_MAX:g}")
    if bad:
        return bad, msgs
    if seed == 0 and reference is not None:
        for fam, rec in finest(result).items():
            label = mesh_labels(workload, fam)[-1]
            want = reference[workload.name][fam]
            for e in ERRORS:
                if not math.isclose(rec[e], want[e], rel_tol=REFERENCE_RTOL[e]):
                    bad.add(label)
                    msgs.append(f"{label}: {e} = {rec[e]!r}, seed commit "
                                f"gave {want[e]!r}")
    if workload.check_slopes:
        for fam, data in result["families"].items():
            for got, want, norm in zip(mean_size_slopes(data["records"]),
                                       (workload.k + 1, workload.k),
                                       ("L2", "H1")):
                if not abs(got - want) <= SLOPE_TOL:
                    bad.update(mesh_labels(workload, fam))
                    msgs.append(f"{fam}: {norm} slope {got:.3f}, expected "
                                f"{want} +- {SLOPE_TOL}")
    return bad, msgs
