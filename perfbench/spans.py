"""Span tracing from outside the package, and the per-layer metrics.

The tracer replaces the public functions each vemlab module calls in the
layer below with timing wrappers, in the caller's namespace (harness
imports ``generate`` by name, so the wrapper goes on ``vemlab.harness``).
Nothing under ``src/`` is edited.  Spans stay in memory as
``(name, start, end, parent)`` tuples; a span's id is its index and the
parent is ``-1`` for a root.  Self times are derived from the spans.
"""

import contextlib
import dataclasses
import importlib
import json
import os
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

#: attribute carrying the span name on every installed wrapper
MARK = "__perfbench_span__"


class Tracer:
    """Spans and counters of one workload run, all in memory."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.counters = Counter()
        self.solves = []   # (mesh label, matrix, rhs, interior solution)
        self.mesh_label = None
        self._stack = []

    def wrap(self, name, fn, after=None):
        """Timing wrapper around ``fn``.

        ``after(tracer, args, out)`` runs once the span is closed and
        returns the value handed back to the caller.
        """
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[sid] = (name, t0, t1, parent)
            return out if after is None else after(self, args, out)

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__wrapped__ = fn
        setattr(wrapper, MARK, name)
        return wrapper

    def dump(self, path, environment):
        """Write every span once, each with its workload-run id."""
        rows = [{"id": i, "name": n, "start": t0, "end": t1, "parent": p,
                 "run": self.run_id}
                for i, (n, t0, t1, p) in enumerate(self.spans)]
        with open(path, "w") as fh:
            json.dump({"run": self.run_id, "environment": environment,
                       "spans": rows}, fh)


# ---------------------------------------------------------------- counters

def _count_cells(tracer, args, mesh):
    spec = args[0]
    tracer.mesh_label = f"{spec.family}/{spec.target_cells}"
    tracer.counters["mesh.n_cells"] += mesh.num_cells
    return mesh


def _count_qhull(tracer, args, vor):
    pts = np.asarray(args[0])
    tracer.counters["qhull_points"] += pts.shape[0]
    # seeds lie in the unit square; mirrored copies lie outside it
    inside = np.all((pts >= 0.0) & (pts <= 1.0), axis=1)
    tracer.counters["qhull_seeds"] += int(inside.sum())
    return vor


def _count_quadrature(tracer, args, rule):
    tracer.counters["quadrature_points"] += rule.points.shape[0]
    return rule


def _count_bytes(tracer, args, out):
    arrays = out if isinstance(out, tuple) else (out,)
    # computed as output size, not measured memory traffic
    tracer.counters["vandermonde_bytes"] += sum(a.nbytes for a in arrays)
    return out


class _TimedLU:
    """SuperLU factor whose triangular solves are traced."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._lu, name)


def _trace_factor(tracer, args, lu):
    tracer.counters["lu_nnz"] += lu.L.nnz + lu.U.nnz
    return _TimedLU(lu, tracer.wrap("assembly.lu_solve", lu.solve))


def _capture_solve(tracer, args, u):
    system = args[0]
    tracer.solves.append((tracer.mesh_label, system.matrix, system.rhs,
                          u[system.dofmap.interior_dofs].copy()))
    return u


#: (module, attribute, span name, after-hook); each module's own reference
#: is wrapped, since modules import what they call by name
HOOKS = (
    ("vemlab.harness", "generate", "meshgen.generate", _count_cells),
    ("vemlab.meshgen", "relax_points", "meshgen.relax_points", None),
    ("vemlab.meshgen", "Voronoi", "meshgen.qhull", _count_qhull),
    ("vemlab.meshgen", "polygon_area_centroid", "mesh.polygon_area_centroid",
     None),
    ("vemlab.harness", "element_geometry", "mesh.element_geometry", None),
    ("vemlab.assembly", "element_geometry", "mesh.element_geometry", None),
    ("vemlab.postprocess", "element_geometry", "mesh.element_geometry", None),
    ("vemlab.basis", "polygon_quadrature", "basis.polygon_quadrature",
     _count_quadrature),
    ("vemlab.local", "polygon_quadrature", "basis.polygon_quadrature",
     _count_quadrature),
    ("vemlab.postprocess", "polygon_quadrature", "basis.polygon_quadrature",
     _count_quadrature),
    ("vemlab.kernels", "monomial_vandermonde", "kernels.vandermonde",
     _count_bytes),
    ("vemlab.kernels", "monomial_vandermonde_grad", "kernels.vandermonde",
     _count_bytes),
    ("vemlab.local", "projector_set", "local.projector_set", None),
    ("vemlab.postprocess", "projector_set", "local.projector_set", None),
    ("vemlab.assembly", "dof_layout", "local.dof_layout", None),
    ("vemlab.assembly", "local_system", "local.local_system", None),
    ("vemlab.harness", "build_dofmap", "assembly.build_dofmap", None),
    ("vemlab.postprocess", "build_dofmap", "assembly.build_dofmap", None),
    ("vemlab.harness", "assemble", "assembly.assemble", None),
    ("vemlab.harness", "apply_dirichlet", "assembly.apply_dirichlet", None),
    ("vemlab.harness", "solve", "assembly.solve", _capture_solve),
    ("vemlab.assembly", "splu", "assembly.splu", _trace_factor),
    ("vemlab.harness", "project_solution", "postprocess.project_solution",
     None),
    ("vemlab.harness", "error_norms", "postprocess.error_norms", None),
    ("vemlab.harness", "point_error", "postprocess.point_error", None),
    ("vemlab.postprocess", "_contains", "postprocess.contains", None),
    ("vemlab.harness", "convergence_rates", "postprocess.convergence_rates",
     None),
    ("vemlab.harness", "emit_report", "harness.emit_report", None),
)


def wrapped_hooks():
    """Hook targets that currently hold a tracing wrapper."""
    return [f"{mod}.{attr}" for mod, attr, _, _ in HOOKS
            if hasattr(getattr(importlib.import_module(mod), attr), MARK)]


@contextlib.contextmanager
def installed(tracer):
    """Install every hook for the duration of the block, then restore."""
    saved = []
    try:
        for mod_name, attr, name, after in HOOKS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            saved.append((mod, attr, fn))
            setattr(mod, attr, tracer.wrap(name, fn, after))
        yield tracer
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)


def traced_problem(tracer, problem):
    """Copy of ``problem`` whose data and exact-solution callables are traced."""
    c = problem.coefficients
    coeffs = dataclasses.replace(
        c, **{f: tracer.wrap("problems.coeff", getattr(c, f))
              for f in ("kappa", "b", "gamma", "f")})
    return dataclasses.replace(
        problem, coefficients=coeffs,
        p_ex=tracer.wrap("problems.coeff", problem.p_ex),
        grad_p_ex=tracer.wrap("problems.coeff", problem.grad_p_ex))


# ----------------------------------------------------------------- metrics

def self_times(spans):
    """Per-name total of span duration minus the time its children cover."""
    covered = [0.0] * len(spans)
    for _, t0, t1, parent in spans:
        if parent >= 0:
            covered[parent] += t1 - t0
    out = defaultdict(float)
    for (name, t0, t1, _), child in zip(spans, covered):
        out[name] += (t1 - t0) - child
    return out


def residuals(tracer):
    """``(mesh label, |A x - b| / max(|b|, |A x|))`` for every solve."""
    out = []
    for label, A, b, x in tracer.solves:
        Ax = A @ x
        scale = max(np.linalg.norm(b), np.linalg.norm(Ax), 1e-30)
        out.append((label, float(np.linalg.norm(Ax - b) / scale)))
    return out


def _ratio(num, den):
    """Useful outcomes per attempt; 0 when the layer made no attempt."""
    return num / den if den else 0.0


def layer_metrics(tracer, csv_path, solve_residuals):
    """Every per-layer metric of one traced run as ``{name: (value, unit)}``.

    Counts and sizes are totals over the meshes of the run;
    ``solve_residuals`` is what :func:`residuals` returned.
    """
    dur, calls = defaultdict(float), Counter()
    for name, t0, t1, _ in tracer.spans:
        dur[name] += t1 - t0
        calls[name] += 1
    own = self_times(tracer.spans)
    c = tracer.counters
    cells = c["mesh.n_cells"]
    n_unknowns = sum(A.shape[0] for _, A, _, _ in tracer.solves)
    nnz = sum(A.nnz for _, A, _, _ in tracer.solves)
    worst = max((r for _, r in solve_residuals), default=0.0)
    return {
        "meshgen.generate_s": (dur["meshgen.generate"], "s"),
        "meshgen.relax_s": (dur["meshgen.relax_points"], "s"),
        "meshgen.qhull_s": (dur["meshgen.qhull"], "s"),
        "meshgen.qhull_calls": (calls["meshgen.qhull"], "count"),
        "meshgen.qhull_points": (c["qhull_points"], "count"),
        "meshgen.centroid_calls": (calls["mesh.polygon_area_centroid"],
                                   "count"),
        "meshgen.qhull_useful_ratio": (
            _ratio(c["qhull_seeds"], c["qhull_points"]), "ratio"),
        "mesh.n_cells": (cells, "count"),
        "mesh.geometry_calls": (calls["mesh.element_geometry"], "count"),
        "mesh.geometry_s": (dur["mesh.element_geometry"], "s"),
        "mesh.geometry_useful_ratio": (
            _ratio(cells, calls["mesh.element_geometry"]), "ratio"),
        "basis.quadrature_calls": (calls["basis.polygon_quadrature"],
                                   "count"),
        "basis.quadrature_points": (c["quadrature_points"], "count"),
        "basis.quadrature_s": (dur["basis.polygon_quadrature"], "s"),
        "basis.quadrature_useful_ratio": (
            _ratio(cells, calls["basis.polygon_quadrature"]), "ratio"),
        "kernels.vandermonde_calls": (calls["kernels.vandermonde"], "count"),
        "kernels.vandermonde_s": (dur["kernels.vandermonde"], "s"),
        "kernels.vandermonde_bytes": (c["vandermonde_bytes"], "computed_B"),
        "local.projector_calls": (calls["local.projector_set"], "count"),
        "local.projector_s": (dur["local.projector_set"], "s"),
        "local.projector_useful_ratio": (
            _ratio(cells, calls["local.projector_set"]), "ratio"),
        "local.local_system_s": (dur["local.local_system"], "s"),
        "local.forms_self_s": (own["local.local_system"], "s"),
        "problems.coeff_calls": (calls["problems.coeff"], "count"),
        "problems.coeff_s": (dur["problems.coeff"], "s"),
        "assembly.dofmap_s": (dur["assembly.build_dofmap"], "s"),
        "assembly.assemble_s": (dur["assembly.assemble"], "s"),
        "assembly.scatter_self_s": (own["assembly.assemble"], "s"),
        "assembly.dirichlet_s": (dur["assembly.apply_dirichlet"], "s"),
        "assembly.solve_s": (dur["assembly.solve"], "s"),
        "assembly.factor_s": (dur["assembly.splu"], "s"),
        "assembly.tri_solve_s": (dur["assembly.lu_solve"], "s"),
        "assembly.refine_runs": (
            calls["assembly.lu_solve"] - calls["assembly.splu"], "count"),
        "assembly.n_unknowns": (n_unknowns, "count"),
        "assembly.matrix_nnz": (nnz, "count"),
        "assembly.lu_fill": (_ratio(c["lu_nnz"], nnz), "ratio"),
        "assembly.residual_rel": (worst, "ratio"),
        "postprocess.project_s": (dur["postprocess.project_solution"], "s"),
        "postprocess.errors_s": (dur["postprocess.error_norms"], "s"),
        "postprocess.point_s": (dur["postprocess.point_error"], "s"),
        "postprocess.locate_scanned": (calls["postprocess.contains"],
                                       "count"),
        "harness.self_s": (own["harness.run_experiment"], "s"),
        "harness.emit_s": (dur["harness.emit_report"], "s"),
        "harness.csv_bytes": (
            os.path.getsize(csv_path) if os.path.exists(csv_path) else 0,
            "B"),
    }
