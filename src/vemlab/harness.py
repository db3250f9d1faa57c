"""Convergence-study harness: mesh sweeps, error collection, CSV reports.

A single experiment fixes the degree and consistency mode, sweeps one or
more mesh families over a size sequence, solves the built-in (or a caller
supplied) problem on each mesh, and aggregates error records into
convergence reports.  Reports serialize to a flat CSV plus one
gnuplot-ready data file per family.
"""

import os
from dataclasses import dataclass

import numpy as np

from .assembly import SolveError, apply_dirichlet, assemble, build_dofmap, solve
from .mesh import MeshError, max_diameter
from .mesh import element_geometry  # noqa: F401  (perfbench/spans.py hook target)
from .meshgen import GeneratorSpec, generate
from .postprocess import (ErrorRecord, convergence_rates, error_norms,
                          point_error, project_solution)
from .problems import builtin_problem

STUDY_FAMILIES = ("square", "concave", "lloyd0", "lloyd100")
DEFAULT_SIZES = (25, 100, 400, 1600)
DEFAULT_POINT = (0.781, 0.766)

CSV_COLUMNS = ("family", "k", "mode", "n_cells", "n_dofs", "h_max",
               "err_L2_rel", "err_H1_rel", "err_point_rel",
               "slope_L2_pairwise", "slope_H1_pairwise")


@dataclass(frozen=True)
class ExperimentConfig:
    """One reproducible sweep: degree, families, sizes, mode, seed."""

    k: int = 1
    families: tuple = ("square",)
    sizes: tuple = DEFAULT_SIZES
    mode: str = "standard"
    seed: int = 0
    quad_boost: int = 2
    point: tuple = DEFAULT_POINT
    out: str = None

    def __post_init__(self):
        if self.k not in (1, 2, 3, 4):
            raise ValueError(f"degree must be 1..4, got {self.k}")
        families = tuple(self.families)
        if not families:
            raise ValueError("at least one mesh family is required")
        for fam in families:
            if fam not in STUDY_FAMILIES:
                raise ValueError(f"unknown family {fam!r}; choose from "
                                 f"{STUDY_FAMILIES}")
        sizes = tuple(int(s) for s in self.sizes)
        if not sizes or any(s < 1 for s in sizes):
            raise ValueError("sizes must be positive cell counts")
        if self.mode not in ("standard", "grad_pinabla"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.quad_boost < 0:
            raise ValueError(f"quad_boost must be >= 0, got {self.quad_boost}")
        point = np.asarray(self.point, dtype=float)
        # NaN fails both comparisons
        if point.shape != (2,) or not np.all((point >= 0.0) & (point <= 1.0)):
            raise ValueError("point must be two finite coordinates in the "
                             f"unit square, got {self.point!r}")
        object.__setattr__(self, "families", families)
        object.__setattr__(self, "sizes", tuple(sorted(sizes)))


def _run_single(mesh, k, problem, mode, quad_boost, point):
    """Solve one mesh and measure errors.

    A cell that cannot be triangulated or whose projector is singular
    (degenerate geometry), or an unreliable global solve, becomes a
    ``failed`` record naming the cause.
    """
    dofmap = build_dofmap(mesh, k)
    h_max = max_diameter(mesh)
    try:
        system = assemble(mesh, k, problem.coefficients, mode=mode,
                          quad_boost=quad_boost, dofmap=dofmap)
        apply_dirichlet(system, problem.p_ex, mesh, k)
        u = solve(system)
    except (MeshError, SolveError, np.linalg.LinAlgError) as exc:
        return ErrorRecord(h_max=h_max, n_cells=mesh.num_cells,
                           n_dofs=dofmap.n_dofs, err_L2_rel=np.nan,
                           err_H1_rel=np.nan, err_point_rel=np.nan,
                           failed=True, cause=str(exc))
    proj = project_solution(mesh, k, u, dofmap=dofmap, bank=system.bank)
    l2, h1 = error_norms(mesh, k, proj, problem.p_ex, problem.grad_p_ex)
    pe, _ = point_error(proj, point, problem.p_ex)
    return ErrorRecord(h_max=h_max, n_cells=mesh.num_cells,
                       n_dofs=dofmap.n_dofs, err_L2_rel=l2, err_H1_rel=h1,
                       err_point_rel=pe)


def run_experiment(config, problem=None, meshes=None):
    """Run the sweep; returns ``{(family, k, mode): ConvergenceReport}``.

    ``meshes`` can inject pre-built meshes as ``{(family, size): mesh}``
    (any missing entry is generated from the config seed).  When
    ``config.out`` is set the CSV/plot files are written as a side effect.
    """
    problem = builtin_problem() if problem is None else problem
    reports = {}
    for family in config.families:
        records = []
        for size in config.sizes:
            mesh = None if meshes is None else meshes.get((family, size))
            if mesh is None:
                mesh = generate(GeneratorSpec(family, size, seed=config.seed))
            records.append(_run_single(mesh, config.k, problem, config.mode,
                                       config.quad_boost, config.point))
        reports[(family, config.k, config.mode)] = convergence_rates(records)
    if config.out:
        emit_report(reports, config.out)
    return reports


def _fmt(value):
    return "%.17g" % value


def _pair_slope(prev, rec):
    if prev is None:
        return ("", "")
    if (prev.failed or rec.failed or prev.h_max == rec.h_max
            or not np.isfinite([prev.h_max, rec.h_max]).all()):
        return ("nan", "nan")
    out = []
    for a, b in ((prev.err_L2_rel, rec.err_L2_rel),
                 (prev.err_H1_rel, rec.err_H1_rel)):
        if a > 0 and b > 0 and np.isfinite([a, b]).all():
            out.append(_fmt(np.log(b / a) / np.log(rec.h_max / prev.h_max)))
        else:
            out.append("nan")
    return tuple(out)


def emit_report(reports, path):
    """Write the CSV report plus one gnuplot data file per family.

    Data rows carry per-mesh errors with pairwise slopes against the
    previous row; each family adds a ``<family>_fit`` summary row holding
    the least-squares slopes.  All floats use 17 significant digits so the
    file round-trips exactly.
    """
    lines = [",".join(CSV_COLUMNS)]
    for (family, k, mode) in sorted(reports):
        report = reports[(family, k, mode)]
        prev = None
        for rec in report.records:
            s_l2, s_h1 = _pair_slope(prev, rec)
            lines.append(",".join([
                family, str(k), mode, str(rec.n_cells), str(rec.n_dofs),
                _fmt(rec.h_max), _fmt(rec.err_L2_rel), _fmt(rec.err_H1_rel),
                _fmt(rec.err_point_rel), s_l2, s_h1]))
            prev = rec
        lines.append(",".join([
            f"{family}_fit", str(k), mode, "", "", "", "", "", "",
            _fmt(report.slope_L2), _fmt(report.slope_H1)]))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")

    stem = os.path.splitext(path)[0]
    for (family, k, mode) in sorted(reports):
        report = reports[(family, k, mode)]
        rows = ["# log-log convergence data: "
                f"family={family} k={k} mode={mode}",
                "# h_max err_L2_rel err_H1_rel err_point_rel"]
        for rec in report.records:
            rows.append(" ".join(_fmt(v) for v in (
                rec.h_max, rec.err_L2_rel, rec.err_H1_rel,
                rec.err_point_rel)))
        with open(f"{stem}_{family}.dat", "w", newline="\n") as fh:
            fh.write("\n".join(rows) + "\n")
