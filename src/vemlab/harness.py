"""Convergence-study harness: mesh sweeps, error collection, CSV reports.

A single experiment fixes the degree and consistency mode, sweeps one or
more mesh families over a size sequence, solves the built-in (or a caller
supplied) problem on each mesh, and aggregates error records into
convergence reports.  Reports serialize to a flat CSV plus one
gnuplot-ready data file per family.

On Linux (Python 3.11 or later) a sweep of more than one mesh solves its
meshes in forked worker processes, one per CPU the process may run on
(``os.sched_getaffinity``) and at most two; ``taskset -c 0`` keeps it in
one process.
"""

import math
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .assembly import SolveError, apply_dirichlet, assemble, build_dofmap, solve
from .local import check_degree, check_mode
from .mesh import MeshError, max_diameter
from .mesh import element_geometry  # noqa: F401  (perfbench/spans.py hook target)
from .meshgen import GeneratorSpec, check_count, generate
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
    out: str = None

    def __post_init__(self):
        check_degree(self.k)
        if self.k > 4:
            raise ValueError(f"degree must be 1..4, got {self.k}")
        families = tuple(self.families)
        if not families:
            raise ValueError("at least one mesh family is required")
        for fam in families:
            if fam not in STUDY_FAMILIES:
                raise ValueError(f"unknown family {fam!r}; choose from "
                                 f"{STUDY_FAMILIES}")
            if families.count(fam) > 1:
                # each family has one report, so a repeat would be solved
                # twice and one of its reports dropped
                raise ValueError(f"family {fam!r} is given more than once")
        sizes = tuple(self.sizes)
        if not sizes:
            raise ValueError("at least one size is required")
        for s in sizes:
            check_count("sizes", s, 1)
        # checked here, so a sweep that starts with the square family does
        # not stop at its first Voronoi mesh
        check_count("seed", self.seed)
        if set(families) & {"square", "concave"}:
            # checked here, so a sweep does not stop at its first bad size
            # with the finished meshes' records lost
            for s in sizes:
                if math.isqrt(s) ** 2 != s:
                    raise ValueError(f"size {s} is not a square cell count, "
                                     "which the square and concave families "
                                     "need")
        check_mode(self.mode)
        # a path of str only: an int is a file descriptor that open()
        # writes and closes, and bytes name other files
        if not (self.out is None or isinstance(self.out, str) or (
                isinstance(self.out, os.PathLike)
                and isinstance(os.fspath(self.out), str))):
            raise ValueError(f"out must be a path (str or os.PathLike), got "
                             f"{self.out!r}")
        object.__setattr__(self, "families", families)
        object.__setattr__(self, "sizes", tuple(sorted(map(int, sizes))))


def _run_single(mesh, k, problem, mode):
    """Solve one mesh and measure errors, the point error at
    ``DEFAULT_POINT``.

    A cell that cannot be triangulated, whose projector is singular
    (degenerate geometry) or whose internal-moment block is singular, or
    an unreliable global solve, becomes a ``failed`` record naming the
    cause.
    """
    h_max = max_diameter(mesh)
    try:
        system = assemble(mesh, k, problem.coefficients, mode=mode)
        apply_dirichlet(system, problem.p_ex)
        u = solve(system)
    except (MeshError, SolveError, np.linalg.LinAlgError) as exc:
        return ErrorRecord(h_max=h_max, n_cells=mesh.num_cells,
                           n_dofs=build_dofmap(mesh, k).n_dofs,
                           err_L2_rel=np.nan, err_H1_rel=np.nan,
                           err_point_rel=np.nan, failed=True, cause=str(exc))
    proj = project_solution(system.bank, u)
    l2, h1 = error_norms(proj, problem.p_ex, problem.grad_p_ex)
    pe, _ = point_error(proj, DEFAULT_POINT, problem.p_ex)
    return ErrorRecord(h_max=h_max, n_cells=mesh.num_cells,
                       n_dofs=system.dofmap.n_dofs, err_L2_rel=l2,
                       err_H1_rel=h1, err_point_rel=pe)


def _run_job(config, problem, meshes, family, size):
    """The record of one (family, size) mesh of the sweep: the injected
    mesh, or one generated from the config seed, solved by ``_run_single``."""
    mesh = None if meshes is None else meshes.get((family, size))
    if mesh is None:
        mesh = generate(GeneratorSpec(family, size, seed=config.seed))
    return _run_single(mesh, config.k, problem, config.mode)


#: most worker processes a sweep starts.  Each worker holds a whole mesh
#: (about 0.5 GB for 6,400 cells at k = 4), the gain was measured on two
#: CPUs only, and ``os.sched_getaffinity`` does not see a cgroup's CPU
#: quota, so more CPUs do not start more workers.
_MAX_WORKERS = 2


def _n_workers(n_jobs):
    """Worker processes for a sweep of ``n_jobs`` meshes: one per CPU this
    process may run on, at most one per mesh and at most ``_MAX_WORKERS``.

    1 (solve in-process) outside Linux; in a daemonic process (a
    ``multiprocessing.Pool`` worker), which may not start processes; and
    before Python 3.11, whose ``ProcessPoolExecutor`` forks a worker per
    ``submit()`` while its manager thread runs, which can deadlock.
    """
    if (sys.platform != "linux" or sys.version_info < (3, 11)
            or multiprocessing.current_process().daemon):
        return 1
    return min(n_jobs, len(os.sched_getaffinity(0)), _MAX_WORKERS)


#: (config, problem, meshes) of a worker process, inherited through the fork
_worker_inputs = None


def _init_worker(*inputs):
    global _worker_inputs
    _worker_inputs = inputs


def _run_worker_job(family, size):
    return _run_job(*_worker_inputs, family, size)


def _run_jobs_in_workers(jobs, n_workers, config, problem, meshes):
    """Records of ``jobs``, in order, each solved in one of ``n_workers``
    forked processes.

    The workers inherit ``config``, ``problem`` and ``meshes`` through the
    fork (the built-in problem's closures cannot be pickled); only the
    (family, size) keys and the records are pickled.  A job that raises
    re-raises here, the first in job order, once the pool has shut down;
    a worker that dies (say, killed for memory) raises
    ``BrokenProcessPool``.
    """
    with ProcessPoolExecutor(n_workers,
                             mp_context=multiprocessing.get_context("fork"),
                             initializer=_init_worker,
                             initargs=(config, problem, meshes)) as pool:
        # largest meshes first, so that no worker starts one at the end
        futures = {job: pool.submit(_run_worker_job, *job)
                   for job in sorted(jobs, key=lambda job: -job[1])}
        try:
            return [futures[job].result() for job in jobs]
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


def run_experiment(config, problem=None, meshes=None):
    """Run the sweep; returns ``{(family, k, mode): ConvergenceReport}``.

    ``meshes`` can inject pre-built meshes as ``{(family, size): mesh}``
    (any missing entry is generated from the config seed).  When
    ``config.out`` is set the CSV/plot files are written as a side effect.

    With more than one mesh and more than one usable CPU on Linux
    (Python 3.11 or later), the meshes are solved in worker processes, at most one per mesh and at
    most ``_MAX_WORKERS``; the reports are the same as those of one
    process.
    """
    problem = builtin_problem() if problem is None else problem
    jobs = [(family, size) for family in config.families
            for size in config.sizes]
    n_workers = _n_workers(len(jobs))
    if n_workers > 1:
        solved = _run_jobs_in_workers(jobs, n_workers, config, problem,
                                      meshes)
    else:
        solved = [_run_job(config, problem, meshes, *job) for job in jobs]
    records = dict(zip(jobs, solved))
    reports = {(family, config.k, config.mode): convergence_rates(
                   [records[family, size] for size in config.sizes])
               for family in config.families}
    if config.out:
        emit_report(reports, config.out)
    return reports


def _fmt(value):
    return "%.17g" % value


def emit_report(reports, path):
    """Write the CSV report plus one gnuplot data file per family.

    Data rows carry per-mesh errors with the report's pairwise slopes
    against the previous row; each family adds a ``<family>_fit`` summary
    row holding the least-squares slopes.  All floats use 17 significant
    digits so the file round-trips exactly.
    """
    lines = [",".join(CSV_COLUMNS)]
    for (family, k, mode) in sorted(reports):
        report = reports[(family, k, mode)]
        slopes = [("", "")] + [(_fmt(a), _fmt(b)) for a, b in
                               zip(report.pairwise_L2, report.pairwise_H1)]
        for rec, (s_l2, s_h1) in zip(report.records, slopes):
            lines.append(",".join([
                family, str(k), mode, str(rec.n_cells), str(rec.n_dofs),
                _fmt(rec.h_max), _fmt(rec.err_L2_rel), _fmt(rec.err_H1_rel),
                _fmt(rec.err_point_rel), s_l2, s_h1]))
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
