"""Experiment sweeps and CSV/plot-file emission."""

import csv
import dataclasses
import multiprocessing
import os
import pickle
import signal
import sys
import time
import types
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from vemlab import (assembly, basis, harness, local, mesh as mesh_module,
                    postprocess)
from vemlab.harness import (CSV_COLUMNS, DEFAULT_SIZES, STUDY_FAMILIES,
                            ExperimentConfig, _run_single, emit_report,
                            run_experiment)
from vemlab.mesh import element_geometry, make_mesh
from vemlab.meshgen import GeneratorSpec, generate, square_mesh
from vemlab.postprocess import ErrorRecord, convergence_rates
from vemlab.problems import builtin_problem, constant_problem

from oracles import (cell_rings, element_geometry_per_cell,
                     entry_representatives)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.mark.parametrize("family", STUDY_FAMILIES)
def test_h_max_equals_largest_geometry_diameter(family):
    # h_max comes from the ring coordinates alone; it must equal the
    # diameter element_geometry reports, bit for bit
    mesh = generate(GeneratorSpec(family, 25, seed=3))
    diameters = [element_geometry(mesh, c).diameter for c in range(mesh.num_cells)]
    assert [element_geometry_per_cell(mesh, c).diameter
            for c in range(mesh.num_cells)] == diameters
    rec = _run_single(mesh, 1, builtin_problem(), "standard")
    assert rec.h_max == max(diameters)


def test_non_finite_exact_solution_is_an_error():
    # a sweep stops with the named cell instead of writing a record whose
    # error is NaN without a cause
    prob = builtin_problem()

    def p_ex(x, y):
        hole = (0.3 < x) & (x < 0.6) & (0.3 < y) & (y < 0.6)
        return np.where(hole, np.nan, prob.p_ex(x, y))

    bad = dataclasses.replace(prob, p_ex=p_ex)
    with pytest.raises(ValueError, match=r"cell \d+: p_ex is not finite"):
        _run_single(square_mesh(4), 2, bad, "standard")


class TestExperimentConfig:
    def test_defaults(self):
        config = ExperimentConfig()
        assert config.sizes == DEFAULT_SIZES == (25, 100, 400, 1600)
        assert config.mode == "standard"
        assert harness.DEFAULT_POINT == (0.781, 0.766)

    def test_sizes_sorted(self):
        config = ExperimentConfig(sizes=(400, 25, 100))
        assert config.sizes == (25, 100, 400)

    @pytest.mark.parametrize("bad", [
        dict(k=5),
        dict(k=0),
        dict(k=2.0),
        dict(k=True),
        dict(families=()),
        dict(families=("triangle",)),
        dict(sizes=(0,)),
        dict(sizes=()),
        dict(mode="fancy"),
    ])
    def test_rejects_invalid(self, bad):
        with pytest.raises(ValueError):
            ExperimentConfig(**bad)

    @pytest.mark.parametrize("family", ["square", "concave"])
    def test_rejects_nonsquare_size_before_any_mesh(self, family, monkeypatch):
        # the square and concave generators need n * n cells; a sweep must
        # not solve the 16-cell mesh and then stop at 20
        monkeypatch.setattr(harness, "generate", None)
        with pytest.raises(ValueError, match="size 20 is not a square"):
            run_experiment(ExperimentConfig(families=("lloyd0", family),
                                            sizes=(16, 20)))

    @pytest.mark.parametrize("field, bad", [
        ("sizes", dict(sizes=(16.7, 3.9))),
        ("sizes", dict(sizes=(16, 25.0))),
        ("sizes", dict(sizes=("16",))),
        ("seed", dict(seed=1.5)),
        ("seed", dict(seed=-1)),
    ])
    def test_names_a_non_integer_or_negative_field(self, field, bad):
        # int() would run sizes (16.7, 3.9) as (3, 16)
        with pytest.raises(ValueError, match=f"{field} must be"):
            ExperimentConfig(**bad)

    def test_bad_seed_rejected_before_any_mesh(self, monkeypatch):
        # the square mesh would be solved before the first Voronoi mesh
        # reached the generator's own check
        monkeypatch.setattr(harness, "generate", None)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            run_experiment(ExperimentConfig(families=("square", "lloyd0"),
                                            sizes=(16,), seed=-1))

    def test_repeated_family_rejected(self):
        # each family has one report: a repeat would be solved twice and
        # one of its two reports dropped
        with pytest.raises(ValueError,
                           match="family 'square' is given more than once"):
            ExperimentConfig(families=("square", "lloyd0", "square"))

    def test_numpy_integer_sizes_accepted(self):
        config = ExperimentConfig(sizes=(np.int64(100), np.int32(25)))
        assert config.sizes == (25, 100)
        assert all(type(s) is int for s in config.sizes)

    def test_voronoi_families_take_any_size(self):
        assert ExperimentConfig(families=("lloyd0", "lloyd100"),
                                sizes=(20,)).sizes == (20,)

    @pytest.mark.parametrize("out", [3, True, b"r.csv"], ids=repr)
    def test_out_that_is_not_a_str_path_rejected(self, out):
        # an int used to be opened as a file descriptor, written and
        # closed before a TypeError, and bytes wrote b'r'_square.dat
        with pytest.raises(ValueError, match=r"^out must be a path "):
            ExperimentConfig(out=out)

    def test_out_takes_a_pathlib_path(self, tmp_path):
        path = tmp_path / "report.csv"
        run_experiment(ExperimentConfig(k=1, families=("square",),
                                        sizes=(4,), out=path))
        assert _read_csv(path)[0] == list(CSV_COLUMNS)
        assert (tmp_path / "report_square.dat").is_file()


class TestRunExperiment:
    def test_basic_sweep(self):
        config = ExperimentConfig(k=1, families=("square",), sizes=(4, 16))
        reports = run_experiment(config)
        assert set(reports) == {("square", 1, "standard")}
        report = reports[("square", 1, "standard")]
        assert [r.n_cells for r in report.records] == [4, 16]
        hs = [r.h_max for r in report.records]
        assert hs[0] > hs[1]
        for r in report.records:
            assert not r.failed
            assert r.err_L2_rel > 0 and r.err_H1_rel > 0
            assert r.n_dofs == r.n_cells + 2 * int(np.sqrt(r.n_cells)) + 1

    def test_mesh_injection(self):
        # a pre-built mesh under the requested key is used as-is
        config = ExperimentConfig(k=1, families=("square",), sizes=(9,))
        reports = run_experiment(config, meshes={("square", 9): square_mesh(2)})
        record = reports[("square", 1, "standard")].records[0]
        assert record.n_cells == 4

    def test_relative_error_against_a_zero_norm_raises(self):
        # the gradient of a constant has norm 0: err_H1_rel used to read
        # 4.85e285 and 2.09e286 for an exact solve
        config = ExperimentConfig(k=2, families=("square",), sizes=(4, 16))
        with pytest.raises(ValueError,
                           match=r"^the L2 norm of grad_p_ex is 0"):
            run_experiment(config, problem=constant_problem())

    def test_multiple_families(self):
        config = ExperimentConfig(k=1, families=("square", "lloyd0"),
                                  sizes=(9, 25), seed=3)
        reports = run_experiment(config)
        assert set(reports) == {("square", 1, "standard"),
                                ("lloyd0", 1, "standard")}


class TestBuildOnce:
    """Each cell's geometry and projectors are built once per solve."""

    @staticmethod
    def _count(monkeypatch, name, modules):
        calls = []
        for module in modules:
            fn = getattr(module, name)

            def counted(*args, _fn=fn, **kwargs):
                calls.append(name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        return calls

    @pytest.mark.parametrize("k, family, sizes", [(4, "concave", (4, 16)),
                                                  (2, "lloyd0", (25,))])
    def test_projectors_and_geometry_built_once_per_cell(self, k, family,
                                                         sizes, monkeypatch):
        # every cell is triangulated and gets its local forms exactly once,
        # the projectors are built once for each shape-class representative,
        # each representative that takes the ear clip is ear-clipped once
        # (its class's members take its corners), and post-processing
        # neither builds projectors nor re-triangulates; it reads the bank's
        # stacked geometry, and only the point evaluation takes one cell's
        # geometry row
        built, entries, projected, triangulated, elements = (
            [], [], [], [], [])
        clipped, ear_clips = [], []
        forms, class_projectors = local._local_forms, local._projectors
        triangulate_stack, ear_clip = local.triangulate_stack, basis._ear_clip
        take = mesh_module.take

        def counted_take(record, rows):
            if (isinstance(record, mesh_module.GeometryStack)
                    and isinstance(rows, (int, np.integer))):
                elements.append(rows)
            return take(record, rows)

        def counted_forms(out, *args):
            built.extend(out.geometry.cells.tolist())
            entries.append(out.bank_entry(None))
            return forms(out, *args)

        def counted_projectors(geometry, *args):
            projected.extend(geometry.cells.tolist())
            return class_projectors(geometry, *args)

        def counted_triangulation(geometry, rep_of):
            # per stack: the cells ear-clipped, and the representatives
            # among the cells that take the ear clip (a triangle takes
            # neither the clip nor the fan)
            triangulated.extend(geometry.cells.tolist())
            clipped.clear()
            parts = triangulate_stack(geometry, rep_of)
            nv = geometry.vertices.shape[1]
            reps = [c for rows, tris in parts if 3 < nv != tris.shape[1]
                    for c in geometry.cells[rows[rep_of[rows] == rows]]]
            ear_clips.append((sorted(clipped), sorted(reps)))
            return parts

        def counted_ear_clip(geometry):
            clipped.extend(geometry.cells.tolist())
            return ear_clip(geometry)

        monkeypatch.setattr(local, "_local_forms", counted_forms)
        monkeypatch.setattr(local, "_projectors", counted_projectors)
        monkeypatch.setattr(local, "triangulate_stack", counted_triangulation)
        monkeypatch.setattr(basis, "_ear_clip", counted_ear_clip)
        for module in (mesh_module, basis, local):
            monkeypatch.setattr(module, "take", counted_take)
        projectors = self._count(monkeypatch, "projector_set",
                                 (local, postprocess))
        rebuilt = self._count(monkeypatch, "triangulate", (basis,))
        geometries = self._count(monkeypatch, "element_geometry",
                                 (mesh_module, assembly, postprocess, harness))
        # on one CPU the sweep stays in the test process: worker processes
        # would make calls the counters above do not see
        config = ExperimentConfig(k=k, families=(family,), sizes=sizes)
        records = _on_one_cpu(
            lambda: run_experiment(config)[(family, k, "standard")].records)
        cells = sum(r.n_cells for r in records)
        assert not any(r.failed for r in records)
        assert len(built) == cells
        assert sorted(built) == sorted(c for r in records
                                       for c in range(r.n_cells))
        represented = [c for (geometry, *_), reps in zip(
                           entries, entry_representatives(entries))
                       for c, rep in zip(geometry.cells, reps) if rep == c]
        assert sorted(projected) == sorted(represented)
        assert sorted(triangulated) == sorted(built)
        assert all(got == reps for got, reps in ear_clips)
        if family == "concave":
            # no concave cell takes the fan: its 5 representatives are
            # ear-clipped, and nothing else
            assert [len(reps) for _, reps in ear_clips] == [5] * len(records)
        assert not projectors and not rebuilt
        assert len(geometries) <= cells + 1
        assert len(elements) <= len(records)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_sweep_continues_past_degenerate_geometry(self):
        # At a scale of 1e-160 the cell areas are subnormal and the k = 4
        # monomial mass matrix is exactly singular.
        base = square_mesh(2)
        tiny = make_mesh(base.vertices * 1e-160, cell_rings(base))
        config = ExperimentConfig(k=4, families=("square",), sizes=(4, 9))
        reports = run_experiment(config, meshes={("square", 4): tiny})
        bad, good = reports[("square", 4, "standard")].records
        assert bad.failed and np.isnan(bad.err_L2_rel)
        assert "element geometry is degenerate" in bad.cause
        assert not good.failed and good.cause == ""
        assert np.isfinite([good.err_L2_rel, good.err_H1_rel]).all()


    def test_sweep_continues_past_untriangulable_cell(self):
        # a 1 x 1e-14 sliver under the unit square cannot be triangulated
        sliver = make_mesh([[0, 0], [1, 0], [1, 1], [0, 1], [0, -1e-14],
                            [1, -1e-14]], [[0, 1, 2, 3], [4, 5, 1, 0]])
        config = ExperimentConfig(k=2, families=("square",), sizes=(4, 9))
        reports = run_experiment(config, meshes={("square", 4): sliver})
        bad, good = reports[("square", 2, "standard")].records
        assert bad.failed and np.isnan(bad.err_L2_rel)
        assert "cell 1: triangulation failed" in bad.cause
        assert "element geometry is degenerate" in bad.cause
        assert not good.failed and good.cause == ""
        assert np.isfinite([good.err_L2_rel, good.err_H1_rel]).all()


def _on_one_cpu(run):
    """``run()`` with this process restricted to one of its CPUs (outside
    Linux a sweep runs in-process anyway)."""
    if not hasattr(os, "sched_setaffinity"):
        return run()
    saved = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(saved)})
    try:
        return run()
    finally:
        os.sched_setaffinity(0, saved)


def _sweep_n_cells():
    config = ExperimentConfig(k=1, families=("square", "lloyd0"),
                              sizes=(4, 9))
    return [r.n_cells for rep in run_experiment(config).values()
            for r in rep.records]


def _with_coefficient(problem, name, fn):
    return dataclasses.replace(problem, coefficients=dataclasses.replace(
        problem.coefficients, **{name: fn}))


def _sweep_pids(tmp_path, sizes=(4, 9, 16)):
    """Pids of the processes that evaluate the source term in a k = 1
    square and lloyd0 sweep of the built-in problem: each leaves a file
    named by its pid in ``tmp_path``."""
    base = builtin_problem()

    def f(x, y):
        (tmp_path / str(os.getpid())).touch()
        return base.coefficients.f(x, y)

    config = ExperimentConfig(k=1, families=("square", "lloyd0"),
                              sizes=sizes)
    reports = run_experiment(config, problem=_with_coefficient(base, "f", f))
    assert multiprocessing.active_children() == []
    assert not any(r.failed for rep in reports.values()
                   for r in rep.records)
    return {int(path.name) for path in tmp_path.iterdir()}


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="CPU affinity is Linux-only")
class TestParallelSweep:
    """A sweep of several meshes is solved in worker processes, one per
    usable CPU, and reports what one process would."""

    def test_matches_one_cpu_sweep(self, tmp_path):
        def sweep(name):
            config = ExperimentConfig(k=2, families=("square", "concave",
                                                     "lloyd0"),
                                      sizes=(4, 9, 16),
                                      out=str(tmp_path / f"{name}.csv"))
            injected = generate(GeneratorSpec("lloyd100", 9, seed=3))
            reports = run_experiment(config, meshes={("lloyd0", 9): injected})
            assert multiprocessing.active_children() == []
            # repr round-trips every float, so equal reprs are equal bits
            return {key: [repr(dataclasses.astuple(r)) for r in rep.records]
                    for key, rep in reports.items()}

        assert sweep("parallel") == _on_one_cpu(lambda: sweep("one"))
        for suffix in (".csv", "_square.dat", "_concave.dat", "_lloyd0.dat"):
            assert ((tmp_path / f"parallel{suffix}").read_bytes()
                    == (tmp_path / f"one{suffix}").read_bytes()), suffix

    def test_builtin_problem_solved_in_workers(self, tmp_path):
        # the built-in problem's closures cannot be pickled: the workers
        # inherit it through the fork
        with pytest.raises((pickle.PicklingError, AttributeError)):
            pickle.dumps(builtin_problem())
        pids = _sweep_pids(tmp_path)
        workers = harness._n_workers(6)
        if workers == 1:
            assert pids == {os.getpid()}
        else:
            assert os.getpid() not in pids and 1 <= len(pids) <= workers

    def test_workers_capped_whatever_the_cpu_count(self, tmp_path,
                                                  monkeypatch):
        # each worker holds a whole mesh: 64 usable CPUs still start at
        # most _MAX_WORKERS of them
        if sys.version_info < (3, 11):
            pytest.skip("sweeps run in-process before Python 3.11")
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(64)))
        pids = _sweep_pids(tmp_path)
        assert os.getpid() not in pids
        assert 1 <= len(pids) <= harness._MAX_WORKERS == 2

    def test_before_python_3_11_stays_in_process(self, tmp_path,
                                                 monkeypatch):
        # Python 3.10's executor forks workers while its manager thread
        # runs, which can deadlock
        monkeypatch.setattr(harness, "sys", types.SimpleNamespace(
            platform="linux", version_info=(3, 10, 14)))
        assert _sweep_pids(tmp_path, sizes=(4, 9)) == {os.getpid()}

    def test_killed_worker_raises(self):
        # a worker killed from outside, as for memory, fails the sweep
        # instead of leaving it waiting for the lost mesh
        if harness._n_workers(4) < 2:
            pytest.skip("the sweep runs in this process")
        parent = os.getpid()
        base = builtin_problem()

        def f(x, y):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return base.coefficients.f(x, y)

        config = ExperimentConfig(k=1, families=("square", "lloyd0"),
                                  sizes=(4, 9))
        with pytest.raises(BrokenProcessPool):
            run_experiment(config, problem=_with_coefficient(base, "f", f))
        assert multiprocessing.active_children() == []

    def test_sweep_in_a_pool_worker_stays_in_process(self):
        # multiprocessing.Pool's workers are daemonic, and a daemonic
        # process may not start processes of its own
        with multiprocessing.get_context("fork").Pool(1) as pool:
            n_cells = pool.apply_async(_sweep_n_cells).get(timeout=120)
        assert n_cells == _sweep_n_cells()

    def test_first_failing_mesh_in_sweep_order_raises(self):
        # two injected meshes lie off the unit square, where the problem
        # raises.  The later one in (family, size) order fails first: the
        # earlier one sleeps before raising.
        base = builtin_problem()

        def kappa(x, y):
            shift = int(np.min(x))
            if shift == 3:
                time.sleep(0.5)
            if shift:
                raise ValueError(f"mesh moved by {shift}")
            return base.coefficients.kappa(x, y)

        def moved(mesh, shift):
            return make_mesh(mesh.vertices + [shift, 0.0], cell_rings(mesh))

        config = ExperimentConfig(k=1, families=("square", "lloyd0"),
                                  sizes=(4, 9))
        meshes = {("square", 9): moved(square_mesh(3), 3),
                  ("lloyd0", 4): moved(generate(GeneratorSpec("lloyd0", 4)),
                                       2)}
        with pytest.raises(ValueError, match="^mesh moved by 3$"):
            run_experiment(config, meshes=meshes,
                           problem=_with_coefficient(base, "kappa", kappa))
        assert multiprocessing.active_children() == []


class TestEmitReport:
    def _small_reports(self):
        config = ExperimentConfig(k=1, families=("square", "concave"),
                                  sizes=(4, 16))
        return run_experiment(config)

    def test_row_counts_and_columns(self, tmp_path):
        path = tmp_path / "report.csv"
        reports = self._small_reports()
        emit_report(reports, str(path))
        rows = _read_csv(path)
        assert rows[0] == list(CSV_COLUMNS)
        assert len(rows) == 1 + 2 * (2 + 1)  # header + per family: 2 data + 1 fit
        for row in rows[1:]:
            assert len(row) == len(CSV_COLUMNS)
        fit_rows = [r for r in rows if r[0].endswith("_fit")]
        assert {r[0] for r in fit_rows} == {"square_fit", "concave_fit"}

    def test_roundtrip_17_digits(self, tmp_path):
        path = tmp_path / "report.csv"
        reports = self._small_reports()
        emit_report(reports, str(path))
        rows = _read_csv(path)
        by_family = {}
        for row in rows[1:]:
            if not row[0].endswith("_fit"):
                by_family.setdefault(row[0], []).append(row)
        for (family, _, _), report in reports.items():
            for rec, row in zip(report.records, by_family[family]):
                assert float(row[5]) == rec.h_max
                assert float(row[6]) == rec.err_L2_rel
                assert float(row[7]) == rec.err_H1_rel
                assert float(row[8]) == rec.err_point_rel
        fit = next(r for r in rows if r[0] == "square_fit")
        assert float(fit[9]) == reports[("square", 1, "standard")].slope_L2
        assert float(fit[10]) == reports[("square", 1, "standard")].slope_H1

    def test_pairwise_slope_columns(self, tmp_path):
        path = tmp_path / "report.csv"
        reports = self._small_reports()
        emit_report(reports, str(path))
        rows = [r for r in _read_csv(path)
                if r[0] == "square" and not r[0].endswith("_fit")]
        assert rows[0][9] == "" and rows[0][10] == ""
        report = reports[("square", 1, "standard")]
        assert float(rows[1][9]) == pytest.approx(report.pairwise_L2[0],
                                                  abs=0)

    def test_pairwise_columns_equal_report_across_failed_record(self,
                                                                tmp_path):
        # a failed middle record has nan slopes on both sides, in the CSV
        # and in the report alike; the report used to bridge it
        good = [ErrorRecord(h_max=h, n_cells=n, n_dofs=n, err_L2_rel=h ** 2,
                            err_H1_rel=h, err_point_rel=h ** 2)
                for h, n in ((0.5, 4), (0.25, 16), (0.125, 64))]
        bad = ErrorRecord(h_max=0.35, n_cells=9, n_dofs=16,
                          err_L2_rel=np.nan, err_H1_rel=np.nan,
                          err_point_rel=np.nan, failed=True)
        report = convergence_rates([good[0], bad, good[1], good[2]])
        path = tmp_path / "fail.csv"
        emit_report({("square", 1, "standard"): report}, str(path))
        rows = _read_csv(path)[1:5]
        assert rows[0][9:] == ["", ""]
        for col, pairwise in ((9, report.pairwise_L2),
                              (10, report.pairwise_H1)):
            np.testing.assert_array_equal(
                [float(row[col]) for row in rows[1:]], pairwise)
            assert np.isnan(pairwise[:2]).all()
        assert report.pairwise_L2[2] == pytest.approx(2.0, abs=1e-12)
        assert report.pairwise_H1[2] == pytest.approx(1.0, abs=1e-12)

    def test_empty_reports(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_report({}, str(path))
        rows = _read_csv(path)
        assert rows == [list(CSV_COLUMNS)]

    def test_identical_bytes_across_runs(self, tmp_path):
        config = ExperimentConfig(k=1, families=("square", "lloyd0"),
                                  sizes=(9, 25), seed=5,
                                  out=str(tmp_path / "a.csv"))
        run_experiment(config)
        config2 = ExperimentConfig(k=1, families=("square", "lloyd0"),
                                   sizes=(9, 25), seed=5,
                                   out=str(tmp_path / "b.csv"))
        run_experiment(config2)
        assert ((tmp_path / "a.csv").read_bytes()
                == (tmp_path / "b.csv").read_bytes())
        assert ((tmp_path / "a_square.dat").read_bytes()
                == (tmp_path / "b_square.dat").read_bytes())

    def test_plot_files(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_report(self._small_reports(), str(path))
        for family in ("square", "concave"):
            dat = tmp_path / f"out_{family}.dat"
            assert dat.exists()
            lines = dat.read_text().strip().split("\n")
            assert lines[0].startswith("#")
            assert lines[1].startswith("# h_max")
            data = np.loadtxt(str(dat))
            assert data.shape == (2, 4)
            assert (data[:, 0] > 0).all()

    def test_failed_record_written_as_nan(self, tmp_path):
        good = ErrorRecord(h_max=0.5, n_cells=4, n_dofs=9, err_L2_rel=0.1,
                           err_H1_rel=0.2, err_point_rel=0.05)
        bad = ErrorRecord(h_max=0.25, n_cells=16, n_dofs=25,
                          err_L2_rel=np.nan, err_H1_rel=np.nan,
                          err_point_rel=np.nan, failed=True)
        report = convergence_rates([good, bad])
        path = tmp_path / "fail.csv"
        emit_report({("square", 1, "standard"): report}, str(path))
        rows = _read_csv(path)
        assert rows[2][6] == "nan"
        assert rows[2][9] == "nan"
        # fit over a single usable record is undefined
        assert rows[3][9] == "nan"
