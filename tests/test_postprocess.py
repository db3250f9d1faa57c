"""Solution projection, error norms, point evaluation, slope fitting."""

import dataclasses
import re

import numpy as np
import pytest

from oracles import (bank_per_cell, bank_representatives, cell_rings,
                     error_norms_two_tables, error_sums_per_cell,
                     locate_cell_per_cell)
from vemlab import kernels, local, postprocess
from vemlab.assembly import (apply_dirichlet, assemble, build_dofmap,
                             interpolate, solve)
from vemlab.basis import (monomial_exponents, polygon_quadrature, triangulate,
                          triangulate_stack)
from vemlab.local import (Coefficients, ElementBank, element_bank,
                          smooth_rule_degree)
from vemlab.mesh import element_geometry, geometry_stacks, make_mesh
from vemlab.meshgen import GeneratorSpec, concave_mesh, generate, square_mesh
from vemlab.postprocess import (ConvergenceReport, ErrorRecord,
                                convergence_rates, error_norms, locate_cell,
                                point_error, project_solution)
from vemlab.problems import builtin_problem, constant_problem, polynomial_problem

LLOYD = generate(GeneratorSpec("lloyd0", 25, seed=7))


def _solve_problem(mesh, k, problem):
    system = assemble(mesh, k, problem.coefficients)
    apply_dirichlet(system, problem.p_ex)
    return solve(system)


def _nan_in_hole(fn):
    """``fn`` with NaN values inside (0.3, 0.6)^2."""
    def poisoned(x, y):
        values = np.asarray(fn(x, y), dtype=float)
        hole = (0.3 < x) & (x < 0.6) & (0.3 < y) & (y < 0.6)
        if values.ndim > np.ndim(hole):
            hole = hole[..., None]  # a gradient's last axis
        return np.where(hole, np.nan, values)
    return poisoned


def _h_max(mesh):
    return max(element_geometry(mesh, c).diameter
               for c in range(mesh.num_cells))


class TestProjectSolution:
    def test_constant_solution_projects_to_constant(self):
        prob = constant_problem(value=2.0, gamma=0.6)
        u = _solve_problem(LLOYD, 2, prob)
        proj = project_solution(element_bank(LLOYD, 2), u)
        assert np.max(np.abs(proj.coeffs[:, 0] - 2.0)) <= 1e-10
        assert np.max(np.abs(proj.coeffs[:, 1:])) <= 1e-10
        assert np.max(np.abs(proj.grad_coeffs)) <= 1e-9

    def test_patch_solution_projects_to_exact_coefficients(self):
        # p = x in the scaled basis of cell E is x_E + h_E * m_(1,0).
        system = assemble(LLOYD, 1, Coefficients.constant(kappa=1.0))
        apply_dirichlet(system, lambda x, y: x)
        proj = project_solution(element_bank(LLOYD, 1), solve(system))
        for c in range(LLOYD.num_cells):
            geom = element_geometry(LLOYD, c)
            expect = np.array([geom.centroid[0], geom.diameter, 0.0])
            np.testing.assert_allclose(proj.coeffs[c], expect, atol=1e-11)

    def test_cell_averages_preserved_k2(self):
        # with internal moments present the projection keeps cell averages
        prob = builtin_problem()
        mesh = square_mesh(10)
        u = interpolate(mesh, 2, prob.p_ex)
        proj = project_solution(element_bank(mesh, 2), u)
        for c in range(mesh.num_cells):
            geom = element_geometry(mesh, c)
            rule = polygon_quadrature(geom, 8)
            avg_exact = rule.weights @ prob.p_ex(rule.points[:, 0],
                                                 rule.points[:, 1]) / geom.area
            avg_proj = rule.weights @ proj.cell_value(c, rule.points) / geom.area
            assert abs(avg_proj - avg_exact) <= 1e-12

    def test_cell_averages_second_order_k1(self):
        prob = builtin_problem()
        diffs = {}
        for n in (5, 20):
            mesh = square_mesh(n)
            u = interpolate(mesh, 1, prob.p_ex)
            proj = project_solution(element_bank(mesh, 1), u)
            worst = 0.0
            for c in range(mesh.num_cells):
                geom = element_geometry(mesh, c)
                rule = polygon_quadrature(geom, 8)
                avg_exact = rule.weights @ prob.p_ex(
                    rule.points[:, 0], rule.points[:, 1]) / geom.area
                avg_proj = (rule.weights @ proj.cell_value(c, rule.points)
                            / geom.area)
                worst = max(worst, abs(avg_proj - avg_exact))
            diffs[n] = worst
        assert diffs[5] <= 5.0 * (np.sqrt(2) / 5) ** 2
        # quadratic decay with a generous safety factor
        assert diffs[20] <= diffs[5] * (5 / 20) ** 2 * 3

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            project_solution(element_bank(LLOYD, 1), np.zeros(3))
        # a DoF vector of another mesh or degree than the bank's: the
        # 25-cell mesh's with the 16-cell mesh's bank, and a k = 3 one with
        # a k = 2 bank
        small, large = square_mesh(4), square_mesh(5)
        bank = assemble(small, 2, Coefficients.constant(kappa=1.0)).bank
        p_ex = builtin_problem().p_ex
        for u in (interpolate(large, 2, p_ex), interpolate(small, 3, p_ex)):
            with pytest.raises(ValueError, match=rf"^u has shape "
                               rf"\({u.size},\), expected \("):
                project_solution(bank, u)

    def test_dof_vector_is_taken_as_a_real_array(self):
        # a list used to end in "'list' object has no attribute 'shape'",
        # and a complex vector lost its imaginary part with a ComplexWarning
        mesh = square_mesh(4)
        bank = element_bank(mesh, 2)
        u = interpolate(mesh, 2, builtin_problem().p_ex)
        proj = project_solution(bank, u.tolist())
        assert np.array_equal(proj.coeffs, project_solution(bank, u).coeffs)
        with pytest.raises(ValueError, match=r"^u must be a real DoF vector, "
                           r"got dtype complex128$"):
            project_solution(bank, u + 1j)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("mesh", [square_mesh(3), concave_mesh(3)],
                             ids=["square", "concave"])
    def test_assembly_bank_matches_fresh_bank(self, mesh, k):
        prob = builtin_problem()
        system = assemble(mesh, k, prob.coefficients)
        apply_dirichlet(system, prob.p_ex)
        u = solve(system)
        banked = project_solution(system.bank, u)
        fresh = project_solution(element_bank(mesh, k), u)
        for field in ("coeffs", "grad_coeffs"):
            got, ref = getattr(banked, field), getattr(fresh, field)
            assert np.array_equal(got, ref)
        assert banked.bank is system.bank
        # one stacked product per chunk gives the bits of the per-cell one
        _, operators, _ = bank_per_cell(system.bank)
        per_cell = np.array([op @ u[system.dofmap.cell_dofs(c)]
                             for c, op in enumerate(operators)])
        assert np.array_equal(np.concatenate(
            [banked.coeffs, banked.grad_coeffs[..., 0],
             banked.grad_coeffs[..., 1]], axis=1),
            per_cell)


class TestErrorNorms:
    def test_linear_interpolant_exact(self):
        prob = polynomial_problem(1, kappa=1.0)
        u = interpolate(LLOYD, 1, prob.p_ex)
        proj = project_solution(element_bank(LLOYD, 1), u)
        l2, h1 = error_norms(proj, prob.p_ex, prob.grad_p_ex)
        assert l2 < 1e-11 and h1 < 1e-11

    @pytest.mark.parametrize("k", [2, 3])
    def test_patch_solution_exact(self, k):
        prob = polynomial_problem(k)
        u = _solve_problem(LLOYD, k, prob)
        proj = project_solution(element_bank(LLOYD, k), u)
        l2, h1 = error_norms(proj, prob.p_ex, prob.grad_p_ex)
        assert l2 < 1e-12 and h1 < 1e-11

    def test_renumbering_invariance(self):
        prob = builtin_problem()
        mesh = generate(GeneratorSpec("lloyd0", 16, seed=3))
        rng = np.random.default_rng(5)
        perm = rng.permutation(mesh.num_vertices)
        new_vertices = np.empty_like(mesh.vertices)
        new_vertices[perm] = mesh.vertices
        new_cells = [perm[ring] for ring in cell_rings(mesh)]
        remesh = make_mesh(new_vertices, new_cells)
        errs = []
        for m in (mesh, remesh):
            u = interpolate(m, 2, prob.p_ex)
            proj = project_solution(element_bank(m, 2), u)
            errs.append(error_norms(proj, prob.p_ex, prob.grad_p_ex))
        np.testing.assert_allclose(errs[0], errs[1], rtol=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_sliced_gradient_table_matches_separate_table(self, k):
        # the degree-(k-1) monomial table is the first columns of the
        # degree-k one, so the errors are unchanged bit for bit
        prob = builtin_problem()
        u = interpolate(LLOYD, k, prob.p_ex)
        proj = project_solution(element_bank(LLOYD, k), u)
        got = error_norms(proj, prob.p_ex, prob.grad_p_ex, relative=False)
        assert got == error_norms_two_tables(LLOYD, k, proj, prob.p_ex,
                                             prob.grad_p_ex)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("mesh", [LLOYD, concave_mesh(4)],
                             ids=["lloyd0", "concave"])
    def test_sums_match_per_cell_accumulation(self, mesh, k):
        # the running sums add the cells in the same order as a Python loop
        prob = builtin_problem()
        system = assemble(mesh, k, prob.coefficients)
        apply_dirichlet(system, prob.p_ex)
        proj = project_solution(system.bank, solve(system))
        parts = postprocess._cell_error_parts(proj, prob.p_ex, prob.grad_p_ex,
                                              smooth_rule_degree(k))
        for relative in (True, False):
            assert (error_norms(proj, prob.p_ex, prob.grad_p_ex,
                                relative=relative)
                    == error_sums_per_cell(parts, relative))

    def test_banked_triangles_match_fresh_triangulation(self):
        prob = builtin_problem()
        mesh = concave_mesh(4)
        system = assemble(mesh, 3, prob.coefficients)
        apply_dirichlet(system, prob.p_ex)
        proj = project_solution(system.bank, solve(system))
        geometries, _, _ = bank_per_cell(proj.bank)
        fresh = dataclasses.replace(proj, bank=ElementBank(mesh, 3, tuple(
            (g, np.stack([triangulate(geometries[c].vertices)
                          for c in g.cells]), operators, classes)
            for g, _, operators, classes in proj.bank.chunks)))
        assert proj.bank is system.bank
        assert (error_norms(proj, prob.p_ex, prob.grad_p_ex)
                == error_norms(fresh, prob.p_ex, prob.grad_p_ex))

    @pytest.mark.parametrize("field", ["p_ex", "grad_p_ex"])
    def test_non_finite_exact_solution_is_named(self, field):
        # NaN inside (0.3, 0.6)^2, away from the boundary: the cell and the
        # field are named, as for non-finite coefficients
        prob, mesh = builtin_problem(), square_mesh(4)
        proj = project_solution(element_bank(mesh, 2), interpolate(mesh, 2, prob.p_ex))
        exact = {"p_ex": prob.p_ex, "grad_p_ex": prob.grad_p_ex}
        exact[field] = _nan_in_hole(exact[field])
        with pytest.raises(ValueError, match=rf"cell \d+: {field} is not "
                                             "finite at a quadrature point"
                           ) as info:
            error_norms(proj, exact["p_ex"], exact["grad_p_ex"])
        cell = int(re.match(r"cell (\d+)", str(info.value)).group(1))
        ring = mesh.vertices[mesh.ring(cell)]
        # the named cell meets the hole
        assert (ring.min(axis=0) < 0.6).all()
        assert (ring.max(axis=0) > 0.3).all()

    @pytest.mark.parametrize("field, value, got, expected", [
        ("p_ex", lambda x, y: np.stack([x, y], -1), r"\(16, \d+, 2\)",
         r"\(16, \d+\)"),
        ("grad_p_ex", lambda x, y: np.stack([x, y, x], -1),
         r"\(16, \d+, 3\)", r"\(16, \d+, 2\)"),
    ], ids=["p_ex", "grad_p_ex"])
    def test_exact_solution_of_wrong_shape_is_named(self, field, value, got,
                                                    expected):
        # an (n, 3) gradient used to end in NumPy's "operands could not be
        # broadcast together with remapped shapes"
        prob, mesh = builtin_problem(), square_mesh(4)
        proj = project_solution(element_bank(mesh, 2), interpolate(mesh, 2, prob.p_ex))
        exact = {"p_ex": prob.p_ex, "grad_p_ex": prob.grad_p_ex,
                 field: value}
        with pytest.raises(ValueError, match=rf"^{field} returned shape "
                           rf"{got} at \d+ points, expected {expected}$"):
            error_norms(proj, exact["p_ex"], exact["grad_p_ex"])

    def test_absolute_vs_relative_scaling(self):
        prob = builtin_problem()
        mesh = square_mesh(5)
        ratios = []
        for k in (1, 2):
            u = interpolate(mesh, k, prob.p_ex)
            proj = project_solution(element_bank(mesh, k), u)
            rel = error_norms(proj, prob.p_ex, prob.grad_p_ex)
            ab = error_norms(proj, prob.p_ex, prob.grad_p_ex, relative=False)
            ratios.append((ab[0] / rel[0], ab[1] / rel[1]))
        # the normalization is the (k-independent) norm of the exact solution
        np.testing.assert_allclose(ratios[0], ratios[1], rtol=1e-10)
        assert ratios[0][0] > 1.0  # |p_ex| exceeds 1 on the square

    def test_relative_to_a_zero_norm_raises(self):
        # the gradient of a constant has norm 0: its relative H1 error used
        # to read ~1e285, its error divided by 1e-300
        prob, mesh = constant_problem(), square_mesh(4)
        proj = project_solution(element_bank(mesh, 2),
                                interpolate(mesh, 2, prob.p_ex))
        with pytest.raises(ValueError, match=r"^the L2 norm of grad_p_ex "
                                             r"is 0"):
            error_norms(proj, prob.p_ex, prob.grad_p_ex)
        zero = lambda x, y: np.zeros_like(x)
        with pytest.raises(ValueError, match=r"^the L2 norm of p_ex is 0"):
            error_norms(proj, zero, lambda x, y: np.ones(x.shape + (2,)))
        l2, h1 = error_norms(proj, prob.p_ex, prob.grad_p_ex, relative=False)
        assert np.isfinite([l2, h1]).all() and l2 < 1e-13 and h1 < 1e-12


class TestBankLayout:
    @pytest.mark.parametrize("small_chunks", [False, True],
                             ids=["default", "small"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("family", ["square", "concave", "lloyd0"])
    def test_representatives_lead_each_group(self, family, k, small_chunks,
                                             monkeypatch):
        # the error norms build their class tables on the leading rows of
        # the first chunk of each group (the first to carry its operators)
        # and map their rule once per chunk: those rows must be the
        # group's shape-class representatives, in class order
        if small_chunks:
            monkeypatch.setattr(local, "_CHUNK_BYTES", 1)
            monkeypatch.setattr(local, "_MIN_CHUNK_CELLS", 2)
        mesh = generate(GeneratorSpec(family, 100, seed=0))
        bank = ElementBank(mesh, k, tuple(out.bank_entry(tris) for out, tris
                                    in local.mesh_elements(mesh, k)))
        heads, seen = [], None
        for geometry, _, operators, _ in bank.chunks:
            if operators is not seen:
                seen = operators
                heads.append(geometry.cells[:len(operators)])
        expected, rep_of = [], np.empty(mesh.num_cells, dtype=np.intp)
        for geometry in geometry_stacks(mesh):
            stack_reps = local.shape_classes(geometry)
            for rows, _ in triangulate_stack(geometry, stack_reps):
                cells = geometry.cells[rows]
                expected.append(np.unique(geometry.cells[stack_reps[rows]]))
                rep_of[cells] = geometry.cells[stack_reps[rows]]
        assert np.array_equal(np.concatenate(heads), np.concatenate(expected))
        assert bank_representatives(bank) == rep_of.tolist()
        calls = []
        map_rule = postprocess.map_rule
        monkeypatch.setattr(postprocess, "map_rule",
                            lambda *args: calls.append(1) or map_rule(*args))
        prob = builtin_problem()
        proj = project_solution(bank, interpolate(mesh, k, prob.p_ex))
        error_norms(proj, prob.p_ex, prob.grad_p_ex)
        assert len(calls) == len(bank.chunks)


class TestPointError:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("family", ["square", "concave", "lloyd0",
                                        "lloyd100"])
    def test_cell_value_matches_bank_row(self, family, k):
        # cell_value takes the cell's geometry from the mesh; its table is
        # the one the bank chunk's own centroid and diameter row gives, so
        # no point error depends on where the bank keeps the cell
        mesh = generate(GeneratorSpec(family, 36, seed=1))
        prob = builtin_problem()
        proj = project_solution(element_bank(mesh, k), interpolate(mesh, k, prob.p_ex))
        exps = monomial_exponents(k)
        seen = 0
        for geometry, *_ in proj.bank.chunks:
            for i, c in enumerate(geometry.cells):
                pts = np.vstack([geometry.vertices[i], geometry.centroid[i]])
                table = kernels.monomial_vandermonde(
                    pts, geometry.centroid[i], geometry.diameter[i], exps)
                assert np.array_equal(proj.cell_value(c, pts),
                                      table @ proj.coeffs[c])
                seen += 1
        assert seen == mesh.num_cells

    def test_constant_solution(self):
        prob = constant_problem(value=2.0, gamma=0.6)
        u = _solve_problem(LLOYD, 2, prob)
        proj = project_solution(element_bank(LLOYD, 2), u)
        err, cell = point_error(proj, (0.43, 0.58), prob.p_ex)
        assert err < 1e-12
        assert 0 <= cell < LLOYD.num_cells

    def test_patch_values_at_random_points(self):
        prob = polynomial_problem(2)
        u = _solve_problem(LLOYD, 2, prob)
        proj = project_solution(element_bank(LLOYD, 2), u)
        rng = np.random.default_rng(13)
        for x, y in rng.uniform(0.05, 0.95, size=(10, 2)):
            err, _ = point_error(proj, (x, y), prob.p_ex)
            assert err < 1e-12

    def test_interface_point_uses_incident_cell(self):
        mesh = square_mesh(2)
        prob = polynomial_problem(1, kappa=1.0)
        u = _solve_problem(mesh, 1, prob)
        proj = project_solution(element_bank(mesh, 1), u)
        err, cell = point_error(proj, (0.5, 0.5), prob.p_ex)
        assert err < 1e-12
        incident = [c for c in range(mesh.num_cells)
                    if any(np.all(mesh.vertices[mesh.ring(c)] == [0.5, 0.5],
                                  axis=1))]
        assert cell in incident

    def test_non_finite_exact_value_is_named(self):
        prob, mesh = builtin_problem(), square_mesh(4)
        proj = project_solution(element_bank(mesh, 2), interpolate(mesh, 2, prob.p_ex))
        cell = locate_cell(mesh, (0.45, 0.45))
        with pytest.raises(ValueError,
                           match=f"cell {cell}: p_ex is not finite"):
            point_error(proj, (0.45, 0.45), _nan_in_hole(prob.p_ex))

    def test_array_valued_exact_value_is_named(self):
        # used to end in a TypeError from float()
        prob, mesh = builtin_problem(), square_mesh(4)
        proj = project_solution(element_bank(mesh, 2), interpolate(mesh, 2, prob.p_ex))
        with pytest.raises(ValueError, match=r"^p_ex returned shape \(3,\) "
                           r"at 1 points, expected \(\)$"):
            point_error(proj, (0.45, 0.45), lambda x, y: np.ones(3))

    def test_outside_point_raises(self):
        prob = constant_problem()
        u = _solve_problem(LLOYD, 1, prob)
        proj = project_solution(element_bank(LLOYD, 1), u)
        with pytest.raises(ValueError, match="outside"):
            point_error(proj, (1.5, 0.5), prob.p_ex)

    def test_zero_exact_value_raises(self):
        # its relative error used to be divided by 1e-300
        mesh = square_mesh(4)
        proj = project_solution(element_bank(mesh, 1),
                                interpolate(mesh, 1, lambda x, y: x - 0.5))
        cell = locate_cell(mesh, (0.5, 0.3))
        with pytest.raises(ValueError, match=rf"^cell {cell}: p_ex is 0 at "
                                             r"\(0.5, 0.3\)"):
            point_error(proj, (0.5, 0.3), lambda x, y: x - 0.5)

    @pytest.mark.parametrize("point", [(0.5,), (0.5, 0.5, 0.5), (0.5, 0.5j),
                                       "ab"], ids=repr)
    def test_point_of_other_than_two_real_coordinates_raises(self, point):
        # (0.5,) used to end in "not enough values to unpack" and
        # (0.5, 0.5, 0.5) in a broadcast error
        proj = project_solution(element_bank(LLOYD, 1),
                                interpolate(LLOYD, 1, lambda x, y: x + 1.0))
        with pytest.raises(ValueError, match=r"^point must be two real "
                                             r"coordinates \(x, y\), got "):
            point_error(proj, point, lambda x, y: x + 1.0)

    def test_locate_cell_agrees_with_triangulation(self):
        mesh = concave_mesh(2)
        rng = np.random.default_rng(4)
        pts = rng.uniform(0.01, 0.99, size=(40, 2))

        def tri_contains(coords, p):
            for tri in triangulate(coords):
                a, b, c = tri
                d = np.array([b - a, c - a]).T
                lam = np.linalg.solve(d, p - a)
                if lam.min() >= -1e-12 and lam.sum() <= 1 + 1e-12:
                    return True
            return False

        for p in pts:
            c = locate_cell(mesh, p)
            assert tri_contains(mesh.vertices[mesh.ring(c)], p)


@pytest.mark.parametrize("family", ["square", "concave", "lloyd0",
                                    "lloyd100"])
def test_locate_cell_agrees_with_linear_scan(family):
    # random points plus every vertex and edge midpoint, where the
    # lowest-index incident cell must win
    mesh = generate(GeneratorSpec(family, 36, seed=2))
    rng = np.random.default_rng(8)
    mids = 0.5 * (mesh.vertices[mesh.edge_vertices[:, 0]]
                  + mesh.vertices[mesh.edge_vertices[:, 1]])
    points = np.vstack([rng.uniform(0, 1, size=(50, 2)), mesh.vertices, mids])
    for p in points:
        assert locate_cell(mesh, p) == locate_cell_per_cell(mesh, p)


class TestConvergenceRates:
    def _records(self, hs, errs):
        return [ErrorRecord(h_max=h, n_cells=1, n_dofs=1, err_L2_rel=e,
                            err_H1_rel=e, err_point_rel=e)
                for h, e in zip(hs, errs)]

    def test_exact_quadratic(self):
        hs = [0.5, 0.25, 0.125, 0.0625]
        report = convergence_rates(self._records(hs, [h ** 2 for h in hs]))
        assert report.slope_L2 == pytest.approx(2.0, abs=1e-12)
        assert report.slope_H1 == pytest.approx(2.0, abs=1e-12)
        np.testing.assert_allclose(report.pairwise_L2, 2.0, atol=1e-12)

    def test_exact_power(self):
        hs = [0.4, 0.2, 0.1]
        report = convergence_rates(
            self._records(hs, [3.0 * h ** 4.5 for h in hs]))
        assert report.slope_L2 == pytest.approx(4.5, abs=1e-12)

    def test_duplicate_h_excluded_with_warning(self):
        hs = [0.5, 0.5, 0.25]
        errs = [0.25, 0.3, 0.0625]
        with pytest.warns(UserWarning, match="duplicate"):
            report = convergence_rates(self._records(hs, errs))
        assert report.slope_L2 == pytest.approx(2.0, abs=1e-12)
        assert np.isnan(report.pairwise_L2[0])

    def test_single_record(self):
        report = convergence_rates(self._records([0.5], [0.1]))
        assert np.isnan(report.slope_L2)
        assert report.pairwise_L2.size == 0

    def test_failed_records_skipped(self):
        good = self._records([0.5, 0.25], [0.25, 0.0625])
        bad = ErrorRecord(h_max=0.35, n_cells=1, n_dofs=1,
                          err_L2_rel=np.nan, err_H1_rel=np.nan,
                          err_point_rel=np.nan, failed=True)
        report = convergence_rates([good[0], bad, good[1]])
        assert report.slope_L2 == pytest.approx(2.0, abs=1e-12)
        assert len(report.records) == 3


class TestInterpolantDecay:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_interpolant_error_decay(self, k):
        prob = builtin_problem()
        hs, errs = [], []
        for n in (4, 8, 16):
            mesh = square_mesh(n)
            u = interpolate(mesh, k, prob.p_ex)
            proj = project_solution(element_bank(mesh, k), u)
            l2, _ = error_norms(proj, prob.p_ex, prob.grad_p_ex)
            hs.append(_h_max(mesh))
            errs.append(l2)
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert slope >= k + 0.8
