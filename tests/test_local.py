"""Element-local projectors, stabilization, and discrete forms."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from vemlab import kernels, local
from vemlab.assembly import (apply_dirichlet, assemble, build_dofmap,
                             interpolate, solve)
from vemlab.basis import (QuadratureRule, derivative_table, map_rule,
                          monomial_exponents, n_poly, polygon_quadrature,
                          triangulate, triangulate_stack)
from vemlab.local import (Coefficients, ElementStack, _form_tables,
                          _local_forms, _projectors, cell_bytes, dof_layout,
                          element_bank, internal_moments, interpolate_dofs, local_system,
                          mesh_elements, projector_set, rule_degree,
                          shape_classes)
from vemlab.mesh import (element_geometry, geometry_stacks, make_mesh,
                         polygon_geometry, stack_geometry, take)
from vemlab.harness import ExperimentConfig
from vemlab.meshgen import (GeneratorSpec, concave_mesh, generate,
                            square_mesh, voronoi_mesh)
from vemlab.postprocess import error_norms, project_solution
from vemlab.problems import builtin_problem, polynomial_problem

from oracles import (cell_rings, edge_quadrature, element_geometry_per_cell,
                     energy_rhs_flux_per_cell, entry_representatives,
                     interpolate_dofs_per_cell, local_forms_point_tables,
                     local_system_per_cell, monomial_values,
                     projector_set_per_cell, q1_stiffness, quadrature_per_cell,
                     shape_classes_per_part, subdivision_integrate)

UNIT_SQUARE = polygon_geometry([[0, 0], [1, 0], [1, 1], [0, 1]])
PENTAGON = polygon_geometry(
    [[0, 0], [1.1, -0.1], [1.5, 0.8], [0.6, 1.3], [-0.2, 0.7]])
HEXAGON = polygon_geometry(
    [[0.1, 0], [1, 0.1], [1.4, 0.9], [0.9, 1.5], [0.1, 1.2], [-0.3, 0.6]])


def _cell_bank():
    cells = [UNIT_SQUARE, PENTAGON, HEXAGON]
    mesh = voronoi_mesh(GeneratorSpec("lloyd0", 30, seed=5))
    cells += [element_geometry(mesh, c) for c in (0, 7, 19)]
    conc = concave_mesh(2)
    cells += [element_geometry(conc, c) for c in (2, 5)]
    return cells


CELLS = _cell_bank()


class TestDofLayout:
    def test_counts(self):
        assert dof_layout(UNIT_SQUARE, 1).n_dofs == 4
        assert dof_layout(PENTAGON, 2).n_dofs == 11
        assert dof_layout(HEXAGON, 4).n_dofs == 30

    def test_blocks_empty_for_k1(self):
        lay = dof_layout(PENTAGON, 1)
        assert lay.n_per_edge == 0 and lay.n_internal == 0

    def test_slot_ordering(self):
        lay = dof_layout(UNIT_SQUARE, 3)
        assert lay.vertex_slot(2) == 2
        assert lay.edge_slot(0, 0) == 4
        assert lay.edge_slot(1, 1) == 7
        # internal moments follow the 4 vertex and 8 edge slots
        assert lay.n_vertices * lay.k == 12
        assert lay.n_dofs == 15

    def test_rejects_degree_zero(self):
        with pytest.raises(ValueError):
            dof_layout(UNIT_SQUARE, 0)


def _degree_entry_points():
    """Every public call that takes an element degree k, as ``k -> call``;
    the other arguments are valid at k = 1.  ``error_norms`` takes its
    degree from the projection's bank, so its entry is the bank at k, the
    projection and then its errors."""
    mesh = square_mesh(2)
    coeffs = Coefficients.constant(kappa=1.0, f=1.0)
    v = lambda x, y: x + y
    system = assemble(mesh, 1, coeffs)
    u = solve(apply_dirichlet(system, v))
    return {
        "dof_layout": lambda k: dof_layout(PENTAGON, k),
        "projector_set": lambda k: projector_set(PENTAGON, k),
        "local_system": lambda k: local_system(PENTAGON, k, coeffs),
        "interpolate_dofs": lambda k: interpolate_dofs(PENTAGON, k, v),
        "mesh_elements": lambda k: next(mesh_elements(mesh, k)),
        "build_dofmap": lambda k: build_dofmap(mesh, k),
        "assemble": lambda k: assemble(mesh, k, coeffs),
        "interpolate": lambda k: interpolate(mesh, k, v),
        "element_bank": lambda k: element_bank(mesh, k),
        "error_norms": lambda k: error_norms(
            project_solution(element_bank(mesh, k), u), v,
            lambda x, y: (1.0, 1.0)),
        "ExperimentConfig": lambda k: ExperimentConfig(k=k),
    }


DEGREE_ENTRY_POINTS = _degree_entry_points()


class TestCheckDegree:
    @pytest.mark.parametrize("k", [0, 2.0, True], ids=repr)
    @pytest.mark.parametrize("entry", sorted(DEGREE_ENTRY_POINTS))
    def test_rejects_non_degree(self, entry, k):
        # an integer of at least 1, not a boolean: True is not k = 1 and
        # 2.0 is not k = 2
        with pytest.raises(ValueError, match=r"^k must be "):
            DEGREE_ENTRY_POINTS[entry](k)

    @pytest.mark.parametrize("entry", sorted(DEGREE_ENTRY_POINTS))
    def test_accepts_numpy_integer(self, entry):
        DEGREE_ENTRY_POINTS[entry](np.int64(1))


class TestInterpolateDofs:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_constant_function(self, k):
        lay = dof_layout(PENTAGON, k)
        d = interpolate_dofs(PENTAGON, k, lambda x, y: np.ones_like(x))
        assert np.allclose(d[:5], 1.0)
        for e in range(5):
            for j in range(k - 1):
                expect = 1.0 / (j + 1) if j % 2 == 0 else 0.0
                assert abs(d[lay.edge_slot(e, j)] - expect) < 1e-14
        if k >= 2:
            assert abs(d[lay.n_vertices * lay.k] - 1.0) < 1e-14
        if k >= 3:
            # Centered linear monomials integrate to zero over the cell.
            assert abs(d[lay.n_vertices * lay.k + 1]) < 1e-14
            assert abs(d[lay.n_vertices * lay.k + 2]) < 1e-14

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_monomials_reproduce_dof_table(self, k):
        for geom in CELLS[:4]:
            proj = projector_set(geom, k)
            for col, (ax, ay) in enumerate(monomial_exponents(k)):
                d = interpolate_dofs(
                    geom, k,
                    lambda x, y, ax=ax, ay=ay:
                    ((x - geom.centroid[0]) / geom.diameter) ** ax
                    * ((y - geom.centroid[1]) / geom.diameter) ** ay)
                assert np.allclose(d, proj.D[:, col], atol=1e-13)

    def test_internal_moment_against_subdivision_oracle(self):
        geom = UNIT_SQUARE

        def v(x, y):
            return np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y)

        stack = stack_geometry(geom.vertices[None], geom.edge_forward[None])
        d = internal_moments(stack, 2, v)[0]
        exact = subdivision_integrate(v, geom.vertices, tol=1e-14) / geom.area
        assert abs(d[0] - exact) < 1e-10

    # the oracle's exactness None is its default rule, 2k + 4
    @pytest.mark.parametrize("exactness", [None])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_per_cell_oracle(self, k, exactness):
        # the internal moments run on a stack of one cell with the bits of
        # the cell's own polygon rule and monomial basis
        v = lambda x, y: np.exp(x) * np.cos(2 * y) + x * y ** 3
        for geom in CELLS:
            assert np.array_equal(
                interpolate_dofs(geom, k, v),
                interpolate_dofs_per_cell(geom, k, v, exactness))


class TestPiNabla:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_idempotent_on_polynomials(self, k):
        for geom in CELLS:
            proj = projector_set(geom, k)
            err = np.abs(proj.PiNabla @ proj.D - np.eye(n_poly(k))).max()
            assert err < 1e-11

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_g_equals_b_times_d(self, k):
        # the kernel solves against B @ D; the one-cell construction still
        # builds the energy matrix G it stands for
        for geom in CELLS:
            proj = projector_set_per_cell(geom, k,
                                          quadrature_per_cell(geom, 2 * k))
            scale = np.abs(proj["G"]).max()
            assert np.abs(proj["G"] - proj["B"] @ proj["D"]).max() < 1e-12 * scale

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("family",
                             ["square", "concave", "lloyd0", "lloyd100"])
    def test_b_matches_flux_construction(self, family, k):
        # B from the projected gradient's moments equals Green's formula on
        # the monomials on every column, not only on the range of D that
        # test_g_equals_b_times_d sees
        mesh = generate(GeneratorSpec(family, 36, seed=5))
        for c in range(mesh.num_cells):
            geom = element_geometry_per_cell(mesh, c)
            B = projector_set_per_cell(geom, k,
                                       quadrature_per_cell(geom, 2 * k))["B"]
            ref = energy_rhs_flux_per_cell(geom, k)
            assert np.abs(B - ref).max() <= 1e-12 * np.abs(ref).max(), c

    def test_hat_function_on_unit_square(self):
        pin = projector_set(UNIT_SQUARE, 1).PiNabla
        coeffs = pin @ np.array([1.0, 0.0, 0.0, 0.0])
        pts = np.random.default_rng(3).random((12, 2))
        got = monomial_values(UNIT_SQUARE, 1, pts) @ coeffs
        expect = 0.75 - pts[:, 0] / 2 - pts[:, 1] / 2
        assert np.allclose(got, expect, atol=1e-13)

    def test_energy_norm_preserved_on_polynomials(self):
        # Idempotence makes the projected gradient energy match exactly.
        geom = PENTAGON
        k = 3
        proj = projector_set(geom, k)
        Hm1 = proj.H[:n_poly(k - 1), :n_poly(k - 1)]
        Dx = derivative_table(k, 0) / geom.diameter
        Dy = derivative_table(k, 1) / geom.diameter
        rng = np.random.default_rng(11)
        c = rng.standard_normal(n_poly(k))
        cp = proj.PiNabla @ (proj.D @ c)

        def energy(v):
            return (Dx @ v) @ Hm1 @ (Dx @ v) + (Dy @ v) @ Hm1 @ (Dy @ v)

        assert abs(energy(c) - energy(cp)) < 1e-12 * max(1.0, energy(c))

    def test_boundary_mean_closure(self):
        # The projection shares the boundary mean of the original function,
        # checked on an interpolated non-polynomial.
        geom = PENTAGON
        k = 2
        proj = projector_set(geom, k)
        v = lambda x, y: np.exp(x) * np.cos(y)
        d = interpolate_dofs(geom, k, v)
        coeffs = proj.PiNabla @ d
        mean_proj = 0.0
        mean_trace = 0.0
        perimeter = geom.edge_lengths.sum()
        for e in range(5):
            a = geom.vertices[e]
            b = geom.vertices[(e + 1) % 5]
            rule = edge_quadrature([a, b], 2 * k + 6)
            mean_proj += np.sum(rule.weights
                                * (monomial_values(geom, k, rule.points)
                                   @ coeffs))
        # The virtual function's trace is the edgewise polynomial matching
        # the edge DoFs of v, reconstructed here independently.
        t, w = np.polynomial.legendre.leggauss(k + 4)
        for e in range(5):
            a = geom.vertices[e]
            b = geom.vertices[(e + 1) % 5]
            pts = 0.5 * (a + b) + 0.5 * np.outer(t, b - a)
            vals = v(pts[:, 0], pts[:, 1])
            data = [v(*a), v(*b)] + [np.sum(w / 2 * vals * t ** j)
                                     for j in range(k - 1)]
            tc = np.linalg.solve(_edge_vander(k), np.array(data))
            length = geom.edge_lengths[e]
            trace_vals = np.vander(t, k + 1, increasing=True) @ tc
            mean_trace += np.sum(w * length / 2 * trace_vals)
        assert abs(mean_proj - mean_trace) < 1e-12 * perimeter


def _edge_vander(k):
    m = np.arange(k + 1)
    rows = [(-1.0) ** m, np.ones(k + 1)]
    for j in range(k - 1):
        rows.append(np.where((m + j) % 2 == 0, 1.0 / (m + j + 1), 0.0))
    return np.array(rows)


class TestKernelCalls:
    @staticmethod
    def _counted_calls(monkeypatch):
        calls = []

        def counted(fn):
            def wrapper(*args):
                calls.append(fn.__name__)
                return fn(*args)
            return wrapper

        for name in ("monomial_vandermonde", "monomial_vandermonde_grad"):
            monkeypatch.setattr(kernels, name, counted(getattr(kernels, name)))
        return calls

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("which", [6, 5], ids=["concave_octagon", "voronoi"])
    def test_projector_set_makes_at_most_three_table_calls(self, k, which,
                                                           monkeypatch):
        # Each element's monomial tables come from two stacked value
        # evaluations (rule points; vertices and edge points), not one call
        # per edge and use; no gradient table is evaluated.
        calls = self._counted_calls(monkeypatch)
        geom = CELLS[which]
        assert geom.vertices.shape[0] >= 7
        projector_set(geom, k)
        assert 0 < len(calls) <= 2

    @pytest.mark.parametrize("mode", ["standard", "grad_pinabla"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("which", [6, 5], ids=["concave_octagon", "voronoi"])
    def test_local_system_makes_at_most_three_table_calls(self, k, which, mode,
                                                          monkeypatch):
        # The local forms reuse the projector set's table on the rule points.
        calls = self._counted_calls(monkeypatch)
        geom = CELLS[which]
        coeffs = Coefficients.constant(kappa=[[2.0, 0.3], [0.3, 1.0]],
                                       b=(0.4, -0.2), gamma=1.5, f=1.0)
        local_system(geom, k, coeffs, mode=mode)
        assert 0 < len(calls) <= 2

    @pytest.mark.parametrize("stage", ["interpolate", "error_norms",
                                       "cell_value"])
    def test_post_solve_tables_go_through_the_kernel(self, stage,
                                                      monkeypatch):
        # the internal moments, the error norms and cell_value take their
        # tables from basis.monomial_values, which calls the evaluator
        # through the module attribute that perfbench times
        mesh, prob = concave_mesh(3), builtin_problem()
        u = interpolate(mesh, 2, prob.p_ex)
        proj = project_solution(element_bank(mesh, 2), u)
        calls = self._counted_calls(monkeypatch)
        if stage == "interpolate":
            interpolate(mesh, 2, prob.p_ex)
        elif stage == "error_norms":
            error_norms(proj, prob.p_ex, prob.grad_p_ex)
        else:
            proj.cell_value(4, mesh.vertices[mesh.ring(4)])
        assert calls.count("monomial_vandermonde") > 0


class TestPi0:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_idempotent_on_polynomials(self, k):
        for geom in CELLS:
            proj = projector_set(geom, k)
            nk = n_poly(k)
            nkm1 = n_poly(k - 1)
            assert np.abs(proj.Pi0k @ proj.D - np.eye(nk)).max() < 1e-11
            assert np.abs(proj.Pi0km1 @ proj.D[:, :nkm1]
                          - np.eye(nkm1)).max() < 1e-11

    def test_k1_matches_energy_projection(self):
        for geom in CELLS[:4]:
            proj = projector_set(geom, 1)
            assert np.allclose(proj.Pi0k, proj.PiNabla, atol=1e-13)

    def test_enhancement_moments_k1(self):
        # For k=1 all moments up to degree 1 of the two projections agree.
        geom = UNIT_SQUARE
        proj = projector_set(geom, 1)
        d = np.array([1.0, 0.0, 0.0, 0.0])
        mom_pi0 = proj.H @ (proj.Pi0k @ d)
        mom_pin = proj.H @ (proj.PiNabla @ d)
        assert np.allclose(mom_pi0, mom_pin, atol=1e-14)

    def test_constant_moment_preserved_k2(self):
        geom = PENTAGON
        lay = dof_layout(geom, 2)
        proj = projector_set(geom, 2)
        rng = np.random.default_rng(2)
        d = rng.standard_normal(lay.n_dofs)
        coeffs = proj.Pi0k @ d
        moment = (proj.H[0] @ coeffs) / geom.area
        assert abs(moment - d[lay.n_vertices * lay.k]) < 1e-12

    def test_moment_substitution_reproduces_pi0k(self):
        # Pi0k solves H c = mu: exact moments up to degree k-2, energy
        # projected moments above.
        geom = HEXAGON
        k = 3
        proj = projector_set(geom, k)
        nkm2 = n_poly(k - 2)
        mu = np.zeros_like(proj.PiNabla)
        mu[:nkm2, proj.D.shape[0] - nkm2:] = geom.area * np.eye(nkm2)
        mu[nkm2:] = proj.H[nkm2:] @ proj.PiNabla
        via_moments = np.linalg.solve(proj.H, mu)
        assert np.allclose(via_moments, proj.Pi0k, atol=1e-14)


class TestPi0Grad:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_exact_gradients_of_polynomials(self, k):
        for geom in CELLS:
            proj = projector_set(geom, k)
            Dx = derivative_table(k, 0) / geom.diameter
            Dy = derivative_table(k, 1) / geom.diameter
            assert np.abs(proj.Pi0GradX @ proj.D - Dx).max() < 1e-11
            assert np.abs(proj.Pi0GradY @ proj.D - Dy).max() < 1e-11

    def test_hat_function_mean_gradient(self):
        proj = projector_set(UNIT_SQUARE, 1)
        gx, gy = proj.Pi0GradX, proj.Pi0GradY
        hat = np.array([1.0, 0.0, 0.0, 0.0])
        assert abs(gx @ hat - (-0.5)) < 1e-13
        assert abs(gy @ hat - (-0.5)) < 1e-13

    def test_divergence_free_field_boundary_oracle(self):
        # Against the rotated linear field the interior term drops, so the
        # projected gradient moment must equal a pure boundary integral of
        # the trace, reconstructed edge by edge in this test.
        geom = PENTAGON
        k = 3
        lay = dof_layout(geom, k)
        proj = projector_set(geom, k)
        v = lambda x, y: np.exp(x) * (y + 0.3) ** 2
        d = interpolate_dofs(geom, k, v)
        cx = proj.Pi0GradX @ d
        cy = proj.Pi0GradY @ d
        nkm1 = n_poly(k - 1)
        Hm1 = proj.H[:nkm1, :nkm1]
        # p = (-m_{0,1}, m_{1,0}) is divergence free.
        lhs = -(Hm1 @ cx)[2] + (Hm1 @ cy)[1]
        t, w = np.polynomial.legendre.leggauss(k + 4)
        R = np.linalg.inv(_edge_vander(k))
        rhs = 0.0
        c0, h = geom.centroid, geom.diameter
        for e in range(5):
            a = geom.vertices[e]
            b = geom.vertices[(e + 1) % 5]
            pts = 0.5 * (a + b) + 0.5 * np.outer(t, b - a)
            vals = v(pts[:, 0], pts[:, 1])
            data = [v(*a), v(*b)] + [np.sum(w / 2 * vals * t ** j)
                                     for j in range(k - 1)]
            trace = np.vander(t, k + 1, increasing=True) @ (R @ np.array(data))
            nrm = geom.edge_normals[e]
            pn = (-(pts[:, 1] - c0[1]) / h * nrm[0]
                  + (pts[:, 0] - c0[0]) / h * nrm[1])
            rhs += np.sum(w * geom.edge_lengths[e] / 2 * trace * pn)
        assert abs(lhs - rhs) < 1e-12


class TestStabilization:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_annihilates_polynomial_dofs(self, k):
        for geom in CELLS[:5]:
            sys = local_system(geom, k, Coefficients.constant(kappa=1.0))
            S, proj = sys.S, projector_set(geom, k)
            scale = max(1.0, np.abs(S).max())
            assert np.abs(S @ proj.D).max() < 1e-11 * scale
            assert np.allclose(S, S.T)
            assert np.linalg.eigvalsh(S).min() > -1e-12 * scale

    def test_scales_with_kappa_trace(self):
        geom = PENTAGON
        S1 = local_system(geom, 2, Coefficients.constant(kappa=1.0)).S
        S5 = local_system(geom, 2, Coefficients.constant(kappa=5.0)).S
        assert np.allclose(S5, 5 * S1, atol=1e-13)

    def test_generalized_eigenvalues_against_bilinear_oracle(self):
        sys = local_system(UNIT_SQUARE, 1, Coefficients.constant(kappa=1.0))
        K = q1_stiffness()
        ones = np.ones(4) / 2
        Z = scipy.linalg.null_space(ones[None, :])
        eigs = scipy.linalg.eigh(Z.T @ sys.Ah @ Z, Z.T @ K @ Z,
                                 eigvals_only=True)
        assert np.allclose(np.sort(eigs), [1.0, 1.0, 1.5], atol=1e-12)
        assert eigs.min() > 0


class TestLocalSystem:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_constants_in_kernel(self, k):
        for geom in CELLS[:5]:
            sys = local_system(geom, k, Coefficients.constant(kappa=1.0))
            d1 = interpolate_dofs(geom, k, lambda x, y: np.ones_like(x))
            scale = max(1.0, np.abs(sys.Ah).max())
            assert np.abs(sys.Ah @ d1).max() < 1e-13 * scale

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_kernel_is_exactly_constants(self, k):
        geom = PENTAGON
        sys = local_system(geom, k, Coefficients.constant(kappa=1.0))
        eigs = np.linalg.eigvalsh(sys.Ah)
        assert abs(eigs[0]) < 1e-12
        assert eigs[1] > 1e-8

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_polynomial_consistency_constant_kappa(self, k):
        kap = np.array([[2.0, 0.3], [0.3, 1.5]])
        coeffs = Coefficients.constant(kappa=kap)
        for geom in (UNIT_SQUARE, PENTAGON, CELLS[4]):
            sys = local_system(geom, k, coeffs)
            proj = projector_set(geom, k)
            nkm1 = n_poly(k - 1)
            Hm1 = proj.H[:nkm1, :nkm1]
            Dx = derivative_table(k, 0) / geom.diameter
            Dy = derivative_table(k, 1) / geom.diameter
            exact = (kap[0, 0] * Dx.T @ Hm1 @ Dx + kap[0, 1] * Dx.T @ Hm1 @ Dy
                     + kap[1, 0] * Dy.T @ Hm1 @ Dx + kap[1, 1] * Dy.T @ Hm1 @ Dy)
            got = proj.D.T @ sys.Ah @ proj.D
            scale = max(1.0, np.abs(exact).max())
            assert np.abs(got - exact).max() < 1e-11 * scale

    def test_symmetry(self):
        coeffs = Coefficients.constant(kappa=2.0, gamma=0.7)
        sys = local_system(PENTAGON, 3, coeffs)
        assert np.allclose(sys.Ah, sys.Ah.T)
        assert np.allclose(sys.Ch, sys.Ch.T)

    def test_advection_sign_and_value(self):
        # With b=(1,0): trial constant 1 against test x gives -|E|.
        coeffs = Coefficients.constant(kappa=1.0, b=(1.0, 0.0))
        for k in (1, 2, 3):
            sys = local_system(UNIT_SQUARE, k, coeffs)
            d_one = interpolate_dofs(UNIT_SQUARE, k, lambda x, y: np.ones_like(x))
            d_x = interpolate_dofs(UNIT_SQUARE, k, lambda x, y: x)
            got = d_x @ sys.Bh @ d_one
            assert abs(got - (-1.0)) < 1e-12
            assert not np.allclose(sys.Bh, sys.Bh.T)

    def test_reaction_value(self):
        coeffs = Coefficients.constant(kappa=1.0, gamma=2.0)
        sys = local_system(UNIT_SQUARE, 2, coeffs)
        d_x = interpolate_dofs(UNIT_SQUARE, 2, lambda x, y: x)
        # 2 * int x^2 over the unit square.
        assert abs(d_x @ sys.Ch @ d_x - 2.0 / 3.0) < 1e-12

    def test_load_pairs_with_projection(self):
        coeffs = Coefficients.constant(kappa=1.0, f=1.0)
        for k in (1, 2, 4):
            sys = local_system(PENTAGON, k, coeffs)
            d_one = interpolate_dofs(PENTAGON, k, lambda x, y: np.ones_like(x))
            assert abs(d_one @ sys.f_loc - PENTAGON.area) < 1e-12

    def test_mode_validation(self):
        with pytest.raises(ValueError, match="mode"):
            local_system(UNIT_SQUARE, 1, Coefficients.constant(kappa=1.0),
                         mode="bogus")

    @pytest.mark.parametrize("coeffs", [None, Coefficients.constant()])
    def test_mesh_elements_rejects_unknown_mode(self, coeffs):
        # the mode is checked before any cell is built, with or without
        # coefficients
        with pytest.raises(ValueError, match="unknown mode 'bogus'"):
            list(mesh_elements(square_mesh(2), 2, coeffs, mode="bogus"))

    def test_k1_modes_coincide(self):
        # For k=1 the gradient of the energy projection and the projected
        # gradient agree, so both modes share one code path; this verifies
        # the underlying identity by computing the variant explicitly.
        coeffs = Coefficients.constant(kappa=1.3)
        for geom in CELLS[:5]:
            proj = projector_set(geom, 1)
            variant_x = (derivative_table(1, 0) / geom.diameter) @ proj.PiNabla
            variant_y = (derivative_table(1, 1) / geom.diameter) @ proj.PiNabla
            assert np.allclose(variant_x, proj.Pi0GradX, atol=1e-12)
            assert np.allclose(variant_y, proj.Pi0GradY, atol=1e-12)
            a = local_system(geom, 1, coeffs, mode="standard").Ah
            b = local_system(geom, 1, coeffs, mode="grad_pinabla").Ah
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_grad_pinabla_differs_for_higher_k(self, k):
        # On a generic polygon the projected gradient picks up a rotational
        # component that the gradient of the energy projection cannot see.
        coeffs = Coefficients.constant(kappa=1.0)
        a = local_system(PENTAGON, k, coeffs, mode="standard").Ah
        b = local_system(PENTAGON, k, coeffs, mode="grad_pinabla").Ah
        assert np.abs(a - b).max() > 1e-6 * np.abs(a).max()

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_grad_pinabla_polynomial_consistency_scalar_kappa(self, k):
        # With scalar kappa the variant is still exact on polynomials.
        coeffs = Coefficients.constant(kappa=2.0)
        geom = PENTAGON
        sys = local_system(geom, k, coeffs, mode="grad_pinabla")
        proj = projector_set(geom, k)
        nkm1 = n_poly(k - 1)
        Hm1 = proj.H[:nkm1, :nkm1]
        Dx = derivative_table(k, 0) / geom.diameter
        Dy = derivative_table(k, 1) / geom.diameter
        exact = 2.0 * (Dx.T @ Hm1 @ Dx + Dy.T @ Hm1 @ Dy)
        got = proj.D.T @ sys.Ah @ proj.D
        assert np.abs(got - exact).max() < 1e-11 * np.abs(exact).max()


class TestOneElementSolve:
    @pytest.mark.parametrize("k", [2, 3])
    def test_linear_solution_recovered_exactly(self, k):
        # Dirichlet data on the element boundary (vertex + edge DoFs) from a
        # harmonic linear function; internal DoFs come out exact.
        geom = UNIT_SQUARE
        lay = dof_layout(geom, k)
        coeffs = Coefficients.constant(kappa=1.0, f=0.0)
        sys = local_system(geom, k, coeffs)
        exact = lambda x, y: 2 * x + 3 * y - 1
        d = interpolate_dofs(geom, k, exact)
        n_bdry = lay.n_vertices * k
        A = sys.matrix
        interior = slice(n_bdry, lay.n_dofs)
        rhs = sys.f_loc[interior] - A[interior, :n_bdry] @ d[:n_bdry]
        u_int = np.linalg.solve(A[interior, interior], rhs)
        assert np.abs(u_int - d[interior]).max() < 1e-12


class TestElementKernel:
    PROJECTOR_FIELDS = ("PiNabla", "Pi0k", "Pi0km1", "Pi0GradX", "Pi0GradY",
                        "D", "H", "rule_values")

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("family", ["concave", "lloyd0", "lloyd100"])
    def test_stacked_cells_match_one_cell_calls(self, family, k):
        # every class representative (every lloyd cell) gets the bits of a
        # one-cell call, and every other member its representative's
        # projectors; members' forms are bounded in TestShapeClasses
        mesh = generate(GeneratorSpec(family, 36, seed=5))
        coeffs = builtin_problem().coefficients
        seen = []
        elements = list(mesh_elements(mesh, k, coeffs))
        for out, reps in zip(elements, entry_representatives(elements)):
            for i, (c, rep) in enumerate(zip(out.geometry.cells, reps)):
                geom = element_geometry(mesh, rep)
                ref = local_system(geom, k, coeffs)
                if rep == c:
                    for name in ("Ah", "Bh", "Ch", "S", "f_loc"):
                        assert np.array_equal(getattr(out.forms, name)[i],
                                              getattr(ref, name)), name
                ref_proj = projector_set(geom, k)
                for name in self.PROJECTOR_FIELDS:
                    assert np.array_equal(
                        getattr(out.projectors, name)[out.classes[i]],
                        getattr(ref_proj, name)), name
                assert np.array_equal(
                    out.triangles[i],
                    triangulate(element_geometry(mesh, c).vertices))
                seen.append(c)
        assert sorted(seen) == list(range(mesh.num_cells))

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("family", ["square", "concave", "lloyd0"])
    def test_one_cell_projectors_match_the_bank(self, family, k):
        # projector_set maps the rule of mesh_elements onto one cell: on
        # every shape-class representative it gives the bank's rows and
        # post-solve operator bit for bit
        mesh = generate(GeneratorSpec(family, 36, seed=5))
        elements = list(mesh_elements(mesh, k))
        for out, reps in zip(elements, entry_representatives(elements)):
            for i, (c, rep) in enumerate(zip(out.geometry.cells, reps)):
                if rep != c:
                    continue
                ps = projector_set(element_geometry(mesh, c), k)
                row = out.classes[i]
                for name in self.PROJECTOR_FIELDS:
                    assert np.array_equal(getattr(out.projectors, name)[row],
                                          getattr(ps, name)), (c, name)
                assert np.array_equal(
                    out.operators[row],
                    np.vstack([ps.Pi0k, ps.Pi0GradX, ps.Pi0GradY])), c

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("family", ["concave", "lloyd0"])
    def test_one_cell_calls_take_the_mesh_path(self, monkeypatch, family, k):
        # projector_set and local_system build no rule of their own: they
        # run the chunk loop of mesh_elements on a stack of one, so with
        # polygon_quadrature out of reach they still give the bank's bits
        # for the cell that leads the first chunk (a representative)
        def refused(*args):
            raise AssertionError("a one-cell call took polygon_quadrature")

        mesh = generate(GeneratorSpec(family, 36, seed=5))
        coeffs = builtin_problem().coefficients
        out = next(mesh_elements(mesh, k, coeffs))
        monkeypatch.setattr(local, "polygon_quadrature", refused)
        geom = element_geometry(mesh, out.geometry.cells[0])
        proj = projector_set(geom, k)
        for name in self.PROJECTOR_FIELDS:
            assert np.array_equal(
                getattr(out.projectors, name)[out.classes[0]],
                getattr(proj, name)), name
        forms = local_system(geom, k, coeffs)
        for name in ("Ah", "Bh", "Ch", "S", "f_loc"):
            assert np.array_equal(getattr(out.forms, name)[0],
                                  getattr(forms, name)), name

    @pytest.mark.parametrize("mode", ["standard", "grad_pinabla"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("family", ["concave", "lloyd0"])
    def test_kernel_matches_per_cell_oracle(self, family, k, mode):
        # the stacked kernel keeps the bits of the one-cell construction,
        # from geometry and quadrature to the local forms, on every class
        # representative (every lloyd0 cell); every other member of a class
        # carries its representative's projectors
        mesh = generate(GeneratorSpec(family, 36, seed=5))
        coeffs = builtin_problem().coefficients
        seen, own = [], []
        elements = list(mesh_elements(mesh, k, coeffs, mode))
        for out, reps in zip(elements, entry_representatives(elements)):
            for i, (c, rep) in enumerate(zip(out.geometry.cells, reps)):
                geom = element_geometry_per_cell(mesh, c)
                got = take(out.geometry, i)
                for name in ("vertices", "area", "centroid", "diameter",
                             "edge_lengths", "edge_normals", "edge_forward"):
                    assert np.array_equal(getattr(got, name),
                                          getattr(geom, name)), (c, name)
                ref = local_system_per_cell(
                    element_geometry_per_cell(mesh, rep), k, coeffs, mode)
                # the kernel keeps neither the energy system matrix G nor
                # its right-hand side B
                del ref["G"], ref["B"]
                for name, value in ref.items():
                    if name in self.PROJECTOR_FIELDS:
                        got = getattr(out.projectors, name)[out.classes[i]]
                    elif rep == c:
                        got = getattr(out.forms, name)[i]
                    else:
                        continue
                    assert np.array_equal(got, value), (c, name)
                seen.append(c)
                own.append(rep == c)
        assert sorted(seen) == list(range(mesh.num_cells))
        if family == "lloyd0":
            # every lloyd0 cell is its own representative
            assert all(own)

    @pytest.mark.parametrize("mode", ["standard", "grad_pinabla"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("family", ["square", "concave", "lloyd0"])
    def test_forms_match_point_tables(self, family, k, mode):
        # the Gram sandwich changes the order of the forms' arithmetic, not
        # their value: from the kernel's own projectors and rule, tables of
        # the projected basis functions on the quadrature points give every
        # cell's forms to 1e-12 of the array's max-norm
        mesh = generate(GeneratorSpec(family, 100, seed=0))
        coeffs = builtin_problem().coefficients
        fields = ("PiNabla", "Pi0km1", "Pi0GradX", "Pi0GradY", "D",
                  "rule_values")
        seen = 0
        for out in mesh_elements(mesh, k, coeffs, mode):
            points, weights = map_rule(out.triangles, rule_degree(k))
            for i in range(len(out.geometry)):
                ref = local_forms_point_tables(
                    take(out.geometry, i), k,
                    {f: getattr(out.projectors, f)[out.classes[i]]
                     for f in fields},
                    points[i], weights[i], coeffs, mode)
                for name, value in ref.items():
                    got = getattr(out.forms, name)[i]
                    scale = np.abs(value).max()
                    assert np.abs(got - value).max() <= 1e-12 * scale, (
                        out.geometry.cells[i], name)
                seen += 1
        assert seen == mesh.num_cells

    @pytest.mark.parametrize("kappa, what", [
        ([[1.0, 0.5], [0.0, 1.0]], "symmetric"),
        ([[1.0, 2.0], [2.0, 1.0]], "positive definite"),
        ([[-1.0, 0.0], [0.0, -1.0]], "positive definite"),
    ])
    def test_kappa_must_be_spd(self, kappa, what):
        kap = np.array(kappa)
        coeffs = Coefficients(kappa=lambda x, y: kap,
                              b=lambda x, y: np.zeros(2),
                              gamma=lambda x, y: np.zeros(np.shape(x)),
                              f=lambda x, y: np.zeros(np.shape(x)))
        with pytest.raises(ValueError, match=f"element: kappa is not {what}"):
            local_system(PENTAGON, 2, coeffs)


class TestShapeClasses:
    FIELDS = TestElementKernel.PROJECTOR_FIELDS

    @staticmethod
    def _part_classes(geometry):
        # the stack's classes within each triangle-count part, as
        # (representatives, class of every row), numbered within the part,
        # checked against the per-part construction keyed on the triangles
        rep_of = shape_classes(geometry)
        out = []
        for rows, tris in triangulate_stack(geometry, rep_of):
            reps, classes = np.unique(rep_of[rows], return_inverse=True)
            reps = np.searchsorted(rows, reps)
            ref = shape_classes_per_part(take(geometry, rows), tris)
            assert np.array_equal(reps, ref[0])
            assert np.array_equal(classes, ref[1])
            out.append((reps, classes))
        return out

    @classmethod
    def _classes(cls, mesh):
        return [part for geometry in geometry_stacks(mesh)
                for part in cls._part_classes(geometry)]

    @classmethod
    def _stack_classes(cls, *rings, flipped=None):
        coords = np.array(rings, dtype=float)
        forward = np.ones(coords.shape[:2], dtype=bool)
        if flipped is not None:
            forward[flipped] = False
        geometry = stack_geometry(coords, forward, np.arange(len(coords)))
        (part,) = cls._part_classes(geometry)
        return part

    @pytest.mark.parametrize("family, counts", [
        ("square", [1]), ("concave", [5])])
    @pytest.mark.parametrize("size", [36, 900])
    def test_lattice_families_have_few_classes(self, family, counts, size):
        # the two concave shapes come with several edge_forward patterns
        classes = self._classes(generate(GeneratorSpec(family, size)))
        assert [len(reps) for reps, _ in classes] == counts

    @pytest.mark.parametrize("family", ["lloyd0", "lloyd100"])
    @pytest.mark.parametrize("size", [100, 1600])
    def test_voronoi_cells_are_singletons(self, family, size):
        mesh = generate(GeneratorSpec(family, size, seed=0))
        for reps, classes in self._classes(mesh):
            n = len(classes)
            assert np.array_equal(reps, np.arange(n))
            assert np.array_equal(classes, np.arange(n))

    def test_translates_share_a_class(self):
        base = PENTAGON.vertices
        reps, classes = self._stack_classes(base, base + [0.3, 0.7],
                                            base + [-5.1, 2.9])
        assert reps.tolist() == [0] and classes.tolist() == [0, 0, 0]

    def test_near_copies_do_not_merge(self):
        # a copy perturbed by 1e-10 of its diameter shares the rounded key
        # of the others, but the explicit check keeps it out of their class
        base = PENTAGON.vertices
        moved = base + [0.3, 0.7]
        moved[2, 0] += 1e-10 * PENTAGON.diameter
        reps, classes = self._stack_classes(base, base + [0.3, 0.7], moved)
        assert reps.tolist() == [0, 2] and classes.tolist() == [0, 0, 1]

    def test_mirrored_copy_does_not_merge(self):
        base = PENTAGON.vertices
        mirrored = (base * [-1.0, 1.0])[::-1] + [3.0, 0.0]
        assert polygon_geometry(mirrored).area == pytest.approx(PENTAGON.area)
        reps, classes = self._stack_classes(base, mirrored)
        assert reps.tolist() == [0, 1] and classes.tolist() == [0, 1]

    def test_flipped_edge_does_not_merge(self):
        # a flipped edge changes the sign of its odd edge moments
        base = PENTAGON.vertices
        reps, classes = self._stack_classes(base, base + [0.3, 0.7],
                                            flipped=(1, 2))
        assert reps.tolist() == [0, 1] and classes.tolist() == [0, 1]

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_stack_of_classes_and_singletons(self, k):
        # one interior vertex of a 4 x 4 square mesh moved: its 4 cells
        # are classes of their own, next to the class of the 12 others;
        # the patch test stays exact and the singletons keep their bits
        base = square_mesh(4)
        vertices = base.vertices.copy()
        moved = int(np.flatnonzero((np.abs(vertices - 0.5) < 1e-12)
                                   .all(axis=1))[0])
        vertices[moved] += [0.03, -0.02]
        mesh = make_mesh(vertices, cell_rings(base))
        ((reps, classes),) = self._classes(mesh)
        singletons = [c for c in range(16) if moved in mesh.ring(c)]
        assert len(reps) == 1 + len(singletons) == 5
        assert all(np.sum(classes == classes[c]) == 1 for c in singletons)
        coeffs = builtin_problem().coefficients
        for out in mesh_elements(mesh, k, coeffs):
            for i, c in enumerate(out.geometry.cells):
                if c in singletons:
                    ref = local_system(element_geometry(mesh, c), k, coeffs)
                    assert np.array_equal(out.forms.Ah[i], ref.Ah)
        prob = polynomial_problem(k)
        system = assemble(mesh, k, prob.coefficients)
        apply_dirichlet(system, prob.p_ex)
        u = solve(system)
        assert np.abs(u - interpolate(mesh, k, prob.p_ex)).max() <= 1e-10

    @pytest.mark.parametrize("mode", ["standard", "grad_pinabla"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("family", ["square", "concave"])
    def test_members_near_their_own_oracle(self, family, k, mode):
        # a class member takes its representative's projectors, computed
        # from coordinates that differ from its own in the last bits: its
        # projectors and forms stay within 1e-12 of each array's max-norm
        # of its own one-cell construction (at most 9.6e-14 measured, on
        # concave k = 4)
        mesh = generate(GeneratorSpec(family, 36, seed=5))
        coeffs = builtin_problem().coefficients
        members = 0
        elements = list(mesh_elements(mesh, k, coeffs, mode))
        for out, reps in zip(elements, entry_representatives(elements)):
            for i, (c, rep) in enumerate(zip(out.geometry.cells, reps)):
                if rep == c:
                    continue
                ref = local_system_per_cell(
                    element_geometry_per_cell(mesh, c), k, coeffs, mode)
                del ref["G"], ref["B"]
                for name, value in ref.items():
                    got = (getattr(out.projectors, name)[out.classes[i]]
                           if name in self.FIELDS
                           else getattr(out.forms, name)[i])
                    assert (np.abs(got - value).max()
                            <= 1e-12 * np.abs(value).max()), (c, name)
                members += 1
        assert members == mesh.num_cells - (1 if family == "square" else 5)


class TestChunkEstimate:
    CELLS = 16

    @staticmethod
    def _singletons(stack, k, tris, rule, coeffs):
        # one stacked call of the element arithmetic, each cell a shape
        # class of its own
        projectors = _projectors(stack, k, rule)
        out = ElementStack(k=k, geometry=stack, triangles=tris,
                           classes=np.arange(len(stack)),
                           projectors=projectors)
        out.forms = _local_forms(out, rule, coeffs, _form_tables(
            stack, projectors, "standard"))

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("family", ["concave", "lloyd0"])
    def test_cell_bytes_bounds_the_kernel_peak(self, family, k):
        # mesh_elements sizes its chunks by cell_bytes: per cell it must
        # cover the peak of what one stacked call allocates, within a
        # factor of two (the count of point tables the kernel no longer
        # builds was 2.5 times the peak at k = 2 and k = 4)
        mesh = generate(GeneratorSpec(family, 100, seed=0))
        coeffs = builtin_problem().coefficients
        degree = rule_degree(k)
        checked = 0
        for geometry in geometry_stacks(mesh):
            for rows, tris in triangulate_stack(geometry):
                if rows.size < self.CELLS:
                    continue
                stack = take(geometry, rows[:self.CELLS])
                tris = tris[:self.CELLS]
                rule = QuadratureRule(*map_rule(tris, degree))
                self._singletons(stack, k, tris, rule, coeffs)  # fill the caches
                tracing = tracemalloc.is_tracing()
                tracemalloc.start()
                try:
                    base = tracemalloc.get_traced_memory()[0]
                    tracemalloc.reset_peak()
                    self._singletons(stack, k, tris, rule, coeffs)
                    peak = (tracemalloc.get_traced_memory()[1] - base) / self.CELLS
                finally:
                    if not tracing:
                        tracemalloc.stop()
                estimate = cell_bytes(geometry.vertices.shape[1],
                                      rule.weights.shape[1], k)
                assert peak <= estimate <= 2 * peak, (rows.size, peak, estimate)
                checked += 1
        assert checked
