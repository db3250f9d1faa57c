"""Global DoF numbering, sparse assembly, boundary elimination, and solves."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from vemlab.assembly import (DofMap, SolveError, SparseSystem, apply_dirichlet,
                             assemble, build_dofmap, interpolate, solve)
from vemlab.basis import n_poly
from vemlab.local import Coefficients, dof_layout, interpolate_dofs
from vemlab.mesh import element_geometry
from vemlab.meshgen import GeneratorSpec, concave_mesh, generate, square_mesh
from vemlab.problems import polynomial_problem

KAPPA = np.array([[2.0, 0.5], [0.5, 1.5]])


def _mesh_bank():
    return {
        "square": square_mesh(3),
        "concave": concave_mesh(3),
        "lloyd0": generate(GeneratorSpec("lloyd0", 25, seed=7)),
        "lloyd100": generate(GeneratorSpec("lloyd100", 25, seed=3)),
    }


MESHES = _mesh_bank()


class TestDofMap:
    def test_counts_5x5(self):
        mesh = square_mesh(5)
        dm1 = build_dofmap(mesh, 1)
        assert dm1.n_dofs == 36
        assert dm1.boundary_dofs.size == 20
        assert dm1.interior_dofs.size == 16
        dm2 = build_dofmap(mesh, 2)
        assert dm2.n_dofs == 121

    def test_counts_general(self):
        mesh = MESHES["lloyd0"]
        for k in range(1, 5):
            dm = build_dofmap(mesh, k)
            expect = (mesh.num_vertices + mesh.num_edges * (k - 1)
                      + mesh.num_cells * n_poly(k - 2) * (k >= 2))
            assert dm.n_dofs == expect
            assert dm.n_dofs == dm.interior_dofs.size + dm.boundary_dofs.size
            # partition really is a partition
            assert np.intersect1d(dm.interior_dofs, dm.boundary_dofs).size == 0

    def test_cell_dofs_match_local_layout(self):
        mesh = MESHES["lloyd0"]
        k = 3
        dm = build_dofmap(mesh, k)
        for c in range(mesh.num_cells):
            ring = mesh.cells[c]
            geom = element_geometry(mesh, c)
            layout = dof_layout(geom, k)
            g = dm.cell_dofs[c]
            assert g.size == layout.n_dofs
            assert np.array_equal(g[:len(ring)], ring)
            for le, e in enumerate(mesh.cell_edges[c]):
                for j in range(k - 1):
                    assert (g[layout.edge_slot(le, j)]
                            == dm.n_vertex_dofs + e * (k - 1) + j)
            tail = g[len(ring) * k:]
            assert np.array_equal(tail, np.arange(tail[0], tail[0] + tail.size))

    def test_boundary_dofs(self):
        mesh = square_mesh(2)
        dm = build_dofmap(mesh, 2)
        # 8 boundary vertices + 8 boundary-edge moments
        assert dm.boundary_dofs.size == 16
        assert dm.interior_dofs.size == 9

    def test_rejects_k0(self):
        with pytest.raises(ValueError):
            build_dofmap(square_mesh(2), 0)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_shared_dofs_interpolate_consistently(self, k):
        mesh = generate(GeneratorSpec("lloyd0", 16, seed=11))
        dm = build_dofmap(mesh, k)
        seen = {}
        v = lambda x, y: np.sin(1.3 * x + 0.4) * np.cosh(y - 0.2)
        for c in range(mesh.num_cells):
            vals = interpolate_dofs(element_geometry(mesh, c), k, v)
            for slot, val in zip(dm.cell_dofs[c], vals):
                if slot in seen:
                    assert val == seen[slot]
                else:
                    seen[slot] = val
        assert len(seen) == dm.n_dofs


class TestAssemble:
    def test_symmetric_without_advection(self):
        coeffs = Coefficients.constant(kappa=1.0)
        system = assemble(MESHES["lloyd0"], 2, coeffs)
        diff = system.matrix - system.matrix.T
        assert abs(diff).max() <= 1e-12

    def test_row_sums_vanish_k1(self):
        coeffs = Coefficients.constant(kappa=2.5)
        system = assemble(MESHES["lloyd0"], 1, coeffs)
        ones_i = np.ones(system.matrix.shape[0])
        ones_b = np.ones(system.coupling.shape[1])
        row_sums = system.matrix @ ones_i + system.coupling @ ones_b
        scale = abs(system.matrix).max()
        assert np.max(np.abs(row_sums)) <= 1e-12 * scale

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_constants_in_kernel(self, k):
        coeffs = Coefficients.constant(kappa=KAPPA)
        mesh = MESHES["lloyd0"]
        dm = build_dofmap(mesh, k)
        system = assemble(mesh, k, coeffs, dofmap=dm)
        d = interpolate(mesh, k, lambda x, y: np.ones(np.shape(x)), dofmap=dm)
        resid = (system.matrix @ d[dm.interior_dofs]
                 + system.coupling @ d[dm.boundary_dofs])
        scale = abs(system.matrix).max()
        assert np.max(np.abs(resid)) <= 1e-12 * scale

    def test_nonzero_pattern_is_local(self):
        mesh = MESHES["lloyd0"]
        k = 2
        dm = build_dofmap(mesh, k)
        system = assemble(mesh, k, Coefficients.constant(kappa=1.0), dofmap=dm)
        cells_of = [set() for _ in range(dm.n_dofs)]
        for c, g in enumerate(dm.cell_dofs):
            for slot in g:
                cells_of[slot].add(c)
        coo = system.matrix.tocoo()
        ii = dm.interior_dofs
        for r, c in zip(coo.row, coo.col):
            assert cells_of[ii[r]] & cells_of[ii[c]]

    def test_deterministic(self):
        mesh = MESHES["lloyd0"]
        coeffs = Coefficients.constant(kappa=KAPPA, b=(0.4, -0.2), gamma=0.3,
                                       f=1.0)
        runs = [assemble(mesh, 2, coeffs) for _ in range(3)]
        ref = runs[0]
        ref.matrix.sort_indices()
        for other in runs[1:]:
            other.matrix.sort_indices()
            assert np.array_equal(ref.matrix.data, other.matrix.data)
            assert np.array_equal(ref.matrix.indices, other.matrix.indices)
            assert np.array_equal(ref.matrix.indptr, other.matrix.indptr)
            assert np.array_equal(ref.rhs_base, other.rhs_base)

    def test_rhs_linear_in_source(self):
        mesh = square_mesh(3)
        f1 = lambda x, y: np.sin(2 * x) + y
        f2 = lambda x, y: x * y ** 2 - 0.5
        base = Coefficients.constant(kappa=1.0)
        rhs = []
        for f in (f1, f2, lambda x, y: f1(x, y) + 2 * f2(x, y)):
            system = assemble(mesh, 2, dataclasses.replace(base, f=f))
            rhs.append(system.rhs_base)
        np.testing.assert_allclose(rhs[2], rhs[0] + 2 * rhs[1],
                                   rtol=1e-13, atol=1e-15)

    def test_dofmap_dimension_mismatch(self):
        mesh = square_mesh(2)
        with pytest.raises(ValueError, match="DoF map"):
            assemble(mesh, 2, Coefficients.constant(kappa=1.0),
                     dofmap=build_dofmap(mesh, 1))


class TestDirichlet:
    def test_zero_data_keeps_rhs(self):
        mesh = MESHES["concave"]
        coeffs = Coefficients.constant(kappa=1.0, f=1.0)
        system = assemble(mesh, 3, coeffs)
        before = system.rhs.copy()
        apply_dirichlet(system, lambda x, y: np.zeros(np.shape(x)), mesh, 3)
        assert np.array_equal(system.rhs, before)
        assert not system.lifting.any()

    def test_reapply_restores_base(self):
        mesh = square_mesh(3)
        coeffs = Coefficients.constant(kappa=1.0, f=1.0)
        system = assemble(mesh, 2, coeffs)
        apply_dirichlet(system, lambda x, y: x + y ** 2, mesh, 2)
        assert not np.array_equal(system.rhs, system.rhs_base)
        apply_dirichlet(system, 0.0, mesh, 2)
        assert np.array_equal(system.rhs, system.rhs_base)

    def test_degree_mismatch_raises(self):
        mesh = square_mesh(2)
        system = assemble(mesh, 2, Coefficients.constant(kappa=1.0))
        with pytest.raises(ValueError, match="k=2"):
            apply_dirichlet(system, 0.0, mesh, 3)

    def test_constant_data_matches_interpolant(self):
        mesh = MESHES["lloyd0"]
        k = 3
        system = assemble(mesh, k, Coefficients.constant(kappa=1.0))
        apply_dirichlet(system, 2.0, mesh, k)
        d = interpolate(mesh, k, lambda x, y: np.full(np.shape(x), 2.0))
        bb = system.dofmap.boundary_dofs
        np.testing.assert_allclose(system.lifting[bb], d[bb],
                                   rtol=0, atol=1e-14)

    def test_constant_solution_reproduced(self):
        # g = 2 with f = gamma * 2 and no advection keeps the constant.
        mesh = MESHES["lloyd0"]
        k = 2
        gamma = 0.7
        coeffs = Coefficients.constant(kappa=KAPPA, gamma=gamma, f=2 * gamma)
        system = assemble(mesh, k, coeffs)
        apply_dirichlet(system, 2.0, mesh, k)
        u = solve(system)
        d = interpolate(mesh, k, lambda x, y: np.full(np.shape(x), 2.0))
        assert np.max(np.abs(u - d)) <= 1e-10


class TestSolve:
    @pytest.mark.parametrize("family", sorted(MESHES))
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_polynomial_patch(self, family, k):
        mesh = MESHES[family]
        prob = polynomial_problem(k, kappa=KAPPA)
        system = assemble(mesh, k, prob.coefficients)
        apply_dirichlet(system, prob.p_ex, mesh, k)
        u = solve(system)
        d = interpolate(mesh, k, prob.p_ex)
        assert np.max(np.abs(u - d)) <= 1e-10

    @pytest.mark.parametrize("k", [1, 3])
    def test_linear_patch_tight(self, k):
        mesh = MESHES["lloyd0"]
        p = lambda x, y: x
        system = assemble(mesh, k, Coefficients.constant(kappa=1.0))
        apply_dirichlet(system, p, mesh, k)
        u = solve(system)
        d = interpolate(mesh, k, p)
        assert np.max(np.abs(u - d)) <= 1e-11

    def test_affine_patch_corner_value(self):
        mesh = square_mesh(4)
        p = lambda x, y: 1 + x + y
        system = assemble(mesh, 1, Coefficients.constant(kappa=1.0))
        apply_dirichlet(system, p, mesh, 1)
        u = solve(system)
        corner = np.flatnonzero((mesh.vertices[:, 0] == 1.0)
                                & (mesh.vertices[:, 1] == 1.0))[0]
        assert abs(u[corner] - 3.0) <= 1e-11

    def test_single_cell_all_boundary(self):
        mesh = square_mesh(1)
        system = assemble(mesh, 1, Coefficients.constant(kappa=1.0))
        assert system.matrix.shape == (0, 0)
        g = lambda x, y: x + y
        apply_dirichlet(system, g, mesh, 1)
        u = solve(system)
        np.testing.assert_array_equal(
            u, g(mesh.vertices[:, 0], mesh.vertices[:, 1]))

    def test_single_cell_k2_patch(self):
        mesh = square_mesh(1)
        p = lambda x, y: x * y
        system = assemble(mesh, 2, Coefficients.constant(kappa=1.0))
        assert system.matrix.shape == (1, 1)
        apply_dirichlet(system, p, mesh, 2)
        u = solve(system)
        d = interpolate(mesh, 2, p)
        assert np.max(np.abs(u - d)) <= 1e-11

    def test_singular_matrix_raises(self):
        mesh = square_mesh(2)
        dm = build_dofmap(mesh, 1)
        n_i, n_b = dm.interior_dofs.size, dm.boundary_dofs.size
        bad = SparseSystem(matrix=sp.csr_matrix((n_i, n_i)),
                           rhs=np.ones(n_i),
                           lifting=np.zeros(dm.n_dofs),
                           dofmap=dm,
                           coupling=sp.csr_matrix((n_i, n_b)),
                           rhs_base=np.ones(n_i))
        with pytest.raises(SolveError, match="stability"):
            solve(bad)

    def test_solution_unaffected_by_quad_boost(self):
        # Patch solves are exact for any admissible quadrature order.
        mesh = MESHES["concave"]
        prob = polynomial_problem(2, kappa=KAPPA)
        for boost in (2, 4):
            system = assemble(mesh, 2, prob.coefficients, quad_boost=boost)
            apply_dirichlet(system, prob.p_ex, mesh, 2)
            u = solve(system)
            d = interpolate(mesh, 2, prob.p_ex)
            assert np.max(np.abs(u - d)) <= 1e-10
