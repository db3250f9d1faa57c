"""Element-local projectors, stabilization, and discrete forms."""

import numpy as np
import pytest
import scipy.linalg

from vemlab import kernels
from vemlab.basis import (ScaledMonomialBasis, edge_quadrature, n_poly,
                          poly_eval, polygon_quadrature)
from vemlab.local import (Coefficients, dof_layout, interpolate_dofs,
                          local_system, projector_set)
from vemlab.mesh import element_geometry, polygon_geometry
from vemlab.meshgen import GeneratorSpec, concave_mesh, voronoi_mesh

from oracles import q1_stiffness, subdivision_integrate

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
        assert lay.internal_slot(0) == 12
        assert lay.n_dofs == 15

    def test_rejects_degree_zero(self):
        with pytest.raises(ValueError):
            dof_layout(UNIT_SQUARE, 0)


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
            assert abs(d[lay.internal_slot(0)] - 1.0) < 1e-14
        if k >= 3:
            # Centered linear monomials integrate to zero over the cell.
            assert abs(d[lay.internal_slot(1)]) < 1e-14
            assert abs(d[lay.internal_slot(2)]) < 1e-14

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_monomials_reproduce_dof_table(self, k):
        for geom in CELLS[:4]:
            proj = projector_set(geom, k)
            basis = proj.basis
            for col, (ax, ay) in enumerate(basis.exponents):
                d = interpolate_dofs(
                    geom, k,
                    lambda x, y, ax=ax, ay=ay:
                    ((x - geom.centroid[0]) / geom.diameter) ** ax
                    * ((y - geom.centroid[1]) / geom.diameter) ** ay)
                assert np.allclose(d, proj.D[:, col], atol=1e-13)

    def test_internal_moment_against_subdivision_oracle(self):
        geom = UNIT_SQUARE
        lay = dof_layout(geom, 2)

        def v(x, y):
            return np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y)

        d = interpolate_dofs(geom, 2, v, exactness=30)
        exact = subdivision_integrate(v, geom.vertices, tol=1e-14) / geom.area
        assert abs(d[lay.internal_slot(0)] - exact) < 1e-10


class TestPiNabla:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_idempotent_on_polynomials(self, k):
        for geom in CELLS:
            proj = projector_set(geom, k)
            err = np.abs(proj.PiNabla @ proj.D - np.eye(proj.basis.dim)).max()
            assert err < 1e-11

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_g_equals_b_times_d(self, k):
        for geom in CELLS:
            proj = projector_set(geom, k)
            scale = np.abs(proj.G).max()
            assert np.abs(proj.G - proj.B @ proj.D).max() < 1e-12 * scale

    def test_hat_function_on_unit_square(self):
        pin = projector_set(UNIT_SQUARE, 1).PiNabla
        coeffs = pin @ np.array([1.0, 0.0, 0.0, 0.0])
        basis = ScaledMonomialBasis(UNIT_SQUARE, 1)
        pts = np.random.default_rng(3).random((12, 2))
        got = basis.eval(pts) @ coeffs
        expect = 0.75 - pts[:, 0] / 2 - pts[:, 1] / 2
        assert np.allclose(got, expect, atol=1e-13)

    def test_energy_norm_preserved_on_polynomials(self):
        # Idempotence makes the projected gradient energy match exactly.
        geom = PENTAGON
        k = 3
        proj = projector_set(geom, k)
        basis = proj.basis
        Hm1 = proj.H[:n_poly(k - 1), :n_poly(k - 1)]
        Dx, Dy = basis.derivative_map(0), basis.derivative_map(1)
        rng = np.random.default_rng(11)
        c = rng.standard_normal(basis.dim)
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
                                * (proj.basis.eval(rule.points) @ coeffs))
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
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("which", [6, 5], ids=["concave_octagon", "voronoi"])
    def test_projector_set_makes_at_most_three_table_calls(self, k, which,
                                                           monkeypatch):
        # Each element's monomial tables come from a few stacked
        # evaluations, not one call per edge and use.
        calls = []

        def counted(fn):
            def wrapper(*args):
                calls.append(fn.__name__)
                return fn(*args)
            return wrapper

        for name in ("monomial_vandermonde", "monomial_vandermonde_grad"):
            monkeypatch.setattr(kernels, name, counted(getattr(kernels, name)))
        geom = CELLS[which]
        assert geom.vertices.shape[0] >= 7
        projector_set(geom, k)
        assert 0 < len(calls) <= 3


class TestPi0:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_idempotent_on_polynomials(self, k):
        for geom in CELLS:
            proj = projector_set(geom, k)
            nk = proj.basis.dim
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
        assert abs(moment - d[lay.internal_slot(0)]) < 1e-12

    def test_moment_substitution_reproduces_pi0k(self):
        # Pi0k solves H c = mu: exact moments up to degree k-2, energy
        # projected moments above.
        geom = HEXAGON
        k = 3
        proj = projector_set(geom, k)
        nkm2 = n_poly(k - 2)
        mu = np.zeros_like(proj.B)
        mu[:nkm2, proj.layout.internal_slot(0):] = geom.area * np.eye(nkm2)
        mu[nkm2:] = proj.H[nkm2:] @ proj.PiNabla
        via_moments = np.linalg.solve(proj.H, mu)
        assert np.allclose(via_moments, proj.Pi0k, atol=1e-14)


class TestPi0Grad:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_exact_gradients_of_polynomials(self, k):
        for geom in CELLS:
            proj = projector_set(geom, k)
            Dx = proj.basis.derivative_map(0)
            Dy = proj.basis.derivative_map(1)
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
            sys = local_system(geom, k, None, Coefficients.constant(kappa=1.0))
            S, proj = sys.S, sys.projectors
            scale = max(1.0, np.abs(S).max())
            assert np.abs(S @ proj.D).max() < 1e-11 * scale
            assert np.allclose(S, S.T)
            assert np.linalg.eigvalsh(S).min() > -1e-12 * scale

    def test_scales_with_kappa_trace(self):
        geom = PENTAGON
        S1 = local_system(geom, 2, None, Coefficients.constant(kappa=1.0)).S
        S5 = local_system(geom, 2, None, Coefficients.constant(kappa=5.0)).S
        assert np.allclose(S5, 5 * S1, atol=1e-13)

    def test_generalized_eigenvalues_against_bilinear_oracle(self):
        sys = local_system(UNIT_SQUARE, 1, None,
                           Coefficients.constant(kappa=1.0))
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
            sys = local_system(geom, k, None, Coefficients.constant(kappa=1.0))
            d1 = interpolate_dofs(geom, k, lambda x, y: np.ones_like(x))
            scale = max(1.0, np.abs(sys.Ah).max())
            assert np.abs(sys.Ah @ d1).max() < 1e-13 * scale

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_kernel_is_exactly_constants(self, k):
        geom = PENTAGON
        sys = local_system(geom, k, None, Coefficients.constant(kappa=1.0))
        eigs = np.linalg.eigvalsh(sys.Ah)
        assert abs(eigs[0]) < 1e-12
        assert eigs[1] > 1e-8

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_polynomial_consistency_constant_kappa(self, k):
        kap = np.array([[2.0, 0.3], [0.3, 1.5]])
        coeffs = Coefficients.constant(kappa=kap)
        for geom in (UNIT_SQUARE, PENTAGON, CELLS[4]):
            sys = local_system(geom, k, None, coeffs)
            proj = sys.projectors
            nkm1 = n_poly(k - 1)
            Hm1 = proj.H[:nkm1, :nkm1]
            Dx = proj.basis.derivative_map(0)
            Dy = proj.basis.derivative_map(1)
            exact = (kap[0, 0] * Dx.T @ Hm1 @ Dx + kap[0, 1] * Dx.T @ Hm1 @ Dy
                     + kap[1, 0] * Dy.T @ Hm1 @ Dx + kap[1, 1] * Dy.T @ Hm1 @ Dy)
            got = proj.D.T @ sys.Ah @ proj.D
            scale = max(1.0, np.abs(exact).max())
            assert np.abs(got - exact).max() < 1e-11 * scale

    def test_symmetry(self):
        coeffs = Coefficients.constant(kappa=2.0, gamma=0.7)
        sys = local_system(PENTAGON, 3, None, coeffs)
        assert np.allclose(sys.Ah, sys.Ah.T)
        assert np.allclose(sys.Ch, sys.Ch.T)

    def test_advection_sign_and_value(self):
        # With b=(1,0): trial constant 1 against test x gives -|E|.
        coeffs = Coefficients.constant(kappa=1.0, b=(1.0, 0.0))
        for k in (1, 2, 3):
            sys = local_system(UNIT_SQUARE, k, None, coeffs)
            d_one = interpolate_dofs(UNIT_SQUARE, k, lambda x, y: np.ones_like(x))
            d_x = interpolate_dofs(UNIT_SQUARE, k, lambda x, y: x)
            got = d_x @ sys.Bh @ d_one
            assert abs(got - (-1.0)) < 1e-12
            assert not np.allclose(sys.Bh, sys.Bh.T)

    def test_reaction_value(self):
        coeffs = Coefficients.constant(kappa=1.0, gamma=2.0)
        sys = local_system(UNIT_SQUARE, 2, None, coeffs)
        d_x = interpolate_dofs(UNIT_SQUARE, 2, lambda x, y: x)
        # 2 * int x^2 over the unit square.
        assert abs(d_x @ sys.Ch @ d_x - 2.0 / 3.0) < 1e-12

    def test_load_pairs_with_projection(self):
        coeffs = Coefficients.constant(kappa=1.0, f=1.0)
        for k in (1, 2, 4):
            sys = local_system(PENTAGON, k, None, coeffs)
            d_one = interpolate_dofs(PENTAGON, k, lambda x, y: np.ones_like(x))
            assert abs(d_one @ sys.f_loc - PENTAGON.area) < 1e-12

    def test_mode_validation(self):
        with pytest.raises(ValueError, match="mode"):
            local_system(UNIT_SQUARE, 1, None,
                         Coefficients.constant(kappa=1.0), mode="bogus")

    def test_k1_modes_coincide(self):
        # For k=1 the gradient of the energy projection and the projected
        # gradient agree, so both modes share one code path; this verifies
        # the underlying identity by computing the variant explicitly.
        coeffs = Coefficients.constant(kappa=1.3)
        for geom in CELLS[:5]:
            proj = projector_set(geom, 1)
            variant_x = proj.basis.derivative_map(0) @ proj.PiNabla
            variant_y = proj.basis.derivative_map(1) @ proj.PiNabla
            assert np.allclose(variant_x, proj.Pi0GradX, atol=1e-12)
            assert np.allclose(variant_y, proj.Pi0GradY, atol=1e-12)
            a = local_system(geom, 1, None, coeffs, mode="standard").Ah
            b = local_system(geom, 1, None, coeffs, mode="grad_pinabla").Ah
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_grad_pinabla_differs_for_higher_k(self, k):
        # On a generic polygon the projected gradient picks up a rotational
        # component that the gradient of the energy projection cannot see.
        coeffs = Coefficients.constant(kappa=1.0)
        a = local_system(PENTAGON, k, None, coeffs, mode="standard").Ah
        b = local_system(PENTAGON, k, None, coeffs, mode="grad_pinabla").Ah
        assert np.abs(a - b).max() > 1e-6 * np.abs(a).max()

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_grad_pinabla_polynomial_consistency_scalar_kappa(self, k):
        # With scalar kappa the variant is still exact on polynomials.
        coeffs = Coefficients.constant(kappa=2.0)
        geom = PENTAGON
        sys = local_system(geom, k, None, coeffs, mode="grad_pinabla")
        proj = sys.projectors
        nkm1 = n_poly(k - 1)
        Hm1 = proj.H[:nkm1, :nkm1]
        Dx = proj.basis.derivative_map(0)
        Dy = proj.basis.derivative_map(1)
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
        sys = local_system(geom, k, lay, coeffs)
        exact = lambda x, y: 2 * x + 3 * y - 1
        d = interpolate_dofs(geom, k, exact)
        n_bdry = lay.n_vertices * k
        A = sys.matrix
        interior = slice(n_bdry, lay.n_dofs)
        rhs = sys.f_loc[interior] - A[interior, :n_bdry] @ d[:n_bdry]
        u_int = np.linalg.solve(A[interior, interior], rhs)
        assert np.abs(u_int - d[interior]).max() < 1e-12
