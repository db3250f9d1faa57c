"""Polynomial bases and quadrature: exactness, invariants, oracles."""

import numpy as np
import pytest

from vemlab import kernels
from vemlab.basis import (EdgeBasis, ScaledMonomialBasis, edge_quadrature,
                          edge_reconstruction, mass_matrix,
                          monomial_exponents, n_poly, poly_eval, poly_grad,
                          polygon_quadrature, triangulate)
from vemlab.mesh import MeshError, element_geometry, polygon_geometry
from vemlab.meshgen import GeneratorSpec, concave_mesh, voronoi_mesh

from oracles import fd_gradient, green_monomial_integral, subdivision_integrate

SQUARE = polygon_geometry([[0, 0], [1, 0], [1, 1], [0, 1]])
LSHAPE = polygon_geometry(
    [[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]])


def _voronoi_cell(seed=3, n=40, which=17):
    mesh = voronoi_mesh(GeneratorSpec("lloyd0", n, seed=seed))
    return element_geometry(mesh, which % mesh.num_cells)


class TestMonomialOrdering:
    def test_graded_order_start(self):
        exps = monomial_exponents(2)
        expected = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
        assert [tuple(e) for e in exps] == expected

    @pytest.mark.parametrize("k", range(5))
    def test_dimension(self, k):
        assert monomial_exponents(k).shape[0] == n_poly(k) == (k + 1) * (k + 2) // 2

    def test_first_monomial_is_one(self):
        basis = ScaledMonomialBasis(LSHAPE, 3)
        pts = np.random.default_rng(0).random((20, 2)) * 2
        assert np.allclose(basis.eval(pts)[:, 0], 1.0)

    def test_linear_monomials_vanish_at_centroid(self):
        basis = ScaledMonomialBasis(LSHAPE, 4)
        row = basis.eval(LSHAPE.centroid[None, :])[0]
        assert abs(row[1]) < 1e-14 and abs(row[2]) < 1e-14


class TestDerivativeMaps:
    @pytest.mark.parametrize("axis", [0, 1])
    def test_matches_pointwise_gradient(self, axis):
        basis = ScaledMonomialBasis(LSHAPE, 4)
        lower = ScaledMonomialBasis(LSHAPE, 3)
        D = basis.derivative_map(axis)
        rng = np.random.default_rng(7)
        coeffs = rng.standard_normal(basis.dim)
        pts = rng.random((30, 2)) * 2
        grads = poly_grad(basis, coeffs, pts)[:, axis]
        via_map = poly_eval(lower, D @ coeffs, pts)
        assert np.allclose(grads, via_map, atol=1e-12)

    def test_laplacian_map(self):
        basis = ScaledMonomialBasis(SQUARE, 4)
        lower = ScaledMonomialBasis(SQUARE, 2)
        L = basis.laplacian_map()
        Dx, Dy = basis.derivative_map(0), basis.derivative_map(1)
        mid = ScaledMonomialBasis(SQUARE, 3)
        composed = mid.derivative_map(0) @ Dx + mid.derivative_map(1) @ Dy
        assert np.allclose(L, composed, atol=1e-13)
        assert L.shape == (lower.dim, basis.dim)

    def test_gradient_against_finite_differences(self):
        geom = _voronoi_cell()
        basis = ScaledMonomialBasis(geom, 4)
        coeffs = np.random.default_rng(5).standard_normal(basis.dim)
        for p in [geom.centroid, geom.vertices[0] * 0.9 + geom.centroid * 0.1]:
            g = poly_grad(basis, coeffs, p)
            g_fd = fd_gradient(lambda x, y: poly_eval(basis, coeffs, np.array([x, y])),
                               p[0], p[1], step=1e-6)
            assert np.allclose(g, g_fd, atol=1e-7)


class TestKernels:
    def test_gradient_is_derivative_of_values(self):
        rng = np.random.default_rng(42)
        pts = rng.uniform(-2.0, 3.0, size=(31, 2))
        center = rng.uniform(-1.0, 1.0, size=2)
        diameter = rng.uniform(0.5, 2.0)
        exps = monomial_exponents(4)
        step = 1e-6
        gx, gy = kernels.monomial_vandermonde_grad(pts, center, diameter, exps)
        for axis, g in ((0, gx), (1, gy)):
            shift = np.zeros(2)
            shift[axis] = step
            plus = kernels.monomial_vandermonde(pts + shift, center, diameter,
                                                exps)
            minus = kernels.monomial_vandermonde(pts - shift, center,
                                                 diameter, exps)
            np.testing.assert_allclose(g, (plus - minus) / (2 * step),
                                       rtol=2e-6, atol=1e-7)


class TestPolygonQuadrature:
    @pytest.mark.parametrize("geom", [SQUARE, LSHAPE], ids=["square", "lshape"])
    @pytest.mark.parametrize("exactness", [1, 3, 5, 8])
    def test_weights_positive_sum_to_area(self, geom, exactness):
        rule = polygon_quadrature(geom, exactness)
        assert np.all(rule.weights > 0)
        assert abs(rule.weights.sum() - geom.area) < 1e-13 * geom.area

    @pytest.mark.parametrize("exactness", [2, 4, 6, 8])
    def test_exact_on_monomials_unit_square(self, exactness):
        rule = polygon_quadrature(SQUARE, exactness)
        for ax in range(exactness + 1):
            for ay in range(exactness + 1 - ax):
                got = np.sum(rule.weights * rule.points[:, 0] ** ax
                             * rule.points[:, 1] ** ay)
                exact = 1.0 / ((ax + 1) * (ay + 1))
                assert abs(got - exact) < 1e-13, (ax, ay)

    def test_x2y2_on_unit_square(self):
        rule = polygon_quadrature(SQUARE, 4)
        got = np.sum(rule.weights * rule.points[:, 0] ** 2 * rule.points[:, 1] ** 2)
        assert abs(got - 1.0 / 9.0) < 1e-14

    def test_exact_on_voronoi_cell_against_green_oracle(self):
        geom = _voronoi_cell(seed=9, n=30, which=11)
        rule = polygon_quadrature(geom, 8)
        for ax in range(9):
            for ay in range(9 - ax):
                got = np.sum(rule.weights * rule.points[:, 0] ** ax
                             * rule.points[:, 1] ** ay)
                exact = green_monomial_integral(geom.vertices, ax, ay)
                assert abs(got - exact) < 1e-12 * max(1.0, abs(exact)), (ax, ay)

    def test_concave_cell_against_subdivision_oracle(self):
        mesh = concave_mesh(2)
        geom = element_geometry(mesh, 5)
        rule = polygon_quadrature(geom, 6)

        def fn(x, y):
            return np.sin(3 * x) * np.cos(2 * y) + x ** 2 * y

        got = np.sum(rule.weights * fn(rule.points[:, 0], rule.points[:, 1]))
        exact = subdivision_integrate(fn, geom.vertices, tol=1e-13)
        assert abs(got - exact) < 1e-9

    def test_triangulation_covers_area(self):
        for geom in (SQUARE, LSHAPE, _voronoi_cell(seed=2, n=25, which=7)):
            tris = triangulate(geom.vertices)
            areas = 0.5 * ((tris[:, 1, 0] - tris[:, 0, 0])
                           * (tris[:, 2, 1] - tris[:, 0, 1])
                           - (tris[:, 2, 0] - tris[:, 0, 0])
                           * (tris[:, 1, 1] - tris[:, 0, 1]))
            assert np.all(areas > 0)
            assert abs(areas.sum() - geom.area) < 1e-13 * geom.area

    def test_nonconvex_cells_use_all_positive_weights(self):
        mesh = concave_mesh(3)
        for c in range(mesh.num_cells):
            geom = element_geometry(mesh, c)
            rule = polygon_quadrature(geom, 5)
            assert np.all(rule.weights > 0)
            assert abs(rule.weights.sum() - geom.area) < 1e-12

    def test_self_intersecting_polygon_rejected(self):
        # Bowtie: traversal order crosses itself, no valid ear decomposition.
        with pytest.raises(MeshError):
            triangulate(np.array([[0.0, 0], [1, 1], [1, 0], [0, 1]]))


class TestEdgeQuadrature:
    def test_weights_sum_to_length(self):
        rule = edge_quadrature([[0.0, 0.0], [3.0, 4.0]], 7)
        assert np.all(rule.weights > 0)
        assert abs(rule.weights.sum() - 5.0) < 1e-13

    @pytest.mark.parametrize("j", range(7))
    def test_exact_scaled_arclength_moments(self, j):
        a, b = np.array([0.2, 0.1]), np.array([0.9, 0.8])
        length = np.hypot(*(b - a))
        rule = edge_quadrature([a, b], 6)
        # Pull each quadrature point back to t in [-1, 1].
        t = 2 * np.linalg.norm(rule.points - a, axis=1) / length - 1
        got = np.sum(rule.weights * t ** j)
        exact = length / (j + 1) if j % 2 == 0 else 0.0
        assert abs(got - exact) < 1e-13

    def test_s_squared_example(self):
        # int over [-1,1] of t^2 weighted by |e|/2 equals |e|/3.
        a, b = np.array([0.0, 0.0]), np.array([2.0, 0.0])
        rule = edge_quadrature([a, b], 4)
        t = rule.points[:, 0] - 1
        assert abs(np.sum(rule.weights * t ** 2) - 2.0 / 3.0) < 1e-14


class TestEdgeBasis:
    def test_first_function_is_one(self):
        eb = EdgeBasis(4)
        t = np.linspace(-1, 1, 9)
        table = eb.eval(t)
        assert np.allclose(table[:, 0], 1.0)
        assert table.shape == (9, 5)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_reconstruction_recovers_polynomials(self, k):
        rng = np.random.default_rng(k)
        coeffs = rng.standard_normal(k + 1)
        t, w = np.polynomial.legendre.leggauss(k + 2)
        vals = np.vander(t, k + 1, increasing=True) @ coeffs
        data = [np.polyval(coeffs[::-1], -1.0), np.polyval(coeffs[::-1], 1.0)]
        for j in range(k - 1):
            data.append(0.5 * np.sum(w * vals * t ** j))
        rec = edge_reconstruction(k) @ np.array(data)
        assert np.allclose(rec, coeffs, atol=1e-12)


class TestMassMatrix:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_spd(self, k):
        geom = _voronoi_cell(seed=4, n=35, which=k)
        basis = ScaledMonomialBasis(geom, k)
        H = mass_matrix(basis)
        assert np.allclose(H, H.T)
        assert np.linalg.eigvalsh(H).min() > 0

    def test_entries_match_green_oracle(self):
        geom = LSHAPE
        basis = ScaledMonomialBasis(geom, 2)
        H = mass_matrix(basis)
        c, h = geom.centroid, geom.diameter
        for i, (ax1, ay1) in enumerate(basis.exponents):
            for j, (ax2, ay2) in enumerate(basis.exponents):
                exact = _centered_integral(geom, ax1 + ax2, ay1 + ay2, c, h)
                assert abs(H[i, j] - exact) < 1e-13 * max(1.0, abs(exact))

    def test_weighted_matrix(self):
        basis = ScaledMonomialBasis(SQUARE, 1)
        H = mass_matrix(basis, weight=lambda x, y: x)
        # (0,0)x(0,0) entry: int_square x dx = 1/2.
        assert abs(H[0, 0] - 0.5) < 1e-14

    def test_subblock(self):
        geom = _voronoi_cell(seed=6, n=30, which=3)
        basis = ScaledMonomialBasis(geom, 4)
        H_full = mass_matrix(basis)
        H_sub = mass_matrix(basis, up_to=2)
        assert H_sub.shape == (6, 6)
        assert np.allclose(H_sub, H_full[:6, :6], atol=1e-14)


def _centered_integral(geom, px, py, c, h):
    """int_E ((x-cx)/h)^px ((y-cy)/h)^py via binomial expansion and the
    Green-theorem monomial oracle."""
    from math import comb
    total = 0.0
    for a in range(px + 1):
        for b in range(py + 1):
            total += (comb(px, a) * comb(py, b)
                      * (-c[0]) ** (px - a) * (-c[1]) ** (py - b)
                      * green_monomial_integral(geom.vertices, a, b))
    return total / h ** (px + py)
