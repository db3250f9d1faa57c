"""Polynomial bases and quadrature: exactness, invariants, oracles."""

import ast
from pathlib import Path

import numpy as np
import pytest

from vemlab import basis, kernels
from vemlab.basis import (derivative_table, edge_reconstruction, gram,
                          map_rule, monomial_derivatives, monomial_exponents,
                          n_poly, polygon_quadrature, triangulate,
                          triangulate_stack)
from vemlab.local import projector_set, shape_classes
from vemlab.mesh import (MeshError, element_geometry, geometry_stacks,
                         make_mesh, polygon_geometry, stack_geometry, take)
from vemlab.meshgen import (GeneratorSpec, concave_mesh, generate,
                            square_mesh, voronoi_mesh)

from oracles import (cell_rings, edge_quadrature, fd_gradient,
                     green_monomial_integral, map_rule_axis_pairs,
                     monomial_values, random_polygon_bank,
                     subdivision_integrate, triangulate_per_cell)

SQUARE = polygon_geometry([[0, 0], [1, 0], [1, 1], [0, 1]])
LSHAPE = polygon_geometry(
    [[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]])


def poly_eval(geom, degree, coeffs, x):
    """Value of sum_a coeffs[a] m_a at point(s) x."""
    vals = monomial_values(geom, degree, x) @ np.asarray(coeffs)
    return vals[0] if np.asarray(x).ndim == 1 else vals


def poly_grad(geom, degree, coeffs, x):
    """Gradient of sum_a coeffs[a] m_a at point(s) x."""
    gx, gy = kernels.monomial_vandermonde_grad(
        np.atleast_2d(x), geom.centroid, geom.diameter,
        monomial_exponents(degree))
    c = np.asarray(coeffs)
    out = np.column_stack([gx @ c, gy @ c])
    return out[0] if np.asarray(x).ndim == 1 else out


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
        pts = np.random.default_rng(0).random((20, 2)) * 2
        assert np.allclose(monomial_values(LSHAPE, 3, pts)[:, 0], 1.0)

    def test_linear_monomials_vanish_at_centroid(self):
        row = monomial_values(LSHAPE, 4, LSHAPE.centroid)[0]
        assert abs(row[1]) < 1e-14 and abs(row[2]) < 1e-14


class TestDerivativeMaps:
    @pytest.mark.parametrize("axis", [0, 1])
    def test_matches_pointwise_gradient(self, axis):
        D = derivative_table(4, axis) / LSHAPE.diameter
        rng = np.random.default_rng(7)
        coeffs = rng.standard_normal(n_poly(4))
        pts = rng.random((30, 2)) * 2
        grads = poly_grad(LSHAPE, 4, coeffs, pts)[:, axis]
        via_map = poly_eval(LSHAPE, 3, D @ coeffs, pts)
        assert np.allclose(grads, via_map, atol=1e-12)

    def test_gradient_against_finite_differences(self):
        geom = _voronoi_cell()
        coeffs = np.random.default_rng(5).standard_normal(n_poly(4))
        for p in [geom.centroid, geom.vertices[0] * 0.9 + geom.centroid * 0.1]:
            g = poly_grad(geom, 4, coeffs, p)
            g_fd = fd_gradient(
                lambda x, y: poly_eval(geom, 4, coeffs, np.array([x, y])),
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


def _concave_stack_and_points():
    """The octagons of concave 3 x 3 and 7 points per cell around it."""
    (stack,) = geometry_stacks(concave_mesh(3))
    rng = np.random.default_rng(11)
    pts = (stack.centroid[:, None]
           + rng.uniform(-0.7, 0.7, (len(stack), 7, 2))
           * stack.diameter[:, None, None])
    return stack, pts


class TestBasisMap:
    @pytest.mark.parametrize("degree", range(-1, 5))
    def test_values_are_the_kernel_table(self, degree):
        stack, pts = _concave_stack_and_points()
        exps = monomial_exponents(degree)
        assert np.array_equal(
            basis.monomial_values(stack, pts, degree),
            kernels.monomial_vandermonde(pts, stack.centroid, stack.diameter,
                                         exps))
        for i in (0, 5):
            assert np.array_equal(
                basis.monomial_values(take(stack, i), pts[i], degree),
                kernels.monomial_vandermonde(pts[i], stack.centroid[i],
                                             stack.diameter[i], exps))

    @pytest.mark.parametrize("degree", range(-1, 5))
    def test_derivatives_are_the_scaled_tables(self, degree):
        stack, _ = _concave_stack_and_points()
        h = stack.diameter[:, None, None]
        for axis, got in enumerate(monomial_derivatives(stack, degree)):
            assert np.array_equal(got, derivative_table(degree, axis) / h)
        for axis, got in enumerate(monomial_derivatives(take(stack, 2),
                                                        degree)):
            assert np.array_equal(
                got, derivative_table(degree, axis) / stack.diameter[2])

    @pytest.mark.parametrize("degree", range(0, 5))
    def test_derivatives_map_values_onto_gradients(self, degree):
        # the degree-(d-1) values times each derivative map, against the
        # gradient kernel, within 1e-13 of its max-norm
        stack, pts = _concave_stack_and_points()
        lower = basis.monomial_values(stack, pts, degree - 1)
        grads = kernels.monomial_vandermonde_grad(
            pts, stack.centroid, stack.diameter, monomial_exponents(degree))
        for D, g in zip(monomial_derivatives(stack, degree), grads):
            assert np.abs(lower @ D - g).max() <= 1e-13 * max(
                np.abs(g).max(), 1.0)

    def test_only_basis_builds_the_basis(self):
        # the evaluator and the derivative tables are named by basis (and
        # kernels itself) alone, so a change of basis has one place to go
        src = Path(__file__).resolve().parent.parent / "src"
        owners = {src / "vemlab" / "basis.py",
                  src / "vemlab" / "kernels" / "__init__.py"}
        named = set()
        for path in sorted(src.rglob("*.py")):
            if path in owners:
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                names = ({node.id} if isinstance(node, ast.Name)
                         else {node.attr} if isinstance(node, ast.Attribute)
                         else {a.name for a in node.names}
                         if isinstance(node, (ast.Import, ast.ImportFrom))
                         else set())
                for name in names & {"monomial_vandermonde",
                                     "derivative_table"}:
                    named.add(f"{path.relative_to(src)}: {name}")
        assert not named, sorted(named)


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


def _stack(rings, first_id=0):
    rings = np.asarray(rings, dtype=float)
    return stack_geometry(rings, np.ones(rings.shape[:2], dtype=bool),
                          first_id + np.arange(len(rings)))


def _by_vertex_count(polygons):
    """Geometry stacks of the polygons, one per vertex count."""
    groups = {}
    for coords in polygons:
        groups.setdefault(len(coords), []).append(np.asarray(coords, float))
    return [_stack(g) for _, g in sorted(groups.items())]


def _cells(mesh):
    return [mesh.vertices[ring] for ring in cell_rings(mesh)]


class TestBatchedTriangulation:
    @pytest.mark.parametrize("polygons", [
        _cells(concave_mesh(6)),
        _cells(generate(GeneratorSpec("concave", 100, seed=2))),
        _cells(generate(GeneratorSpec("lloyd0", 100, seed=7))),
        [geom.vertices for geom in random_polygon_bank()],
        [SQUARE.vertices, LSHAPE.vertices],
    ], ids=["concave_6x6", "concave_100", "lloyd0_100", "random_bank",
            "square_lshape"])
    def test_matches_per_cell_triangulation(self, polygons):
        seen = 0
        for stack in _by_vertex_count(polygons):
            groups = triangulate_stack(stack)
            rows = np.concatenate([r for r, _ in groups])
            assert np.array_equal(np.sort(rows), np.arange(len(stack)))
            for rows, tris in groups:
                for i, got in zip(rows, tris):
                    assert np.array_equal(
                        got, triangulate_per_cell(stack.vertices[i]))
                    seen += 1
        assert seen == len(polygons)

    @pytest.mark.parametrize("family", ["concave", "square", "lloyd0",
                                        "moved_vertex"])
    def test_class_members_take_their_representatives_corners(self, family):
        # only each shape class's representative is ear-clipped; the other
        # members gather their own vertices at its corners, and every cell,
        # fan or ear clip, gets the triangles of its own one-cell
        # construction bit for bit
        if family == "moved_vertex":
            # one interior vertex of a 4 x 4 square mesh moved: its 4
            # cells are classes of their own next to the 12 others
            base = square_mesh(4)
            vertices = base.vertices.copy()
            vertices[np.flatnonzero((np.abs(vertices - 0.5) < 1e-12)
                                    .all(axis=1))[0]] += [0.03, -0.02]
            mesh = make_mesh(vertices, cell_rings(base))
        else:
            mesh = generate(GeneratorSpec(family, 400, seed=1))
        seen = 0
        for stack in geometry_stacks(mesh):
            rep_of = shape_classes(stack)
            for rows, tris in triangulate_stack(stack, rep_of):
                for i, got in zip(rows, tris):
                    assert np.array_equal(
                        got, triangulate_per_cell(stack.vertices[i])), i
                    seen += 1
        assert seen == mesh.num_cells

    def test_concave_cells_take_the_ear_clip(self):
        # the concave family's cells are not star-shaped with respect to
        # their centroids, so the vectorised ear clip is what runs
        stack = _stack(_cells(concave_mesh(4)))
        ((_, tris),) = triangulate_stack(stack)
        assert tris.shape == (len(stack), stack.vertices.shape[1] - 2, 3, 2)

    def test_stack_of_one_matches_full_stack(self):
        mesh = generate(GeneratorSpec("lloyd100", 64, seed=1))
        for stack in _by_vertex_count(_cells(mesh)):
            for rows, tris in triangulate_stack(stack):
                for i, got in zip(rows, tris):
                    assert np.array_equal(got, triangulate(stack.vertices[i]))

    def test_rule_mapped_per_stack_matches_per_cell_rule(self):
        geoms = [element_geometry(concave_mesh(3), c) for c in range(18)]
        ((rows, tris),) = triangulate_stack(_stack([g.vertices for g in geoms]))
        pts, wts = map_rule(tris, 7)
        for i, geom in zip(rows, geoms):
            rule = polygon_quadrature(geom, 7)
            assert np.array_equal(pts[i], rule.points)
            assert np.array_equal(wts[i], rule.weights)

    @pytest.mark.parametrize("exactness", [0, 4, 7, 12])
    @pytest.mark.parametrize("family", ["square", "concave", "lloyd0",
                                        "lloyd100"])
    def test_rule_per_coordinate_matches_axis_pairs(self, family, exactness):
        # square and most Voronoi cells take the centroid fan, concave
        # cells the ear clip; each coordinate mapped on its own gives the
        # bits of the (..., 2)-axis arithmetic
        mesh = generate(GeneratorSpec(family, 100, seed=3))
        kinds = set()
        for stack in _by_vertex_count(_cells(mesh)):
            for _, tris in triangulate_stack(stack):
                kinds.add(tris.shape[1] == stack.vertices.shape[1])
                for got, ref in zip(map_rule(tris, exactness),
                                    map_rule_axis_pairs(tris, exactness)):
                    assert np.array_equal(got, ref)
        assert (True in kinds) == (family != "concave")
        assert (False in kinds) == (family in ("concave", "lloyd0"))

    def test_errors_name_the_polygon(self):
        good = SQUARE.vertices
        sliver = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1e-14], [0.0, 1e-14]])
        with pytest.raises(MeshError, match="cell 1: triangulation failed"):
            triangulate_stack(_stack([good, sliver]))
        # a self-intersecting pentagon with positive signed area, stacked
        # after a convex one, fails in the ear clip
        crossed = np.array([[0.0, 0], [4, 0], [4, 2], [2, -1], [0, 2]])
        convex = np.array([[0.0, 0], [2, 0], [3, 1], [1, 2], [-1, 1]])
        with pytest.raises(MeshError, match="cell 7: .*may self-intersect"):
            triangulate_stack(_stack([convex, crossed], first_id=6))


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
    # the mass matrix H of the projector set, built by ``gram`` on the
    # projector's degree-2k rule

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_spd(self, k):
        geom = _voronoi_cell(seed=4, n=35, which=k)
        H = projector_set(geom, k).H
        assert np.allclose(H, H.T)
        assert np.linalg.eigvalsh(H).min() > 0

    def test_entries_match_green_oracle(self):
        geom = LSHAPE
        exps = monomial_exponents(2)
        H = projector_set(geom, 2).H
        c, h = geom.centroid, geom.diameter
        for i, (ax1, ay1) in enumerate(exps):
            for j, (ax2, ay2) in enumerate(exps):
                exact = _centered_integral(geom, ax1 + ax2, ay1 + ay2, c, h)
                assert abs(H[i, j] - exact) < 1e-13 * max(1.0, abs(exact))

    def test_weighted_matrix(self):
        rule = polygon_quadrature(SQUARE, 4)
        V = monomial_values(SQUARE, 1, rule.points)
        H = gram(V, rule.weights * rule.points[:, 0])
        # (0,0)x(0,0) entry: int_square x dx = 1/2.
        assert abs(H[0, 0] - 0.5) < 1e-14

    def test_subblock(self):
        # the kernel takes the degree-(k-1) mass matrix as the leading block
        # of the degree-k one
        geom = _voronoi_cell(seed=6, n=30, which=3)
        H_full = projector_set(geom, 4).H
        H_sub = projector_set(geom, 2).H
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
