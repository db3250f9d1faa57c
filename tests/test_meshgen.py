import dataclasses
import re

import numpy as np
import pytest
from scipy.spatial import Delaunay, cKDTree

import vemlab.meshgen as meshgen
from oracles import (cell_centroids_axis_sums, cell_rings, circumcircle_depth,
                     clipped_cells_per_cell, concave_mesh_registry,
                     cvt_energy, delaunay_centroids, delaunay_fancy_index,
                     flat_rings, in_circle_axis_sums,
                     mesh_from_rings_union_find, opposite_half_edges,
                     reflex_vertices, relax_points_per_cell,
                     relax_points_qhull, ring_centroids,
                     seed_circumcentres_axis_sums, sees_all_of_polygon,
                     split_rings, square_mesh_per_cell)
from vemlab.mesh import (MeshError, element_geometry, make_mesh,
                         regularity_report)
from vemlab.meshgen import (GeneratorSpec, _cell_centroids, _certified_cells,
                            _delaunay, _draw_seeds,
                            _flip_repaired, _in_circle, _mesh_from_rings,
                            _mirror, _NEXT, _next, _prev,
                            _seed_circumcentres, _twice_area,
                            _WELD_TOL, concave_mesh,
                            generate, lloyd_relax, relax_points, square_mesh,
                            voronoi_mesh)


class TestSquareFamily:
    @pytest.mark.parametrize("n", [1, 2, 5, 30])
    def test_matches_vertex_by_vertex_construction(self, n):
        vertices, cells = square_mesh_per_cell(n)
        mesh = square_mesh(n)
        assert mesh.vertices.tobytes() == vertices.tobytes()
        assert [ring.tolist() for ring in cell_rings(mesh)] == cells
        assert all(ring.dtype == int for ring in cell_rings(mesh))

    def test_counts(self):
        mesh = square_mesh(5)
        assert mesh.num_cells == 25
        assert mesh.num_vertices == 36

    def test_single_square(self):
        mesh = square_mesh(1)
        assert mesh.num_cells == 1
        assert np.allclose(sorted(map(tuple, mesh.vertices.tolist())),
                           [(0, 0), (0, 1), (1, 0), (1, 1)])

    def test_partition_n20(self):
        mesh = square_mesh(20)
        total = sum(element_geometry(mesh, ci).area for ci in range(mesh.num_cells))
        assert total == pytest.approx(1.0, rel=1e-13)

    def test_cells_congruent(self):
        mesh = square_mesh(4)
        areas = [element_geometry(mesh, ci).area for ci in range(mesh.num_cells)]
        assert np.allclose(areas, 1 / 16)


class TestConcaveFamily:
    @pytest.mark.parametrize("n", [1, 2, 5, 30])
    def test_matches_vertex_by_vertex_construction(self, n):
        vertices, cells = concave_mesh_registry(n)
        mesh = concave_mesh(n)
        assert mesh.vertices.tobytes() == vertices.tobytes()
        assert [ring.tolist() for ring in cell_rings(mesh)] == cells
        assert all(ring.dtype == int for ring in cell_rings(mesh))

    def test_counts(self):
        assert concave_mesh(5).num_cells == 50

    def test_partition(self):
        mesh = concave_mesh(5)
        total = sum(element_geometry(mesh, ci).area for ci in range(mesh.num_cells))
        assert total == pytest.approx(1.0, rel=1e-12)

    def test_every_cell_nonconvex_positive_area(self):
        mesh = concave_mesh(3)
        for ci in range(mesh.num_cells):
            geom = element_geometry(mesh, ci)
            assert geom.area > 0.0
            assert len(reflex_vertices(geom.vertices)) >= 1

    def test_halves_congruent(self):
        mesh = concave_mesh(2)
        areas = [element_geometry(mesh, ci).area for ci in range(mesh.num_cells)]
        assert np.allclose(areas, areas[0])
        assert len(element_geometry(mesh, 0).vertices) == 8

    def test_star_shaped_visibility_oracle(self):
        # the library finds a kernel disk in every cell, and the centre of
        # the largest one, found by a linear program, sees the whole cell
        from scipy.optimize import linprog

        mesh = concave_mesh(1)
        rho = regularity_report(mesh).rho
        for ci in range(mesh.num_cells):
            coords = element_geometry(mesh, ci).vertices
            assert rho[ci] > 0.0
            tang = np.roll(coords, -1, axis=0) - coords
            lengths = np.hypot(tang[:, 0], tang[:, 1])
            normals = np.column_stack([tang[:, 1], -tang[:, 0]]) / lengths[:, None]
            a_ub = np.column_stack([normals, np.ones(len(coords))])
            b_ub = np.sum(normals * coords, axis=1)
            res = linprog([0, 0, -1.0], A_ub=a_ub, b_ub=b_ub,
                          bounds=[(0, 1), (0, 1), (None, None)], method="highs")
            cx, cy, _ = res.x
            assert sees_all_of_polygon(coords, cx, cy)


class TestVoronoiFamily:
    def test_counts_and_area(self):
        mesh = generate(GeneratorSpec("lloyd0", 100, seed=5))
        assert mesh.num_cells == 100
        total = sum(element_geometry(mesh, ci).area for ci in range(mesh.num_cells))
        assert total == pytest.approx(1.0, rel=1e-12)

    def test_single_seed_is_unit_square(self):
        mesh = voronoi_mesh(GeneratorSpec("lloyd0", 1, seed=4))
        assert mesh.num_cells == 1
        assert np.allclose(sorted(map(tuple, mesh.vertices.tolist())),
                           [(0, 0), (0, 1), (1, 0), (1, 1)])

    def test_deterministic(self):
        a = generate(GeneratorSpec("lloyd0", 60, seed=77))
        b = generate(GeneratorSpec("lloyd0", 60, seed=77))
        assert np.array_equal(a.vertices, b.vertices)
        assert all(np.array_equal(x, y)
                   for x, y in zip(cell_rings(a), cell_rings(b)))

    def test_cells_convex(self):
        mesh = generate(GeneratorSpec("lloyd0", 50, seed=8))
        for ci in range(mesh.num_cells):
            coords = element_geometry(mesh, ci).vertices
            assert len(reflex_vertices(coords)) == 0

    def test_lloyd100_deterministic(self):
        a = generate(GeneratorSpec("lloyd100", 25, seed=7))
        b = generate(GeneratorSpec("lloyd100", 25, seed=7))
        assert np.array_equal(a.vertices, b.vertices)

    def test_lloyd100_generate_gives_identical_arrays(self):
        # 1,600 seeds take halved repairs and the carried final mesh
        spec = GeneratorSpec("lloyd100", 1600, seed=1)
        a, b = generate(spec), generate(spec)
        for f in dataclasses.fields(a):
            x, y = getattr(a, f.name), getattr(b, f.name)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), f.name


class TestLloyd:
    def test_zero_iterations_noop(self):
        s0 = GeneratorSpec("voronoi", 40, seed=13, lloyd_iterations=0)
        s1 = GeneratorSpec("lloyd0", 40, seed=13)
        a, b = generate(s0), generate(s1)
        assert np.array_equal(a.vertices, b.vertices)

    def test_symmetric_four_seeds_fixed_point(self):
        seeds = np.array([[.25, .25], [.75, .25], [.25, .75], [.75, .75]])
        pts, movement, _ = relax_points(seeds, 1)
        assert movement[0] < 1e-14
        assert np.allclose(pts, seeds, atol=1e-14)
        mesh = lloyd_relax(seeds, 1)
        assert mesh.num_cells == 4
        areas = [element_geometry(mesh, ci).area for ci in range(4)]
        assert np.allclose(areas, 0.25)

    @pytest.mark.parametrize("iterations", [0, 3])
    def test_repeated_seed_is_named(self, iterations, monkeypatch):
        # qhull drops a repeated point, which used to surface as an
        # unbounded Voronoi region; the seeds are checked before qhull runs
        sizes = _counting_delaunay(monkeypatch)
        seeds = [[.1, .3], [.2, .2], [.6, .4], [.2, .2], [.7, .7]]
        with pytest.raises(MeshError,
                           match=r"seeds 1 and 3 coincide at \(0\.2, 0\.2\)"):
            lloyd_relax(seeds, iterations)
        assert sizes == []

    @pytest.mark.parametrize("iterations", [0, 3])
    def test_seed_outside_the_square_is_named(self, iterations, monkeypatch):
        # the clipping assumes seeds in the square: this one gave 3 cells
        # reaching x = 3.58
        sizes = _counting_delaunay(monkeypatch)
        with pytest.raises(MeshError, match=r"seed 2 at \(1\.4, 0\.8\) is not "
                                            "a point of the unit square"):
            lloyd_relax([[0.3, 0.3], [0.7, 0.6], [1.4, 0.8]], iterations)
        assert sizes == []

    @pytest.mark.parametrize("iterations", [0, 2])
    @pytest.mark.parametrize("side", [(0.0, 0.5), (0.0, 0.0), (1.0, 0.5)],
                             ids=str)
    def test_seed_on_a_side_is_named(self, side, iterations, monkeypatch):
        # a seed on a side is its own mirror image: (0, 0.5) gave 3 cells
        # reaching x = -0.3 (total area 1.195), the others an unbounded
        # Voronoi region
        sizes = _counting_delaunay(monkeypatch)
        message = f"seed 0 at {side} lies on a side of the unit square"
        with pytest.raises(MeshError, match=re.escape(message)):
            lloyd_relax([side, [0.6, 0.5], [0.3, 0.8]], iterations)
        assert sizes == []

    @pytest.mark.parametrize("coordinate", [np.inf, -np.inf, np.nan])
    def test_seed_that_is_not_finite_is_named(self, coordinate):
        # used to end in a RuntimeWarning and qhull's "Points cannot
        # contain NaN"
        seeds = [[0.3, 0.3], [0.7, 0.6], [0.5, coordinate]]
        with pytest.raises(MeshError, match=r"seed 2 at \(0\.5, -?(inf|nan)\) "
                                            "is not a point of the unit square"):
            lloyd_relax(seeds, 1)

    @pytest.mark.parametrize("seeds, shape", [
        (np.full((3, 3), 0.5), r"\(3, 3\)"),
        ([0.3, 0.7], r"\(2,\)"),
        ([[[0.3, 0.7]]], r"\(1, 1, 2\)")])
    def test_seeds_of_another_shape_are_named(self, seeds, shape):
        # used to end in a broadcast error or a TypeError
        with pytest.raises(MeshError, match=r"seeds must be an \(n, 2\) array "
                                            f"of points, got shape {shape}"):
            lloyd_relax(seeds, 1)

    @pytest.mark.parametrize("iterations, message", [
        (-1, "iterations must be >= 0, got -1"),
        (True, "iterations must be an integer, got True"),
        (2.0, "iterations must be an integer, got 2.0")])
    def test_bad_iteration_count_is_named(self, iterations, message):
        # used to end in NumPy's "negative dimensions are not allowed" or
        # a TypeError
        with pytest.raises(ValueError, match=message):
            lloyd_relax([[0.3, 0.3], [0.7, 0.6]], iterations)

    @pytest.mark.parametrize("iterations", [0, 3])
    def test_empty_seeds_are_named(self, iterations):
        # used to fail inside the mirroring with NumPy's "zero-size array
        # to reduction operation minimum"
        with pytest.raises(MeshError, match="seed array is empty"):
            lloyd_relax(np.zeros((0, 2)), iterations)

    @pytest.mark.parametrize("family", ["lloyd0", "lloyd100"])
    @pytest.mark.parametrize("seeds, message", [
        ([[0.0, 0.5], [0.6, 0.5], [0.3, 0.8]],
         "seed 0 at (0.0, 0.5) lies on a side of the unit square"),
        ([[0.2, 0.2], [0.6, 0.5], [0.2, 0.2]],
         "seeds 0 and 2 coincide at (0.2, 0.2)")],
        ids=["on_a_side", "repeated"])
    def test_drawn_seeds_meet_the_explicit_seeds_checks(self, seeds, message,
                                                        family, monkeypatch):
        # a generated Voronoi mesh is lloyd_relax of its drawn seeds; a
        # draw on a side used to mesh silently
        monkeypatch.setattr(meshgen, "_draw_seeds",
                            lambda spec: np.array(seeds))
        with pytest.raises(MeshError, match=re.escape(message)):
            generate(GeneratorSpec(family, 3))

    @pytest.mark.parametrize("build", [
        lambda: generate(GeneratorSpec("lloyd100", 25)),
        lambda: generate(GeneratorSpec("lloyd0", 25)),
        lambda: lloyd_relax([[0.3, 0.3], [0.7, 0.6], [0.4, 0.8]], 2)],
        ids=["lloyd100", "lloyd0", "lloyd_relax"])
    def test_one_relax_points_call_per_mesh(self, build, monkeypatch):
        # the benchmark's tracer times Lloyd relaxation, the final cells
        # included, through this module name
        calls = []

        def counted(*args):
            calls.append(args)
            return relax(*args)

        relax = meshgen.relax_points
        monkeypatch.setattr(meshgen, "relax_points", counted)
        build()
        assert len(calls) == 1

    def test_fixed_point_convergence_100_seeds(self):
        # Lloyd's descent property: the CVT quantization energy never
        # increases, and the movement norm decays strongly overall (its raw
        # sequence may tick up when cell topology flips, so the trend is
        # asserted through windowed maxima).
        rng = np.random.default_rng(0)
        pts = rng.uniform(0, 1, (100, 2))
        energies = []
        for _ in range(100):
            flat, sizes, coords = relax_points(pts, 0)[2]
            energies.append(cvt_energy(pts, split_rings(flat, sizes), coords))
            pts, _, _ = relax_points(pts, 1)
        flat, sizes, coords = relax_points(pts, 0)[2]
        energies.append(cvt_energy(pts, split_rings(flat, sizes), coords))
        assert np.all(np.diff(energies) <= 1e-15)

        _, movement, _ = relax_points(np.random.default_rng(0).uniform(0, 1, (100, 2)), 100)
        assert movement[-10:].max() < movement[10:20].max()
        assert movement[-1] < 0.05 * movement[0]


def _assert_same_cells(mesh, ref):
    """Equal cell and vertex counts, and every vertex cycle within 1e-13;
    the vertex numbering may differ."""
    assert mesh.num_cells == ref.num_cells
    assert mesh.num_vertices == ref.num_vertices
    for a, b in zip(cell_rings(mesh), cell_rings(ref)):
        cycle, ref_cycle = mesh.vertices[a], ref.vertices[b]
        assert len(cycle) == len(ref_cycle)
        # the rings may start at different vertices
        start = np.argmin(np.hypot(*(ref_cycle - cycle[0]).T))
        assert np.abs(cycle - np.roll(ref_cycle, -start, axis=0)).max() < 1e-13


def _counting_delaunay(monkeypatch):
    """Replace the qhull entry point of Lloyd relaxation; returns the input sizes."""
    sizes = []

    def counted(points, *args, **kwargs):
        sizes.append(len(points))
        return original(points, *args, **kwargs)

    original = meshgen.Delaunay
    monkeypatch.setattr(meshgen, "Delaunay", counted)
    return sizes


def _qhull_ring_centroids(pts):
    """Centroids of qhull's clipped Voronoi rings: independent of the
    Delaunay triangles whose centroids are checked against them."""
    rings, coords = clipped_cells_per_cell(pts)
    sizes = np.array([len(ring) for ring in rings])
    return ring_centroids(np.concatenate(rings), np.cumsum(sizes) - sizes, coords)


class TestFlatVoronoi:
    @pytest.mark.parametrize("n", [1, 25, 100, 400])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_lloyd0_mesh_byte_identical_to_per_cell_oracle(self, n, seed):
        # the cells from Delaunay circumcentres are qhull's Voronoi cells,
        # vertex for vertex within 1e-13 (no longer byte for byte: the
        # circumcentres round differently); the vertex numbering differs
        spec = GeneratorSpec("lloyd0", n, seed=seed)
        mesh = generate(spec)
        rings, coords = clipped_cells_per_cell(_draw_seeds(spec))
        ref = _mesh_from_rings(*flat_rings(rings), coords)
        _assert_same_cells(mesh, ref)

    @pytest.mark.parametrize("family, n", [("lloyd0", 400), ("lloyd0", 4096),
                                           ("lloyd100", 1600)])
    def test_banded_mesh_matches_per_cell_oracle(self, family, n, monkeypatch):
        # the final mesh from the density band alone: one qhull call, on
        # far fewer points than full mirroring
        spec = GeneratorSpec(family, n)
        pts = _draw_seeds(spec)
        if spec.iterations:
            pts = relax_points(pts, spec.iterations)[0]
        sizes = _counting_delaunay(monkeypatch)
        mesh = lloyd_relax(pts, 0)
        assert len(sizes) == 1 and sizes[0] < 2 * n
        rings, coords = clipped_cells_per_cell(pts)
        _assert_same_cells(mesh, _mesh_from_rings(*flat_rings(rings), coords))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_relax_matches_per_cell_oracle(self, seed):
        pts = np.random.default_rng(seed).uniform(0.0, 1.0, (200, 2))
        new, moves, _ = relax_points(pts, 100)
        ref, ref_moves = relax_points_per_cell(pts, 100)
        assert np.abs(new - ref).max() < 1e-10
        assert np.abs(moves - ref_moves).max() < 1e-10

    @pytest.mark.parametrize("band, failure", [(1e-3, "unbounded"),
                                               (0.05, "outside")])
    def test_narrow_band_falls_back_to_full_mirroring(self, band, failure,
                                                      monkeypatch):
        pts = relax_points(np.random.default_rng(3).uniform(0, 1, (200, 2)), 5)[0]
        if failure == "unbounded":
            with pytest.raises(MeshError):
                delaunay_centroids(pts, band)
        else:
            centres = delaunay_centroids(pts, band)[2]
            assert np.any((centres < 0.0) | (centres > 1.0))
        full = delaunay_centroids(pts)
        sizes = _counting_delaunay(monkeypatch)
        banded, carried = _certified_cells(_cell_centroids, pts, band)
        # the band diagram failed the certificate, then full mirroring (and
        # the four frame points) ran, and nothing is carried
        assert len(sizes) == 2 and carried is None
        assert sizes[1] == 5 * len(pts) + 4 > sizes[0]
        for a, b in zip(banded, full):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()

    def test_certified_band_cells_equal_clipped_cells(self, monkeypatch):
        pts = relax_points(np.random.default_rng(3).uniform(0, 1, (200, 2)), 5)[0]
        full = delaunay_centroids(pts)
        sizes = _counting_delaunay(monkeypatch)
        banded, carried = _certified_cells(_cell_centroids, pts, 0.1)
        assert len(sizes) == 1 and sizes[0] < 5 * len(pts)
        assert carried is not None
        assert banded[1] == pytest.approx(full[1], rel=1e-13)
        assert np.abs(banded[0] - full[0]).max() < 1e-13

    @pytest.mark.parametrize("seed", [0, 3])
    def test_triangle_centroids_match_ring_oracle(self, seed):
        # raw seeds: the Delaunay triangles include obtuse ones, whose
        # circumcentres lie outside them and add negative sub-areas
        pts = np.random.default_rng(seed).uniform(0.0, 1.0, (200, 2))
        tri = _delaunay(pts)
        corners = tri.points[tri.simplices[(tri.simplices < len(pts)).any(axis=1)]]
        edges = np.roll(corners, -1, axis=1) - corners
        sq = (edges ** 2).sum(axis=-1)
        assert np.any(2.0 * sq.max(axis=1) > sq.sum(axis=1))
        ref = _qhull_ring_centroids(pts)
        assert np.abs(delaunay_centroids(pts)[0] - ref).max() < 1e-13

    def test_certified_band_centroids_match_ring_oracle(self):
        pts = relax_points(np.random.default_rng(3).uniform(0, 1, (200, 2)), 5)[0]
        new, _, centres = delaunay_centroids(pts, 0.1)
        assert np.all((centres >= 0.0) & (centres <= 1.0))
        ref = _qhull_ring_centroids(pts)
        assert np.abs(new - ref).max() < 1e-13

    def test_band_mirroring_feeds_qhull_fewer_points(self, monkeypatch):
        n = 400
        pts = np.random.default_rng(2).uniform(0.0, 1.0, (n, 2))
        sizes = _counting_delaunay(monkeypatch)
        relax_points(pts, 20)
        # every call mirrors a band, the first one included, and most
        # iterations repair the carried triangulation without qhull
        assert len(sizes) < 20
        assert max(sizes) < 2 * n

    def test_uncertified_density_band_falls_back_to_full_mirroring(
            self, monkeypatch):
        # no seed lies within the density band (4 seed spacings) of the top
        # side, so the banded cells of the top seeds reach past it
        n = 200
        pts = np.random.default_rng(8).uniform(0.0, 1.0, (n, 2)) * (1.0, 0.6)
        assert pts[:, 1].max() < 1.0 - meshgen._BAND_SPACINGS / np.sqrt(n)
        full = delaunay_centroids(pts)[0]
        sizes = _counting_delaunay(monkeypatch)
        new, moves, _ = relax_points(pts, 1)
        # the banded build, then full mirroring (and the four frame points);
        # full mirroring carries nothing, so the final cells take a build
        # of the band of twice the iteration's reach
        assert len(sizes) == 3 and sizes[0] < sizes[1] == 5 * n + 4
        assert sizes[2] < sizes[1]
        assert new.tobytes() == full.tobytes()
        assert moves[0] == np.max(np.hypot(*(full - pts).T))
        sizes.clear()
        mesh = lloyd_relax(pts, 0)
        assert len(sizes) == 2 and sizes[1] == 5 * n + 4
        # a band wider than the square mirrors every seed
        monkeypatch.setattr(meshgen, "_BAND_SPACINGS", np.inf)
        _assert_same_mesh(mesh, lloyd_relax(pts, 0))

    def test_single_seed_relaxes_to_square_centroid(self):
        pts, movement, _ = relax_points([[0.3, 0.6]], 3)
        assert np.array_equal(pts, [[0.5, 0.5]])
        assert movement[0] == pytest.approx(np.hypot(0.2, 0.1))
        assert np.all(movement[1:] == 0.0)

    @pytest.mark.parametrize("outside", [(3.0, 0.5), (0.5, -2.0)])
    def test_unbounded_region_raises(self, outside):
        pts = np.array([[0.2, 0.2], [0.8, 0.7], outside])
        with pytest.raises(MeshError, match="unbounded Voronoi region"):
            relax_points(pts, 0)
        with pytest.raises(MeshError, match="unbounded Voronoi region"):
            relax_points(pts, 1)


def _carried_and_moved(source):
    """A qhull triangulation of 400 seeds, and the seeds moved by a Lloyd
    step: raw seeds fully mirrored or in a band, moved a tenth of their
    (long) first step, or seeds after 20 Lloyd iterations in the band of
    their reach, moved a whole step."""
    pts = np.random.default_rng(4).uniform(0.0, 1.0, (400, 2))
    band, step = {"raw": (None, 0.1), "banded": (0.2, 0.1),
                  "relaxed": (None, 1.0)}[source]
    if source == "relaxed":
        pts = relax_points(pts, 20)[0]
        band = 2.0 * delaunay_centroids(pts)[1]
    moved = pts + step * (delaunay_centroids(pts)[0] - pts)
    return _delaunay(pts, band), moved


def _triangle_set(simplices):
    return set(map(tuple, np.sort(simplices, axis=1).tolist()))


def _assert_fresh_qhull_up_to_cocircular_ties(tri, moved):
    """``tri`` is qhull's triangulation of its points, but for cocircular
    ties, and gives the seeds ``moved`` the same centroids."""
    fresh = Delaunay(tri.points).simplices
    # the triangles that differ are cocircular ties: no point lies
    # inside their circumcircles beyond rounding
    differ = _triangle_set(tri.simplices) - _triangle_set(fresh)
    if differ:
        assert circumcircle_depth(tri.points, np.array(sorted(differ))) < 1e-12
    cw = _twice_area(tri.points[fresh]) < 0.0
    fresh[cw] = fresh[cw][:, [0, 2, 1]]
    ours = _cell_centroids(moved, tri.points, tri.simplices)[0]
    ref = _cell_centroids(moved, tri.points, fresh)[0]
    assert np.abs(ours - ref).max() <= 1e-15


class TestFlipRepair:
    @pytest.mark.parametrize("source", ["raw", "banded", "relaxed"])
    def test_repair_equals_fresh_qhull_up_to_cocircular_ties(self, source):
        carried, moved = _carried_and_moved(source)
        tri = _flip_repaired(carried, moved)
        assert tri is not None
        assert _triangle_set(tri.simplices) != _triangle_set(carried.simplices)
        _assert_fresh_qhull_up_to_cocircular_ties(tri, moved)

    def test_halving_repairs_an_inverting_move_without_qhull(self,
                                                             monkeypatch):
        # raw seeds moved their whole first Lloyd step: a triangle inverts
        # under the full move, but not under either half of it
        pts = np.random.default_rng(4).uniform(0.0, 1.0, (400, 2))
        carried = _delaunay(pts)
        moved = delaunay_centroids(pts)[0]
        assert _flip_repaired(carried, moved) is None
        sizes = _counting_delaunay(monkeypatch)
        out, tri = _certified_cells(_cell_centroids, moved, None, carried)
        assert sizes == [] and tri is not None
        assert np.array_equal(tri.points[:len(moved)], moved)
        assert np.array_equal(tri.opposite, opposite_half_edges(tri.simplices))
        assert out[0].tobytes() == _cell_centroids(moved, tri.points,
                                                   tri.simplices)[0].tobytes()
        _assert_fresh_qhull_up_to_cocircular_ties(tri, moved)

    @pytest.mark.parametrize("source", ["raw", "banded", "relaxed"])
    def test_opposite_table_matches_rebuild_from_simplices(self, source):
        carried, moved = _carried_and_moved(source)
        assert np.array_equal(carried.opposite,
                              opposite_half_edges(carried.simplices))
        tri = _flip_repaired(carried, moved)
        assert np.array_equal(tri.opposite, opposite_half_edges(tri.simplices))
        # the frame's four sides are the hull
        assert np.count_nonzero(tri.opposite < 0) == 4

    @pytest.mark.parametrize("n", [1600, 4096])
    def test_relax_matches_qhull_every_iteration(self, n):
        pts = _draw_seeds(GeneratorSpec("lloyd100", n))
        new, moves, _ = relax_points(pts, 100)
        ref, ref_moves = relax_points_qhull(pts, 100)
        assert np.abs(new - ref).max() < 1e-11
        assert np.abs(moves - ref_moves).max() < 1e-11

    def test_lloyd100_qhull_build_count(self, monkeypatch):
        # 1,600 seeds, seeds 0 and 1: the first iteration's banded build
        # relaxes the seeds, its triangulation repaired (a move that
        # inverts a triangle halved) through the other 99 iterations and
        # into the final mesh; a fresh final mesh takes one build more
        sizes = _counting_delaunay(monkeypatch)
        for seed in (0, 1):
            spec = GeneratorSpec("lloyd100", 1600, seed=seed)
            sizes.clear()
            generate(spec)
            assert len(sizes) == 1
            pts = relax_points(_draw_seeds(spec), 100)[0]
            assert len(sizes) == 2
            relax_points(pts, 0)
            assert len(sizes) == 3
        # at 4,096 and 6,400 seeds, at most one rebuild
        for n in (4096, 6400):
            sizes.clear()
            generate(GeneratorSpec("lloyd100", n))
            assert len(sizes) <= 2

    @pytest.mark.parametrize("n", [1600, 4096])
    def test_final_mesh_from_carried_triangulation(self, n, monkeypatch):
        # the last triangulation of relax_points, which gives the final
        # cells, is the last iteration's repaired: no qhull build
        spec = GeneratorSpec("lloyd100", n)
        sizes = _counting_delaunay(monkeypatch)
        builds = []

        def counted(cells, *args):
            before = len(sizes)
            out = certified(cells, *args)
            builds.append((cells, len(sizes) - before))
            return out

        certified = meshgen._certified_cells
        monkeypatch.setattr(meshgen, "_certified_cells", counted)
        pts, _, cells = relax_points(_draw_seeds(spec), 100)
        assert len(builds) == 101
        assert builds[-1] == (_seed_circumcentres, 0)
        mesh = _mesh_from_rings(*cells)
        _assert_same_mesh(mesh, generate(spec))
        _assert_same_cells(mesh, lloyd_relax(pts, 0))
        rings, coords = clipped_cells_per_cell(pts)
        _assert_same_cells(mesh, _mesh_from_rings(*flat_rings(rings), coords))

    def test_inverting_move_rebuilds_with_qhull(self, monkeypatch):
        carried, moved = _carried_and_moved("relaxed")
        # two neighbouring seeds swap places: their triangles invert
        a, b = carried.simplices[(carried.simplices < 400).all(axis=1)][0, :2]
        moved[[a, b]] = moved[[b, a]]
        assert _flip_repaired(carried, moved) is None
        band = 2.0 * delaunay_centroids(moved)[1]
        fresh = _certified_cells(_cell_centroids, moved, band)
        sizes = _counting_delaunay(monkeypatch)
        out, tri = _certified_cells(_cell_centroids, moved, band, carried)
        assert len(sizes) >= 1 and tri is not carried
        for x, y in zip(out, fresh[0]):
            assert np.asarray(x).tobytes() == np.asarray(y).tobytes()

    def test_nan_seed_is_refused(self):
        carried, moved = _carried_and_moved("banded")
        moved[7, 1] = np.nan
        assert _flip_repaired(carried, moved) is None
        with pytest.raises((ValueError, MeshError)):
            _certified_cells(_cell_centroids, moved, 0.2, carried)
        with pytest.raises((ValueError, MeshError)):
            relax_points(moved, 3)


def _triangulated(source, n):
    """n seeds and their triangulation: raw seeds fully mirrored or in a
    band of 4 / sqrt(n), or seeds after 20 Lloyd iterations in the band of
    twice their reach."""
    pts = np.random.default_rng(6).uniform(0.0, 1.0, (n, 2))
    band = 4.0 / np.sqrt(n) if source == "banded" else None
    if source == "relaxed":
        pts = relax_points(pts, 20)[0]
        band = 2.0 * delaunay_centroids(pts)[1]
    return pts, _delaunay(pts, band)


@pytest.mark.parametrize("n", [200, 1600])
@pytest.mark.parametrize("source", ["raw", "banded", "relaxed"])
class TestPerCoordinateArithmetic:
    """Lloyd's per-iteration arithmetic, on one coordinate at a time,
    against the fancy-index gathers and (x, y) axis sums it replaced:
    the same operations in the same order, so the same bits."""

    def test_circumcentres_and_centroids_match_axis_sum_oracle(self, source, n):
        pts, tri = _triangulated(source, n)
        simplices, (x, y), centres = _seed_circumcentres(pts, tri.points,
                                                         tri.simplices)
        ref = seed_circumcentres_axis_sums(pts, tri.points, tri.simplices)
        assert np.array_equal(simplices, ref[0])
        assert np.array_equal(np.stack([x, y], axis=-1), ref[1])
        assert np.array_equal(centres, ref[2])
        ours = _cell_centroids(pts, tri.points, tri.simplices)
        ref = cell_centroids_axis_sums(pts, tri.points, tri.simplices)
        for a, b in zip(ours, ref):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()

    def test_orientation_matches_fancy_index_oracle(self, source, n):
        # _delaunay orients qhull's output one column at a time; the
        # neighbour opposite corner j borders half-edge j + 1
        pts, tri = _triangulated(source, n)
        simplices, neighbors, opposite = delaunay_fancy_index(tri.points)
        for ours, ref in ((tri.simplices, simplices), (tri.opposite, opposite)):
            assert ours.dtype == ref.dtype and np.array_equal(ours, ref)
        across = np.where(tri.opposite >= 0, tri.opposite // 3, -1)
        assert np.array_equal(across.reshape(-1, 3)[:, _NEXT], neighbors)
        assert np.array_equal(tri.opposite, opposite_half_edges(simplices))

    def test_in_circle_matches_axis_sum_oracle(self, source, n, monkeypatch):
        # every interior edge of the triangulation, after the seeds moved
        # half a Lloyd step: some edges are illegal now
        pts, tri = _triangulated(source, n)
        moved = pts + 0.5 * (delaunay_centroids(pts)[0] - pts)
        points = np.vstack([_mirror(moved, tri.members), tri.points[-4:]])
        flat, half = tri.simplices.ravel(), np.arange(tri.opposite.size)
        edges = half[tri.opposite > half]
        corners = (flat[edges], flat[_next(edges)], flat[_prev(edges)],
                   flat[_prev(tri.opposite[edges])])
        illegal = _in_circle(points, *corners)
        assert illegal.any() and not illegal.all()
        assert np.array_equal(illegal, in_circle_axis_sums(points, *corners))
        # without the tie margin, the sign of a cocircular quad (two seeds
        # and their mirror images) is rounding noise
        monkeypatch.setattr(meshgen, "_INCIRCLE_TIE", 0.0)
        assert np.array_equal(_in_circle(points, *corners),
                              in_circle_axis_sums(points, *corners))


def test_orientation_of_a_build_with_a_point_left_out():
    # qhull leaves a repeated seed out of every triangle: no opposite table
    pts = np.random.default_rng(6).uniform(0.0, 1.0, (50, 2))
    pts[7] = pts[3]
    tri = _delaunay(pts)
    simplices, _, opposite = delaunay_fancy_index(tri.points)
    assert tri.opposite is None and opposite is None
    assert np.array_equal(tri.simplices, simplices)


def test_weld_merges_near_duplicate_vertices_of_a_perturbed_lattice():
    # Seeds 1e-11 off a 10 x 10 lattice: the two triangles at each lattice
    # corner inside the square or on a side have circumcentres closer than
    # _WELD_TOL, which only the weld merges, one vertex per corner.
    g = (np.arange(10) + 0.5) / 10
    lattice = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)
    pts = lattice + 1e-11 * np.random.default_rng(0).random((100, 2))
    flat, _, coords = relax_points(pts, 0)[2]
    used = np.unique(flat)
    assert len(cKDTree(coords[used]).query_pairs(_WELD_TOL)) == 117
    for mesh in (lloyd_relax(pts, 0), lloyd_relax(pts, 3)):
        assert mesh.num_cells == 100 and mesh.num_vertices == 121
        assert all(len(ring) == 4 for ring in cell_rings(mesh))


def _assert_same_mesh(mesh, ref):
    assert mesh.vertices.tobytes() == ref.vertices.tobytes()
    assert mesh.num_cells == ref.num_cells
    assert all(np.array_equal(a, b)
               for a, b in zip(cell_rings(mesh), cell_rings(ref)))


@pytest.mark.parametrize("source", ["perturbed_lattice", "lloyd100"])
def test_weld_matches_union_find_oracle(source):
    # the array weld keeps the numbering of the per-vertex union-find
    if source == "perturbed_lattice":
        g = (np.arange(10) + 0.5) / 10
        lattice = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)
        pts = lattice + 1e-11 * np.random.default_rng(0).random((100, 2))
    else:
        pts = relax_points(_draw_seeds(GeneratorSpec("lloyd100", 100)), 100)[0]
    flat, sizes, coords = relax_points(pts, 0)[2]
    _assert_same_mesh(_mesh_from_rings(flat, sizes, coords),
                      mesh_from_rings_union_find(flat, sizes, coords))


def test_weld_joins_a_chain_through_its_middle_vertex():
    # the centre of the square is three vertices, 0.8 _WELD_TOL apart in a
    # row: the ends (ids 0 and 5) are 1.6 _WELD_TOL apart and join only
    # through the middle one (id 6), the group's highest id
    step = 0.8 * _WELD_TOL
    coords = np.array([[0.5, 0.5], [0.0, 0.0], [1.0, 0.0], [1.0, 1.0],
                       [0.0, 1.0], [0.5 + 2 * step, 0.5], [0.5 + step, 0.5]])
    flat = np.array([1, 2, 0, 2, 3, 6, 3, 4, 5, 4, 1, 6])
    sizes = np.full(4, 3)
    assert len(cKDTree(coords).query_pairs(_WELD_TOL)) == 2
    mesh = _mesh_from_rings(flat, sizes, coords)
    assert mesh.num_vertices == 5
    assert np.array_equal(mesh.vertices[0], [0.5, 0.5])
    _assert_same_mesh(mesh, mesh_from_rings_union_find(flat, sizes, coords))


def test_weld_names_a_collapsed_cell():
    # vertices 1 and 2 of cell 1 weld into one, leaving it two vertices
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0],
                       [1.0, 1.0 + 1e-12]])
    flat, sizes = np.array([0, 1, 2, 1, 3, 4]), np.array([3, 3])
    for weld in (_mesh_from_rings, mesh_from_rings_union_find):
        with pytest.raises(MeshError,
                           match="Voronoi cell 1 collapsed during welding"):
            weld(flat, sizes, coords)


def test_generate_rejects_bad_family():
    with pytest.raises(ValueError):
        GeneratorSpec("hexagons", 10)


@pytest.mark.parametrize("field, kwargs", [
    ("lloyd_iterations", dict(lloyd_iterations=-1)),
    ("lloyd_iterations", dict(lloyd_iterations=2.0)),
    ("target_cells", dict(target_cells=2.5)),
    ("target_cells", dict(target_cells=0)),
    ("seed", dict(seed=1.5)),
    ("seed", dict(seed=-1)),
    ("target_cells", dict(target_cells=True)),
    ("seed", dict(seed=True)),
    ("lloyd_iterations", dict(lloyd_iterations=True)),
    ("lloyd0", dict(family="lloyd0", lloyd_iterations=5)),
])
def test_generator_spec_names_a_bad_field(field, kwargs):
    spec = dict(family="voronoi", target_cells=10) | kwargs
    with pytest.raises(ValueError, match=field):
        GeneratorSpec(**spec)


def test_generate_rejects_nonsquare_count():
    with pytest.raises(ValueError):
        generate(GeneratorSpec("square", 30))


@pytest.mark.parametrize("n", [1, 2, 5, 30])
@pytest.mark.parametrize("generator", [square_mesh, concave_mesh],
                         ids=["square", "concave"])
def test_flat_generators_match_make_mesh_of_their_rows(generator, n):
    # the square and concave generators hand their flat ids and fixed
    # offsets to the mesh: the same arrays and dtypes as make_mesh of the
    # (cells, n) table of their rings
    mesh = generator(n)
    rows = make_mesh(mesh.vertices, np.stack(cell_rings(mesh)))
    for field in dataclasses.fields(mesh):
        got, ref = getattr(mesh, field.name), getattr(rows, field.name)
        assert got.dtype == ref.dtype, field.name
        assert np.array_equal(got, ref), field.name


@pytest.mark.parametrize("n, message", [
    (2.7, "must be an integer, got 2.7"),
    ("3", "must be an integer, got '3'"),
    (True, "must be an integer, got True"),
    (0, "must be >= 1, got 0")])
@pytest.mark.parametrize("generator", [square_mesh, concave_mesh],
                         ids=["square", "concave"])
def test_flat_generators_name_a_bad_size(generator, n, message):
    # int() used to read 2.7 as 2, "3" as 3 and True as 1
    with pytest.raises(ValueError, match="n_per_side " + message):
        generator(n)


def test_all_families_pass_mesh_validation():
    # make_mesh re-validation: rebuild each generated mesh from raw arrays
    for spec in (GeneratorSpec("square", 25), GeneratorSpec("concave", 25),
                 GeneratorSpec("lloyd0", 25, seed=1),
                 GeneratorSpec("lloyd100", 25, seed=1)):
        mesh = generate(spec)
        rebuilt = make_mesh(mesh.vertices, cell_rings(mesh),
                            np.flatnonzero(mesh.boundary_vertices))
        assert rebuilt.num_cells == mesh.num_cells
