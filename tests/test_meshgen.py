import numpy as np
import pytest

import vemlab.meshgen as meshgen
from oracles import (clipped_cells_per_cell, cvt_energy, reflex_vertices,
                     relax_points_per_cell, sees_all_of_polygon)
from vemlab.mesh import MeshError, element_geometry, make_mesh
from vemlab.meshgen import (GeneratorSpec, _banded_rings, _centroids,
                            _clipped_cells, _draw_seeds, _mesh_from_rings,
                            _voronoi_rings, concave_mesh, generate,
                            lloyd_relax, relax_points, square_mesh,
                            voronoi_mesh)


class TestSquareFamily:
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
        assert element_geometry(mesh, 0).num_vertices == 8

    def test_star_shaped_visibility_oracle(self):
        # direct visibility check from the kernel point found by the library
        from vemlab.mesh import _kernel_chebyshev
        from scipy.optimize import linprog

        mesh = concave_mesh(1)
        for ci in range(mesh.num_cells):
            coords = element_geometry(mesh, ci).vertices
            assert _kernel_chebyshev(coords) > 0.0
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
        assert all(np.array_equal(x, y) for x, y in zip(a.cells, b.cells))

    def test_cells_convex(self):
        mesh = generate(GeneratorSpec("lloyd0", 50, seed=8))
        for ci in range(mesh.num_cells):
            coords = element_geometry(mesh, ci).vertices
            assert len(reflex_vertices(coords)) == 0

    def test_lloyd100_deterministic(self):
        a = generate(GeneratorSpec("lloyd100", 25, seed=7))
        b = generate(GeneratorSpec("lloyd100", 25, seed=7))
        assert np.array_equal(a.vertices, b.vertices)


class TestLloyd:
    def test_zero_iterations_noop(self):
        s0 = GeneratorSpec("voronoi", 40, seed=13, lloyd_iterations=0)
        s1 = GeneratorSpec("lloyd0", 40, seed=13)
        a, b = generate(s0), generate(s1)
        assert np.array_equal(a.vertices, b.vertices)

    def test_symmetric_four_seeds_fixed_point(self):
        seeds = np.array([[.25, .25], [.75, .25], [.25, .75], [.75, .75]])
        pts, movement = relax_points(seeds, 1)
        assert movement[0] < 1e-14
        assert np.allclose(pts, seeds, atol=1e-14)
        mesh = lloyd_relax(seeds, 1)
        assert mesh.num_cells == 4
        areas = [element_geometry(mesh, ci).area for ci in range(4)]
        assert np.allclose(areas, 0.25)

    def test_fixed_point_convergence_100_seeds(self):
        # Lloyd's descent property: the CVT quantization energy never
        # increases, and the movement norm decays strongly overall (its raw
        # sequence may tick up when cell topology flips, so the trend is
        # asserted through windowed maxima).
        rng = np.random.default_rng(0)
        pts = rng.uniform(0, 1, (100, 2))
        energies = []
        for _ in range(100):
            rings, coords = _clipped_cells(pts)
            energies.append(cvt_energy(pts, rings, coords))
            pts, _ = relax_points(pts, 1)
        rings, coords = _clipped_cells(pts)
        energies.append(cvt_energy(pts, rings, coords))
        assert np.all(np.diff(energies) <= 1e-15)

        _, movement = relax_points(np.random.default_rng(0).uniform(0, 1, (100, 2)), 100)
        assert movement[-10:].max() < movement[10:20].max()
        assert movement[-1] < 0.05 * movement[0]


def _counting_voronoi(monkeypatch):
    """Replace the qhull entry point of meshgen; returns the input sizes."""
    sizes = []

    def counted(points, *args, **kwargs):
        sizes.append(len(points))
        return Voronoi(points, *args, **kwargs)

    Voronoi = meshgen.Voronoi
    monkeypatch.setattr(meshgen, "Voronoi", counted)
    return sizes


class TestFlatVoronoi:
    @pytest.mark.parametrize("n", [25, 100, 400])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_lloyd0_mesh_byte_identical_to_per_cell_oracle(self, n, seed):
        spec = GeneratorSpec("lloyd0", n, seed=seed)
        pts = _draw_seeds(spec)
        rings, coords = _clipped_cells(pts)
        ref_rings, ref_coords = clipped_cells_per_cell(pts)
        assert coords.tobytes() == ref_coords.tobytes()
        assert len(rings) == len(ref_rings)
        assert all(np.array_equal(a, b) for a, b in zip(rings, ref_rings))
        mesh, ref = generate(spec), _mesh_from_rings(ref_rings, ref_coords)
        assert mesh.vertices.tobytes() == ref.vertices.tobytes()
        assert all(np.array_equal(a, b) for a, b in zip(mesh.cells, ref.cells))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_relax_matches_per_cell_oracle(self, seed):
        pts = np.random.default_rng(seed).uniform(0.0, 1.0, (200, 2))
        new, moves = relax_points(pts, 100)
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
                _voronoi_rings(pts, band)
        else:
            flat, _, coords = _voronoi_rings(pts, band)
            assert np.any((coords[flat] < 0.0) | (coords[flat] > 1.0))
        full = _voronoi_rings(pts)
        sizes = _counting_voronoi(monkeypatch)
        banded = _banded_rings(pts, band)
        # the band diagram failed the certificate, then full mirroring ran
        assert len(sizes) == 2
        assert sizes[1] == 5 * len(pts) > sizes[0]
        for a, b in zip(banded, full):
            assert a.tobytes() == b.tobytes()

    def test_certified_band_cells_equal_clipped_cells(self, monkeypatch):
        pts = relax_points(np.random.default_rng(3).uniform(0, 1, (200, 2)), 5)[0]
        full = _voronoi_rings(pts)
        sizes = _counting_voronoi(monkeypatch)
        banded = _banded_rings(pts, 0.1)
        assert len(sizes) == 1 and sizes[0] < 5 * len(pts)
        assert np.array_equal(np.diff(banded[1]), np.diff(full[1]))
        assert np.abs(_centroids(*banded) - _centroids(*full)).max() < 1e-13

    def test_band_mirroring_feeds_qhull_fewer_points(self, monkeypatch):
        n = 400
        pts = np.random.default_rng(2).uniform(0.0, 1.0, (n, 2))
        sizes = _counting_voronoi(monkeypatch)
        relax_points(pts, 20)
        assert len(sizes) == 20
        assert sizes[0] == 5 * n
        assert max(sizes[1:]) < 2 * n

    def test_single_seed_relaxes_to_square_centroid(self):
        pts, movement = relax_points([[0.3, 0.6]], 3)
        assert np.array_equal(pts, [[0.5, 0.5]])
        assert movement[0] == pytest.approx(np.hypot(0.2, 0.1))
        assert np.all(movement[1:] == 0.0)

    @pytest.mark.parametrize("outside", [(3.0, 0.5), (0.5, -2.0)])
    def test_unbounded_region_raises(self, outside):
        pts = np.array([[0.2, 0.2], [0.8, 0.7], outside])
        with pytest.raises(MeshError, match="unbounded Voronoi region"):
            _clipped_cells(pts)
        with pytest.raises(MeshError, match="unbounded Voronoi region"):
            relax_points(pts, 1)


def test_generate_rejects_bad_family():
    with pytest.raises(ValueError):
        GeneratorSpec("hexagons", 10)


def test_generate_rejects_nonsquare_count():
    with pytest.raises(ValueError):
        generate(GeneratorSpec("square", 30))


def test_all_families_pass_mesh_validation():
    # make_mesh re-validation: rebuild each generated mesh from raw arrays
    for spec in (GeneratorSpec("square", 25), GeneratorSpec("concave", 25),
                 GeneratorSpec("lloyd0", 25, seed=1),
                 GeneratorSpec("lloyd100", 25, seed=1)):
        mesh = generate(spec)
        rebuilt = make_mesh(mesh.vertices, mesh.cells,
                            np.flatnonzero(mesh.boundary_vertices))
        assert rebuilt.num_cells == mesh.num_cells
