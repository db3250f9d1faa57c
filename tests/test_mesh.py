import dataclasses
import json
import time
import tracemalloc

import numpy as np
import pytest

from oracles import cell_edges, cell_rings, edge_table_dicts, kernel_radius_lp
from vemlab.basis import polygon_quadrature
from vemlab.local import Coefficients, local_system, projector_set
from vemlab.mesh import (MeshError, _diameters, element_geometry,
                         geometry_stacks, load_mesh, make_mesh,
                         polygon_geometry, regularity_report, save_mesh,
                         stack_geometry, take)
from vemlab.meshgen import GeneratorSpec, generate, square_mesh

UNIT_SQUARE = {"vertices": [[0, 0], [1, 0], [1, 1], [0, 1]], "cells": [[0, 1, 2, 3]]}


def write_json(tmp_path, doc, name="mesh.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestLoadMesh:
    def test_unit_square(self, tmp_path):
        mesh = load_mesh(write_json(tmp_path, UNIT_SQUARE))
        assert mesh.num_cells == 1
        assert mesh.num_vertices == 4
        assert len(mesh.boundary_edges()) == 4
        assert mesh.boundary_vertices.all()

    def test_reversed_ring_names_cell(self, tmp_path):
        doc = {"vertices": UNIT_SQUARE["vertices"], "cells": [[3, 2, 1, 0]]}
        with pytest.raises(MeshError, match="cell 0"):
            load_mesh(write_json(tmp_path, doc))

    def test_5x5_grid_counts(self, tmp_path):
        mesh = square_mesh(5)
        path = write_json(tmp_path, {
            "vertices": mesh.vertices.tolist(),
            "cells": [r.tolist() for r in cell_rings(mesh)],
        })
        loaded = load_mesh(path)
        assert loaded.num_cells == 25
        assert loaded.num_vertices == 36
        assert len(loaded.boundary_edges()) == 20

    def test_parse_failure(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(MeshError, match="cannot read"):
            load_mesh(str(path))

    def test_missing_key(self, tmp_path):
        with pytest.raises(MeshError, match="required key"):
            load_mesh(write_json(tmp_path, {"vertices": [[0, 0]]}))

    def test_top_level_list(self, tmp_path):
        # used to say "lacks required key: list indices must be integers
        # or slices, not str"
        with pytest.raises(MeshError, match='is not a JSON object with '
                                            '"vertices" and "cells"$'):
            load_mesh(write_json(tmp_path, [UNIT_SQUARE]))

    def test_non_manifold_edge(self):
        # three triangles all sharing edge (0, 1)
        verts = [[0, 0], [1, 0], [0, 1], [1, 1], [0.5, -1]]
        cells = [[0, 1, 2], [1, 0, 4], [0, 1, 3]]
        with pytest.raises(MeshError, match=r"(non-manifold|traversed twice)"):
            make_mesh(verts, cells)

    def test_repeated_vertex_in_ring(self):
        with pytest.raises(MeshError, match="repeats"):
            make_mesh(UNIT_SQUARE["vertices"], [[0, 1, 1, 2]])

    @pytest.mark.parametrize("cells, message", [
        ([[0, 1, 5, 4], [1, 5, 6, 2], [2, 3, 3, 7]], "cell 1 is not counterclockwise"),
        ([[0, 1, 5, 4], [1, 2, 2, 5], [6, 7, 3, 2]], "cell 1 repeats a vertex id"),
        ([[0, 1, 5, 4], [1, 2, 6, 5], [6, 7, 3, 2]], "cell 2 is not counterclockwise"),
        ([[0, 1, 5, 4], [1, 5, 6, 2], [2, 3]], "cell 1 is not counterclockwise"),
        ([[0, 1, 5, 4], [1, 5, 6, 2], [6, 7, 3, 2]], "cell 1 is not counterclockwise"),
        ([[0, 1, 5, 4], [1, 2, 2, 5], [2, 3]], "cell 1 repeats a vertex id"),
        ([[0, 1, 5, 4], [1, 2, 6, 5], [2, 3, 99]], "cell 2 references a vertex id out of range"),
    ])
    def test_first_invalid_cell_named(self, cells, message):
        # a strip of three unit squares; the ring checks run over all cells
        # at once but must still report the first offending one
        verts = [[x, y] for y in (0, 1) for x in range(4)]
        with pytest.raises(MeshError, match=f"^{message}"):
            make_mesh(verts, cells)

    def test_short_ring(self):
        with pytest.raises(MeshError, match="fewer than 3"):
            make_mesh(UNIT_SQUARE["vertices"], [[0, 1]])

    def test_empty_cell_list_is_named(self):
        # a mesh of no cells used to pass here and fail later, in assemble,
        # with NumPy's "need at least one array to concatenate"
        with pytest.raises(MeshError, match="cell list is empty"):
            make_mesh(np.zeros((0, 2)), [])

    def test_inconsistent_boundary_list(self, tmp_path):
        doc = dict(UNIT_SQUARE, boundary_vertices=[0, 1])
        with pytest.raises(MeshError, match="boundary"):
            load_mesh(write_json(tmp_path, doc))

    @pytest.mark.parametrize("change, message", [
        ({"cells": [[0, 1, 2.7, 3]]}, "cell 0 holds an entry that is not an integer"),
        ({"cells": [[False, True, 2, 3]]}, "cell 0 holds an entry that is not an integer"),
        ({"cells": [[0, 1, [2, 3]]]}, "cell 0 is ragged"),
        ({"cells": [[[0, 1], [2, 3]]]},
         "cell 0 is not a flat list of vertex ids"),
        ({"cells": 5}, "cells must be a list of vertex rings"),
        ({"boundary_vertices": [0, 1, 2, 9]},
         "boundary_vertices references a vertex id out of range"),
        ({"boundary_vertices": [0, 1, 2, -1]},
         "boundary_vertices references a vertex id out of range"),
        ({"boundary_vertices": [0, 1, 2, 3.9]},
         "boundary_vertices holds an entry that is not an integer"),
        ({"boundary_vertices": [[0, 1], [2, 3]]},
         "boundary_vertices is not a flat list of vertex ids"),
        ({"boundary_vertices": 3},
         "boundary_vertices is not a flat list of vertex ids"),
        ({"vertices": [[0, 0], [1, 0], [1, "1"], [0, 1]]},
         "vertex table holds an entry that is not a number"),
        ({"vertices": [[0, 0], [1, 0], [1], [0, 1]]}, "vertex table is ragged"),
        ({"vertices": [[0, 0], [1, 0], [True, 1], [0, 1]]},
         "vertex table holds an entry that is not a number"),
    ], ids=["float_id", "bool_ids", "ragged_ring", "nested_ring",
            "cells_not_a_list", "boundary_id_too_large",
            "boundary_id_negative", "boundary_id_float", "nested_boundary",
            "scalar_boundary", "string_coordinate", "ragged_vertices",
            "bool_coordinate"])
    def test_malformed_file_names_the_cause(self, tmp_path, change, message):
        with pytest.raises(MeshError, match=f"^{message}$"):
            load_mesh(write_json(tmp_path, dict(UNIT_SQUARE, **change)))

    def test_bool_in_a_tuple_ring_is_named(self):
        # a boolean below the top level of a list used to read as 1: here
        # "cell 0 repeats a vertex id"
        with pytest.raises(MeshError, match="^cell 0 holds an entry that is "
                                            "not an integer$"):
            make_mesh(UNIT_SQUARE["vertices"], [(0, 1, 2, True)])

    def test_boundary_vertices_array_must_be_flat(self):
        # a 2-D array naming every boundary vertex of square_mesh(2) was
        # accepted
        square = square_mesh(2)
        with pytest.raises(MeshError, match="^boundary_vertices is not a "
                                            "flat list of vertex ids$"):
            make_mesh(square.vertices, cell_rings(square),
                      np.array([[0, 1, 2, 3], [5, 6, 7, 8]]))

    def test_orphan_vertex_is_named(self, tmp_path):
        # a vertex no ring uses was accepted, and its DoF became an unknown
        # with an empty row: the run failed blaming the solver's stability
        square = square_mesh(4)
        n = square.num_vertices
        vertices = np.vstack([square.vertices, [[0.3, 0.7], [0.6, 0.2]]])
        cells = [ring.tolist() for ring in cell_rings(square)]
        message = f"^vertex {n} is used by no cell$"
        with pytest.raises(MeshError, match=message):
            make_mesh(vertices, cells)
        doc = {"vertices": vertices.tolist(), "cells": cells}
        with pytest.raises(MeshError, match=message):
            load_mesh(write_json(tmp_path, doc))

    def test_integer_arrays_accepted(self):
        rings = np.array([[0, 1, 2, 3]], dtype=np.uint32)
        mesh = make_mesh(np.array(UNIT_SQUARE["vertices"]), rings,
                         np.arange(4, dtype=np.int32))
        assert mesh.ring(0).dtype == int
        assert np.array_equal(mesh.ring(0), [0, 1, 2, 3])


STRIP = [[x, y] for y in (0, 1) for x in range(4)]  # three unit squares


class TestEdgeTable:
    @pytest.mark.parametrize("spec", [
        GeneratorSpec("square", 25), GeneratorSpec("concave", 25),
        GeneratorSpec("lloyd0", 100, seed=2),
        GeneratorSpec("lloyd100", 100, seed=2),
    ], ids=lambda spec: spec.family)
    def test_matches_dict_oracle(self, spec):
        mesh = generate(spec)
        edge_vertices, _, ref_edges = edge_table_dicts(cell_rings(mesh))
        assert mesh.edge_vertices.dtype == edge_vertices.dtype
        assert np.array_equal(mesh.edge_vertices, edge_vertices)
        assert mesh.num_cells == len(ref_edges)
        for c, ref in enumerate(ref_edges):
            got = cell_edges(mesh, c)
            assert got.dtype == ref.dtype
            assert np.array_equal(got, ref)

    @pytest.mark.parametrize("verts, cells", [
        # three triangles on edge (0, 1)
        ([[0, 0], [1, 0], [0, 1], [1, 1], [0.5, -1]],
         [[0, 1, 2], [1, 0, 4], [0, 1, 3]]),
        (STRIP, [[0, 1, 5, 4], [1, 2, 6, 5], [0, 1, 5, 4]]),
        # the last cell overlaps the second and third, and repeats the
        # direction of edge (3, 7) after a new edge
        (STRIP, [[0, 1, 5, 4], [1, 2, 6, 5], [2, 3, 7, 6], [1, 3, 7, 5]]),
        (STRIP, [[0, 1, 5, 4], [1, 2, 6, 5], [2, 3, 7, 6], [0, 1, 6, 5]]),
    ])
    def test_errors_match_dict_oracle(self, verts, cells):
        with pytest.raises(MeshError) as ref:
            edge_table_dicts([np.asarray(c) for c in cells])
        with pytest.raises(MeshError) as got:
            make_mesh(verts, cells)
        assert str(got.value) == str(ref.value)


class TestSaveMesh:
    @pytest.mark.parametrize("spec", [
        GeneratorSpec("square", 25),
        GeneratorSpec("lloyd0", 100, seed=5),
        GeneratorSpec("concave", 25),
        GeneratorSpec("lloyd100", 100, seed=5),
    ])
    def test_round_trip_bit_exact(self, tmp_path, spec):
        mesh = generate(spec)
        path = str(tmp_path / "m.json")
        save_mesh(mesh, path)
        back = load_mesh(path)
        for name in ("vertices", "rings", "offsets", "cell_edges",
                     "edge_vertices", "boundary_vertices"):
            got, want = getattr(back, name), getattr(mesh, name)
            assert got.dtype == want.dtype, name
            assert np.array_equal(got, want), name

    def test_unwritable_path(self):
        mesh = square_mesh(2)
        with pytest.raises(OSError):
            save_mesh(mesh, "/nonexistent-dir/mesh.json")


def _assert_same_record(got, want):
    assert type(got) is type(want)
    for f in dataclasses.fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert type(a) is type(b), f.name
        assert np.shape(a) == np.shape(b), f.name
        assert np.array_equal(a, b), f.name


class TestElementGeometry:
    def test_unit_square(self):
        geom = polygon_geometry(np.array(UNIT_SQUARE["vertices"], dtype=float))
        assert geom.area == pytest.approx(1.0, abs=1e-15)
        assert geom.centroid == pytest.approx([0.5, 0.5], abs=1e-15)
        assert geom.diameter == pytest.approx(np.sqrt(2.0), abs=1e-15)

    def test_triangle(self):
        geom = polygon_geometry(np.array([[0, 0], [1, 0], [0, 1]], dtype=float))
        assert geom.area == pytest.approx(0.5, abs=1e-15)
        assert geom.centroid == pytest.approx([1 / 3, 1 / 3], abs=1e-15)

    def test_closed_polygon_identity_on_voronoi_cells(self):
        mesh = generate(GeneratorSpec("lloyd0", 100, seed=1))
        for ci in range(mesh.num_cells):
            geom = element_geometry(mesh, ci)
            resultant = (geom.edge_lengths[:, None] * geom.edge_normals).sum(axis=0)
            assert np.abs(resultant).max() < 1e-12

    def test_degenerate_cell_rejected(self):
        flat = np.array([[0, 0], [1, 0], [2, 0]], dtype=float)
        with pytest.raises(MeshError):
            polygon_geometry(flat)

    def test_outward_normals(self):
        geom = polygon_geometry(np.array(UNIT_SQUARE["vertices"], dtype=float))
        expected = np.array([[0, -1], [1, 0], [0, 1], [-1, 0]], dtype=float)
        assert np.allclose(geom.edge_normals, expected)

    @pytest.mark.parametrize("family", ["concave", "lloyd0"])
    def test_is_row_zero_of_its_stack(self, family):
        # one polygon's geometry is row 0 of the stack of that polygon,
        # bit for bit and with the same types
        mesh = generate(GeneratorSpec(family, 25, seed=4))
        for ring in cell_rings(mesh):
            coords = mesh.vertices[ring]
            forward = np.ones(len(ring), dtype=bool)
            _assert_same_record(
                polygon_geometry(coords),
                take(stack_geometry(coords[None], forward[None]), 0))

    @pytest.mark.parametrize("cell", [-16, -1, 16, 2.0, True],
                             ids=["minus16", "minus1", "16", "float", "bool"])
    def test_ring_names_a_cell_out_of_range(self, cell):
        # a negative index must not wrap round to another cell's ring (or
        # an empty one), and the error names the cell, not NumPy's indexing
        mesh = square_mesh(4)
        for gather in (mesh.ring, lambda c: element_geometry(mesh, c)):
            with pytest.raises(ValueError, match="cell must be"):
                gather(cell)

    def test_ring_takes_a_numpy_integer(self):
        mesh = square_mesh(4)
        assert np.array_equal(mesh.ring(np.int64(3)), mesh.ring(3))
        _assert_same_record(element_geometry(mesh, np.int64(3)),
                            element_geometry(mesh, 3))


    @pytest.mark.parametrize("n", [6, 12])
    def test_diameters_work_in_ring_sized_temporaries(self, n):
        # one vertex against the ring at a time: (C, n) temporaries where
        # the all-pairs (C, n, n) differences peaked at 22 MB on 20,000
        # hexagons (88 MB on 12-gons), against 1.9 MB (3.8 MB) of
        # coordinates; the diameters keep the all-pairs bits
        coords = np.random.default_rng(n).random((2000, n, 2))
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            got = _diameters(coords)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak <= 3 * coords.nbytes
        diff = coords[:, :, None, :] - coords[:, None, :, :]
        assert np.array_equal(
            got, np.sqrt((diff ** 2).sum(-1).max(axis=(1, 2))))


class TestTake:
    PENTAGON = polygon_geometry(
        [[0, 0], [1.1, -0.1], [1.5, 0.8], [0.6, 1.3], [-0.2, 0.7]])

    @pytest.mark.parametrize("record", ["mesh row", "polygon", "projectors",
                                        "forms", "rule"])
    def test_stack_of_one_round_trip(self, record):
        geom = self.PENTAGON
        r = {"mesh row": lambda: take(next(geometry_stacks(square_mesh(3))), 4),
             "polygon": lambda: geom,
             "projectors": lambda: projector_set(geom, 3),
             "forms": lambda: local_system(
                 geom, 3, Coefficients.constant(2.0, (0.5, -1.0), 1.0, 3.0)),
             "rule": lambda: polygon_quadrature(geom, 5)}[record]()
        one = take(r, None)
        for f in dataclasses.fields(r):
            value = getattr(r, f.name)
            if isinstance(value, np.ndarray):
                assert getattr(one, f.name).shape == (1,) + value.shape
        _assert_same_record(take(one, 0), r)

    def test_rows_slices_and_index_arrays(self):
        mesh = generate(GeneratorSpec("lloyd0", 30, seed=2))
        stack = max(geometry_stacks(mesh), key=len)
        for rows, picked in ((np.array([3, 0, 2]), [3, 0, 2]),
                             (slice(1, 4), [1, 2, 3])):
            part = take(stack, rows)
            assert np.array_equal(part.cells, stack.cells[picked])
            for i, row in enumerate(picked):
                _assert_same_record(take(part, i), take(stack, row))


def _regular_polygon(n):
    t = 2.0 * np.pi * np.arange(n) / n
    return make_mesh(0.5 + 0.4 * np.column_stack([np.cos(t), np.sin(t)]),
                     [np.arange(n)])


# three 0.2-wide teeth on a 0.2-high base: no point sees every tooth's tip
COMB = make_mesh([[0, 0], [1, 0], [1, 1], [0.8, 1], [0.8, 0.2], [0.6, 0.2],
                  [0.6, 1], [0.4, 1], [0.4, 0.2], [0.2, 0.2], [0.2, 1],
                  [0, 1]], [np.arange(12)])
# a square whose right cell has a collinear vertex at (0.5, 0.5)
HANGING = make_mesh([[0, 0], [0.5, 0], [1, 0], [0, 0.5], [0.5, 0.5], [0, 1],
                     [0.5, 1], [1, 1]],
                    [[0, 1, 4, 3], [3, 4, 6, 5], [1, 2, 7, 6, 4]])
# two cells whose shared boundary steps right by a 1e-10 edge at y = 0.5
TINY_EDGE = make_mesh([[0, 0], [0.5, 0], [1, 0], [1, 1], [0.5 + 1e-10, 1],
                       [0, 1], [0.5, 0.5], [0.5 + 1e-10, 0.5]],
                      [[0, 1, 6, 7, 4, 5], [1, 2, 3, 4, 7, 6]])


class TestRegularity:
    @pytest.mark.parametrize("build", [
        lambda: square_mesh(5),
        lambda: generate(GeneratorSpec("concave", 25)),
        lambda: generate(GeneratorSpec("lloyd0", 400, seed=7)),
        lambda: generate(GeneratorSpec("lloyd100", 100, seed=1)),
        lambda: COMB, lambda: HANGING, lambda: TINY_EDGE,
        lambda: _regular_polygon(40)],
        ids=["square", "concave", "lloyd0", "lloyd100", "comb", "hanging",
             "tiny_edge", "40-gon"])
    def test_matches_per_cell_lp(self, build):
        # the closed form over edge triples against one linear program
        # per cell; the edge ratios against each cell's own geometry
        mesh = build()
        rep = regularity_report(mesh)
        geoms = [element_geometry(mesh, ci) for ci in range(mesh.num_cells)]
        rho = [kernel_radius_lp(g.vertices) / g.diameter for g in geoms]
        ratio = [g.edge_lengths.min() / g.diameter for g in geoms]
        assert np.abs(rep.rho - rho).max() <= 1e-12
        assert np.array_equal(rep.edge_ratio, ratio)
        assert rep.min_edge_ratio == min(ratio)
        assert np.array_equal(rep.non_star_cells,
                              np.flatnonzero(np.array(rho) <= 1e-12))

    def test_empty_kernel_reads_zero(self):
        rep = regularity_report(COMB)
        assert rep.rho[0] == 0.0 and rep.min_rho == 0.0
        assert np.array_equal(rep.non_star_cells, [0])

    def test_blocks_keep_the_largest_disk(self, monkeypatch):
        # 64 (cell, triple) pairs per block: the 9,880 triples of a 40-gon
        # take 155 blocks, and the largest disk is the inscribed one
        monkeypatch.setattr("vemlab.mesh._KERNEL_BYTES", 64 * (16 * 40 + 320))
        mesh = _regular_polygon(40)
        rho = regularity_report(mesh).rho[0]
        geom = element_geometry(mesh, 0)
        assert abs(rho - np.cos(np.pi / 40) / 2) <= 1e-12
        assert abs(rho - kernel_radius_lp(geom.vertices) / geom.diameter) <= 1e-12

    def test_lloyd100_1600_is_fast(self):
        # one linear program per cell took 4-5 s on a 2-vCPU VM, the
        # stacked closed form 0.02-0.04 s
        mesh = generate(GeneratorSpec("lloyd100", 1600, seed=0))
        start = time.perf_counter()
        regularity_report(mesh)
        assert time.perf_counter() - start < 1.0

    def test_unit_square_rho(self):
        mesh = square_mesh(1)
        rep = regularity_report(mesh)
        assert rep.rho[0] == pytest.approx(0.5 / np.sqrt(2.0), abs=1e-6)
        assert rep.non_star_cells.size == 0

    def test_concave_cells_star_shaped(self):
        mesh = generate(GeneratorSpec("concave", 25))
        rep = regularity_report(mesh)
        assert rep.min_rho > 0.01
        assert rep.non_star_cells.size == 0

    def test_lloyd_improves_edge_ratio(self):
        r0 = regularity_report(generate(GeneratorSpec("lloyd0", 100, seed=2)))
        r100 = regularity_report(generate(GeneratorSpec("lloyd100", 100, seed=2)))
        assert r100.min_edge_ratio > r0.min_edge_ratio

    def test_rho_in_unit_interval(self):
        mesh = generate(GeneratorSpec("lloyd0", 40, seed=9))
        rep = regularity_report(mesh)
        assert np.all(rep.rho > 0.0)
        assert np.all(rep.rho <= 1.0)


def test_partition_of_unity_all_families():
    for spec in (GeneratorSpec("square", 100), GeneratorSpec("concave", 100),
                 GeneratorSpec("lloyd0", 100, seed=3),
                 GeneratorSpec("lloyd100", 100, seed=3)):
        mesh = generate(spec)
        total = sum(element_geometry(mesh, ci).area for ci in range(mesh.num_cells))
        assert total == pytest.approx(1.0, rel=1e-12)
