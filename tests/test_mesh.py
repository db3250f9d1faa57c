import dataclasses
import json

import numpy as np
import pytest

from oracles import edge_table_dicts
from vemlab.basis import polygon_quadrature
from vemlab.local import Coefficients, local_system, projector_set
from vemlab.mesh import (MeshError, element_geometry, geometry_stacks,
                         load_mesh, make_mesh, polygon_geometry,
                         regularity_report, save_mesh, stack_geometry, take)
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
            "cells": [r.tolist() for r in mesh.cells],
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
        ({"cells": 5}, "cells must be a list of vertex rings"),
        ({"boundary_vertices": [0, 1, 2, 9]},
         "boundary_vertices references a vertex id out of range"),
        ({"boundary_vertices": [0, 1, 2, -1]},
         "boundary_vertices references a vertex id out of range"),
        ({"boundary_vertices": [0, 1, 2, 3.9]},
         "boundary_vertices holds an entry that is not an integer"),
        ({"vertices": [[0, 0], [1, 0], [1, "1"], [0, 1]]},
         "vertex table holds an entry that is not a number"),
        ({"vertices": [[0, 0], [1, 0], [1], [0, 1]]}, "vertex table is ragged"),
    ], ids=["float_id", "bool_ids", "ragged_ring", "cells_not_a_list",
            "boundary_id_too_large", "boundary_id_negative",
            "boundary_id_float", "string_coordinate", "ragged_vertices"])
    def test_malformed_file_names_the_cause(self, tmp_path, change, message):
        with pytest.raises(MeshError, match=f"^{message}$"):
            load_mesh(write_json(tmp_path, dict(UNIT_SQUARE, **change)))

    def test_integer_arrays_accepted(self):
        rings = np.array([[0, 1, 2, 3]], dtype=np.uint32)
        mesh = make_mesh(np.array(UNIT_SQUARE["vertices"]), rings,
                         np.arange(4, dtype=np.int32))
        assert mesh.cells[0].dtype == int
        assert np.array_equal(mesh.cells[0], [0, 1, 2, 3])


STRIP = [[x, y] for y in (0, 1) for x in range(4)]  # three unit squares


class TestEdgeTable:
    @pytest.mark.parametrize("spec", [
        GeneratorSpec("square", 25), GeneratorSpec("concave", 25),
        GeneratorSpec("lloyd0", 100, seed=2),
        GeneratorSpec("lloyd100", 100, seed=2),
    ], ids=lambda spec: spec.family)
    def test_matches_dict_oracle(self, spec):
        mesh = generate(spec)
        edge_vertices, _, cell_edges = edge_table_dicts(mesh.cells)
        assert mesh.edge_vertices.dtype == edge_vertices.dtype
        assert np.array_equal(mesh.edge_vertices, edge_vertices)
        assert len(mesh.cell_edges) == len(cell_edges)
        for got, ref in zip(mesh.cell_edges, cell_edges):
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
    ])
    def test_round_trip_bit_exact(self, tmp_path, spec):
        mesh = generate(spec)
        path = str(tmp_path / "m.json")
        save_mesh(mesh, path)
        back = load_mesh(path)
        assert np.array_equal(back.vertices, mesh.vertices)
        assert len(back.cells) == len(mesh.cells)
        for a, b in zip(back.cells, mesh.cells):
            assert np.array_equal(a, b)
        assert np.array_equal(back.boundary_vertices, mesh.boundary_vertices)

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
        for ring in mesh.cells:
            coords = mesh.vertices[ring]
            forward = np.ones(len(ring), dtype=bool)
            _assert_same_record(
                polygon_geometry(coords),
                take(stack_geometry(coords[None], forward[None]), 0))


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


class TestRegularity:
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
