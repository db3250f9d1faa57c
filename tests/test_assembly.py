"""Global DoF numbering, sparse assembly, boundary elimination, and solves."""

import dataclasses
import re
import time

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from oracles import (assemble_per_cell, bank_per_cell, bank_representatives,
                     build_dofmap_per_cell, cell_edges, cell_rings,
                     full_system_per_cell, interpolate_per_cell)
from vemlab import assembly, local
from vemlab.assembly import (DofMap, SolveError, SparseSystem, apply_dirichlet,
                             assemble, build_dofmap, interpolate, solve)
from vemlab.basis import n_poly, triangulate_stack
from vemlab.harness import _run_single
from vemlab.local import (Coefficients, dof_layout, element_bank,
                          interpolate_dofs, projector_set)
from vemlab.mesh import element_geometry, geometry_stacks, make_mesh
from vemlab.meshgen import GeneratorSpec, concave_mesh, generate, square_mesh
from vemlab.problems import builtin_problem, polynomial_problem

KAPPA = np.array([[2.0, 0.5], [0.5, 1.5]])


def _mesh_bank():
    return {
        "square": square_mesh(3),
        "concave": concave_mesh(3),
        "lloyd0": generate(GeneratorSpec("lloyd0", 25, seed=7)),
        "lloyd100": generate(GeneratorSpec("lloyd100", 25, seed=3)),
    }


MESHES = _mesh_bank()
LLOYD0_400 = generate(GeneratorSpec("lloyd0", 400, seed=0))


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
            # interior and boundary DoFs partition the vertex and edge
            # DoFs; the internal moments, condensed out, are in neither
            assert dm.n_dofs == (dm.interior_dofs.size + dm.boundary_dofs.size
                                 + dm.n_internal_dofs)
            assert np.array_equal(
                np.union1d(dm.interior_dofs, dm.boundary_dofs),
                np.arange(dm.n_skeleton_dofs))

    def test_cell_dofs_match_local_layout(self):
        mesh = MESHES["lloyd0"]
        k = 3
        dm = build_dofmap(mesh, k)
        for c in range(mesh.num_cells):
            ring = mesh.ring(c)
            geom = element_geometry(mesh, c)
            layout = dof_layout(geom, k)
            g = dm.cell_dofs(c)
            assert g.size == layout.n_dofs
            assert np.array_equal(g[:len(ring)], ring)
            for le, e in enumerate(cell_edges(mesh, c)):
                for j in range(k - 1):
                    assert (g[layout.edge_slot(le, j)]
                            == dm.n_vertex_dofs + e * (k - 1) + j)
            tail = g[len(ring) * k:]
            assert np.array_equal(tail, np.arange(tail[0], tail[0] + tail.size))

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("family", sorted(MESHES))
    def test_matches_per_cell_numbering(self, family, k):
        # the per-vertex-count array passes number every DoF as the
        # per-cell loop does
        mesh = MESHES[family]
        dm = build_dofmap(mesh, k)
        cell_dofs, boundary, interior = build_dofmap_per_cell(mesh, k)
        assert dm.offsets.size - 1 == len(cell_dofs)
        for c, ref in enumerate(cell_dofs):
            got = dm.cell_dofs(c)
            assert got.dtype == ref.dtype and np.array_equal(got, ref)
        for got, ref in ((dm.boundary_dofs, boundary),
                         (dm.interior_dofs, interior)):
            assert got.dtype == ref.dtype and np.array_equal(got, ref)

    def test_boundary_dofs(self):
        mesh = square_mesh(2)
        dm = build_dofmap(mesh, 2)
        # 8 boundary vertices + 8 boundary-edge moments; 1 vertex and 4
        # edge moments inside, and the 4 internal moments are condensed out
        assert dm.boundary_dofs.size == 16
        assert dm.interior_dofs.size == 5
        assert dm.n_internal_dofs == 4

    def test_rejects_k0(self):
        with pytest.raises(ValueError):
            build_dofmap(square_mesh(2), 0)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("family", ["square", "concave", "lloyd0",
                                        "lloyd100"])
    def test_interpolate_matches_per_cell_oracle(self, family, k):
        # one pass over the edges and the geometry stacks gives every DoF
        # the bits each incident cell's own interpolation gives it
        mesh = generate(GeneratorSpec(family, 100, seed=0))
        v = builtin_problem().p_ex
        assert np.array_equal(interpolate(mesh, k, v),
                              interpolate_per_cell(mesh, k, v))

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_shared_dofs_interpolate_consistently(self, k):
        mesh = generate(GeneratorSpec("lloyd0", 16, seed=11))
        dm = build_dofmap(mesh, k)
        seen = {}
        v = lambda x, y: np.sin(1.3 * x + 0.4) * np.cosh(y - 0.2)
        for c in range(mesh.num_cells):
            vals = interpolate_dofs(element_geometry(mesh, c), k, v)
            for slot, val in zip(dm.cell_dofs(c), vals):
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
        system = assemble(mesh, k, coeffs)
        d = interpolate(mesh, k, lambda x, y: np.ones(np.shape(x)))
        resid = (system.matrix @ d[dm.interior_dofs]
                 + system.coupling @ d[dm.boundary_dofs])
        scale = abs(system.matrix).max()
        assert np.max(np.abs(resid)) <= 1e-12 * scale

    def test_nonzero_pattern_is_local(self):
        mesh = MESHES["lloyd0"]
        k = 2
        dm = build_dofmap(mesh, k)
        system = assemble(mesh, k, Coefficients.constant(kappa=1.0))
        cells_of = [set() for _ in range(dm.n_dofs)]
        for c in range(mesh.num_cells):
            for slot in dm.cell_dofs(c):
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

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_renumbered_mesh_solves_to_the_same_errors(self, k):
        # each mesh numbers its own DoFs: a vertex-permuted copy, whose
        # edges are oriented otherwise, is solved to the original's errors
        mesh = square_mesh(3)
        perm = np.random.default_rng(0).permutation(mesh.num_vertices)
        vertices = np.empty_like(mesh.vertices)
        vertices[perm] = mesh.vertices
        renumbered = make_mesh(vertices,
                               [perm[ring] for ring in cell_rings(mesh)])
        problem = builtin_problem()
        got, ref = (_run_single(m, k, problem, "standard")
                    for m in (renumbered, mesh))
        assert not (got.failed or ref.failed)
        np.testing.assert_allclose([got.err_L2_rel, got.err_H1_rel],
                                   [ref.err_L2_rel, ref.err_H1_rel],
                                   rtol=1e-12, atol=0)
        np.testing.assert_allclose(got.err_point_rel, ref.err_point_rel,
                                   rtol=1e-10, atol=0)


class TestScatter:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("family", ["square", "concave", "lloyd0"])
    def test_matches_per_cell_coo_bit_for_bit(self, family, k):
        mesh = MESHES[family]
        coeffs = builtin_problem().coefficients
        dm = build_dofmap(mesh, k)
        system = assemble(mesh, k, coeffs)
        # each chunk writes its own indices (lloyd0 mixes DoF counts,
        # every concave cell has the same): the pattern against a per-cell
        # repeat and tile, the recovery rows against each cell's one-cell
        # solve over its vertex and edge DoFs, tiled once per row
        matrix, coupling, rhs_base, recovery, internal_load = (
            assemble_per_cell(mesh, k, coeffs, dm))
        for got, ref in ((system.matrix, matrix.tocsc()),
                         (system.coupling, coupling),
                         (system.recovery, recovery)):
            assert got.format == ref.format
            assert got.dtype == ref.dtype
            assert np.array_equal(got.indptr, ref.indptr)
            assert np.array_equal(got.indices, ref.indices)
            assert np.array_equal(got.data, ref.data)
        assert np.array_equal(system.rhs_base, rhs_base)
        assert np.array_equal(system.internal_load, internal_load)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("family", ["square", "concave", "lloyd0"])
    def test_leading_blocks_match_row_slices(self, family, k):
        # the one interior-first conversion against the global CSR matrix
        # and its interior row and column slices: the same pattern, and
        # values that differ only in the order SciPy sums duplicate entries
        # (by at most 1 ulp of the largest entry on these meshes)
        mesh = MESHES[family]
        coeffs = builtin_problem().coefficients
        dm = build_dofmap(mesh, k)
        system = assemble(mesh, k, coeffs)
        matrix, coupling, *_ = assemble_per_cell(mesh, k, coeffs, dm,
                                                 sliced=True)
        for got, ref in ((system.matrix, matrix.tocsc()),
                         (system.coupling, coupling)):
            assert np.array_equal(got.indptr, ref.indptr)
            assert np.array_equal(got.indices, ref.indices)
            assert (np.abs(got.data - ref.data).max()
                    <= np.finfo(float).eps * np.abs(ref.data).max())

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("family", ["concave", "lloyd0"])
    def test_bank_holds_geometry_and_post_solve_operator(self, family, k):
        mesh = MESHES[family]
        bank = assemble(mesh, k, Coefficients.constant(kappa=KAPPA)).bank
        assert bank.k == k
        geometries, operators, _ = bank_per_cell(bank)
        assert bank.n_cells == len(geometries) == len(operators) == mesh.num_cells
        reps = bank_representatives(bank)
        assert len(set(reps)) == (5 if family == "concave" else mesh.num_cells)
        for c in range(mesh.num_cells):
            geom = geometries[c]
            ref_geom = element_geometry(mesh, c)
            assert np.array_equal(geom.vertices, ref_geom.vertices)
            assert np.array_equal(geom.edge_forward, ref_geom.edge_forward)
            # each cell holds its shape class's operator: its
            # representative's one-cell construction
            rep = element_geometry(mesh, reps[c])
            ps = projector_set(rep, k)
            ref = np.vstack([ps.Pi0k, ps.Pi0GradX, ps.Pi0GradY])
            assert np.array_equal(operators[c], ref)


class TestChunks:
    @staticmethod
    def _assemble_counting(mesh, k, coeffs, monkeypatch):
        # the cells of each local forms call; every cell's forms are built
        # exactly once, and every shape-class representative's projectors
        chunks, projected = [], []
        forms, projectors = local._local_forms, local._projectors

        def counted_forms(out, *args):
            chunks.append(out.geometry.cells.tolist())
            return forms(out, *args)

        def counted_projectors(geometry, *args):
            projected.extend(geometry.cells.tolist())
            return projectors(geometry, *args)

        monkeypatch.setattr(local, "_local_forms", counted_forms)
        monkeypatch.setattr(local, "_projectors", counted_projectors)
        system = assemble(mesh, k, coeffs)
        monkeypatch.setattr(local, "_local_forms", forms)
        monkeypatch.setattr(local, "_projectors", projectors)
        assert sorted(sum(chunks, [])) == list(range(mesh.num_cells))
        assert sorted(projected) == sorted(set(bank_representatives(
            system.bank)))
        return system, chunks

    @staticmethod
    def _assert_same_bytes(cut, whole):
        for got, ref in ((cut.matrix, whole.matrix),
                         (cut.coupling, whole.coupling)):
            assert np.array_equal(got.indptr, ref.indptr)
            assert np.array_equal(got.indices, ref.indices)
            assert np.array_equal(got.data, ref.data)
        assert np.array_equal(cut.rhs_base, whole.rhs_base)
        (_, cut_ops, cut_tris), (_, whole_ops, whole_tris) = (
            bank_per_cell(cut.bank), bank_per_cell(whole.bank))
        for a, b in zip(cut_ops, whole_ops):
            assert np.array_equal(a, b)
        for a, b in zip(cut_tris, whole_tris):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("k, family", [(4, "concave"), (2, "lloyd0")])
    def test_small_chunks_give_the_same_bytes(self, k, family, monkeypatch):
        # With chunks of two cells every stack is cut into many chunks, so
        # chunk boundaries fall between cells that share DoFs.
        mesh = generate(GeneratorSpec(family, 100, seed=4))
        coeffs = builtin_problem().coefficients
        whole, whole_chunks = self._assemble_counting(mesh, k, coeffs,
                                                      monkeypatch)
        monkeypatch.setattr(local, "_CHUNK_BYTES", 1)
        monkeypatch.setattr(local, "_MIN_CHUNK_CELLS", 2)
        cut, cut_chunks = self._assemble_counting(mesh, k, coeffs, monkeypatch)
        assert len(cut_chunks) > 3 * len(whole_chunks)
        assert sorted(sum(cut_chunks, [])) == list(range(mesh.num_cells))
        # a group has no more representatives than a chunk has cells
        assert all(len(operators) <= 2
                   for _, _, operators, _ in cut.bank.chunks)
        self._assert_same_bytes(cut, whole)

    @pytest.mark.parametrize("k, family", [(4, "concave"), (2, "lloyd0")])
    def test_whole_stacks_give_the_same_bytes(self, k, family, monkeypatch):
        # one chunk per stack of cells with one vertex and triangle count,
        # against chunks of two cells
        mesh = generate(GeneratorSpec(family, 100, seed=4))
        coeffs = builtin_problem().coefficients
        monkeypatch.setattr(local, "_CHUNK_BYTES", 2 ** 62)
        whole, whole_chunks = self._assemble_counting(mesh, k, coeffs,
                                                      monkeypatch)
        stacks = [len(rows) for geometry in geometry_stacks(mesh)
                  for rows, _ in triangulate_stack(geometry)]
        assert sorted(map(len, whole_chunks)) == sorted(stacks)
        monkeypatch.setattr(local, "_CHUNK_BYTES", 1)
        monkeypatch.setattr(local, "_MIN_CHUNK_CELLS", 2)
        cut, cut_chunks = self._assemble_counting(mesh, k, coeffs, monkeypatch)
        assert len(cut_chunks) > 3 * len(whole_chunks)
        self._assert_same_bytes(cut, whole)

    def test_sweep_takes_few_kernel_calls(self, monkeypatch):
        # the k = 2 sweep (square, concave and lloyd0 at 25, 100 and 400
        # cells, seed 0) has 2,100 cells in 28 stacks; chunks sized by the
        # kernel's point tables, which it no longer builds, took 209 calls
        coeffs = builtin_problem().coefficients
        calls = 0
        for family in ("square", "concave", "lloyd0"):
            for size in (25, 100, 400):
                mesh = generate(GeneratorSpec(family, size, seed=0))
                _, chunks = self._assemble_counting(mesh, 2, coeffs,
                                                    monkeypatch)
                calls += len(chunks)
        assert calls <= 80

    def test_heavy_cells_take_few_kernel_calls(self, monkeypatch):
        # a k = 4 concave cell counts 408 KB, so the 24-cell floor, not the
        # 3 MiB budget, sizes its chunks: 1,800 cells in one stack
        mesh = generate(GeneratorSpec("concave", 900, seed=0))
        _, chunks = self._assemble_counting(
            mesh, 4, builtin_problem().coefficients, monkeypatch)
        assert len(chunks) <= 1800 // 24

    def test_singular_cell_is_named(self):
        # at a scale of 1e-160 the k = 4 monomial mass matrix is singular
        base = square_mesh(2)
        tiny = make_mesh(base.vertices * 1e-160, cell_rings(base))
        with np.errstate(all="ignore"), pytest.raises(
                np.linalg.LinAlgError,
                match="cell 0: .*element geometry is degenerate"):
            assemble(tiny, 4, Coefficients.constant(kappa=1.0))


class TestKappaCheck:
    @pytest.mark.parametrize("kappa, what", [
        (lambda x, y: np.stack([np.stack([1 + 0 * x, 0.5 + 0 * x], -1),
                                np.stack([0 * x, 1 + 0 * x], -1)], -2),
         "symmetric"),
        (lambda x, y: np.stack([np.stack([1 + 0 * x, 2 + 0 * x], -1),
                                np.stack([2 + 0 * x, 1 + 0 * x], -1)], -2),
         "positive definite"),
    ], ids=["non_symmetric", "indefinite"])
    def test_rejected_everywhere(self, kappa, what):
        coeffs = dataclasses.replace(Coefficients.constant(), kappa=kappa)
        with pytest.raises(ValueError, match=f"cell \\d+: kappa is not {what}"):
            assemble(MESHES["lloyd0"], 2, coeffs)

    def test_rejected_in_one_cell_names_it(self):
        # kappa turns indefinite right of x = 0.9: the first cell reaching
        # past that line is named
        def kappa(x, y):
            out = np.zeros(np.shape(x) + (2, 2))
            out[..., 0, 0] = np.where(x > 0.9, -1.0, 1.0)
            out[..., 1, 1] = 1.0
            return out

        mesh = square_mesh(5)
        coeffs = dataclasses.replace(Coefficients.constant(), kappa=kappa)
        with pytest.raises(ValueError, match="cell 4: kappa is not positive"):
            assemble(mesh, 1, coeffs)
        assert max(mesh.vertices[mesh.ring(4), 0]) == 1.0


class TestCoefficientShape:
    # a callable of the wrong shape used to end in NumPy's bare broadcast
    # error, and Coefficients.constant(gamma=(1, 2)) in a TypeError from
    # float(), neither naming the coefficient; the callables see the
    # (cells, points) array of a stack's rule points
    @pytest.mark.parametrize("field, value, got, expected", [
        ("b", lambda x, y: np.ones(np.shape(x) + (3,)),
         r"\(\d+, \d+, 3\)", r"\(\d+, \d+, 2\)"),
        ("kappa", lambda x, y: np.ones(np.shape(x) + (2,)),
         r"\(\d+, \d+, 2\)", r"\(\d+, \d+, 2, 2\)"),
        ("gamma", lambda x, y: np.ones(np.shape(x) + (2,)),
         r"\(\d+, \d+, 2\)", r"\(\d+, \d+\)"),
        ("f", lambda x, y: np.ones(np.size(x) + 1), r"\(\d+,\)",
         r"\(\d+, \d+\)"),
    ], ids=["b", "kappa", "gamma", "f"])
    def test_callable_of_wrong_shape_is_named(self, field, value, got,
                                              expected):
        coeffs = dataclasses.replace(Coefficients.constant(kappa=1.0),
                                     **{field: value})
        with pytest.raises(ValueError, match=rf"^{field} returned shape "
                           rf"{got} at \d+ points, expected {expected}$"):
            assemble(square_mesh(3), 2, coeffs)

    @pytest.mark.parametrize("field, value, message", [
        ("b", (1.0, 2.0, 3.0), "constant b must be a scalar or a 2-vector, "
         r"got shape \(3,\)"),
        ("gamma", (1, 2),
         r"constant gamma must be a real scalar, got \(1, 2\)"),
        ("f", 1 + 2j, r"constant f must be a real scalar, got \(1\+2j\)"),
    ], ids=["b", "gamma", "f"])
    def test_constant_of_wrong_shape_is_named(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Coefficients.constant(**{field: value})

    @pytest.mark.parametrize("k", [1, 3])
    def test_dirichlet_data_of_wrong_shape_is_named(self, k):
        # used to end in NumPy's "input operand has more dimensions than
        # allowed by the axis remapping"
        mesh = square_mesh(3)
        system = assemble(mesh, k, Coefficients.constant(kappa=1.0))
        with pytest.raises(ValueError, match=r"^g returned shape \(12, 2\) "
                           r"at 12 points, expected \(12,\)$"):
            apply_dirichlet(system, lambda x, y: np.stack([x, y], -1))

    @pytest.mark.parametrize("k", [1, 3])
    def test_interpolated_function_of_wrong_shape_is_named(self, k):
        mesh = square_mesh(3)
        with pytest.raises(ValueError, match=r"^v returned shape \(16, 2\) "
                           r"at 16 points, expected \(16,\)$"):
            interpolate(mesh, k, lambda x, y: np.stack([x, y], -1))
        # the internal moments name it too
        geometry = next(geometry_stacks(mesh))
        with pytest.raises(ValueError, match=r"^v returned shape "
                           r"\(9, \d+, 2\) at \d+ points, expected "
                           r"\(9, \d+\)$"):
            local.internal_moments(geometry, k,
                                   lambda x, y: np.stack([x, y], -1))


def _right_of(x, value, good):
    """``good`` where x <= 0.9, ``value`` right of that line."""
    return np.where(x > 0.9, value, good)


class TestNonFiniteData:
    # Non-finite data used to reach the solver: NaN gamma and inf b raised
    # "the global matrix is singular", NaN f and NaN g "direct solve
    # produced non-finite values", neither naming the data
    @pytest.mark.parametrize("field, value", [
        ("kappa", lambda x, y: _right_of(x, np.nan, 1.0)[..., None, None]
         * np.eye(2)),
        ("b", lambda x, y: np.stack([_right_of(x, np.inf, 0.0), 0 * x], -1)),
        ("gamma", lambda x, y: _right_of(x, np.nan, 0.0)),
        ("f", lambda x, y: _right_of(x, np.nan, 1.0)),
    ], ids=["kappa", "b", "gamma", "f"])
    def test_coefficient_names_cell_and_field(self, field, value):
        # the first cell reaching past x = 0.9 is named
        coeffs = dataclasses.replace(Coefficients.constant(kappa=1.0),
                                     **{field: value})
        with pytest.raises(ValueError,
                           match=f"cell 4: {field} is not finite"):
            assemble(square_mesh(5), 2, coeffs)

    def test_dirichlet_vertex_value_is_named(self):
        mesh = square_mesh(5)
        system = assemble(mesh, 2, Coefficients.constant(kappa=1.0))
        corner = int(np.flatnonzero((mesh.vertices == 1.0).all(axis=1))[0])
        with pytest.raises(ValueError, match=f"boundary vertex {corner}: "
                           "Dirichlet data g is not finite"):
            apply_dirichlet(system, lambda x, y: np.where(
                (x == 1.0) & (y == 1.0), np.nan, x))

    def test_dirichlet_edge_moment_is_named(self):
        # finite at every vertex, NaN inside the edges that cross x = 0.5
        mesh = square_mesh(5)
        system = assemble(mesh, 2, Coefficients.constant(kappa=1.0))
        pattern = (r"boundary edge (\d+) \(vertices (\d+), (\d+)\): "
                   "Dirichlet data g is not finite")
        with pytest.raises(ValueError, match=pattern) as info:
            apply_dirichlet(system, lambda x, y: np.where(
                np.abs(x - 0.5) < 0.05, np.nan, x))
        edge, lo, hi = map(int, re.match(pattern, str(info.value)).groups())
        assert (lo, hi) == tuple(mesh.edge_vertices[edge])
        assert sorted(mesh.vertices[[lo, hi], 0]) == pytest.approx([0.4, 0.6])


class TestDirichlet:
    def test_zero_data_keeps_rhs(self):
        mesh = MESHES["concave"]
        coeffs = Coefficients.constant(kappa=1.0, f=1.0)
        system = assemble(mesh, 3, coeffs)
        before = system.rhs.copy()
        apply_dirichlet(system, lambda x, y: np.zeros(np.shape(x)))
        assert np.array_equal(system.rhs, before)
        assert not system.lifting.any()

    def test_reapply_restores_base(self):
        mesh = square_mesh(3)
        coeffs = Coefficients.constant(kappa=1.0, f=1.0)
        system = assemble(mesh, 2, coeffs)
        apply_dirichlet(system, lambda x, y: x + y ** 2)
        assert not np.array_equal(system.rhs, system.rhs_base)
        apply_dirichlet(system, 0.0)
        assert np.array_equal(system.rhs, system.rhs_base)

    def test_constant_data_matches_interpolant(self):
        mesh = MESHES["lloyd0"]
        k = 3
        system = assemble(mesh, k, Coefficients.constant(kappa=1.0))
        apply_dirichlet(system, 2.0)
        d = interpolate(mesh, k, lambda x, y: np.full(np.shape(x), 2.0))
        bb = system.dofmap.boundary_dofs
        np.testing.assert_allclose(system.lifting[bb], d[bb],
                                   rtol=0, atol=1e-14)
        # the built-in problem's data: the lifting and the interpolant take
        # their edge moments from one helper, so they agree bit for bit
        p_ex = builtin_problem().p_ex
        for family in ("lloyd0", "concave", "square"):
            mesh = generate(GeneratorSpec(family, 25, seed=2))
            for k in (1, 2, 3, 4):
                system = assemble(mesh, k, Coefficients.constant(kappa=1.0))
                apply_dirichlet(system, p_ex)
                bb = system.dofmap.boundary_dofs
                d = interpolate(mesh, k, p_ex)
                assert np.array_equal(system.lifting[bb], d[bb])

    def test_constant_solution_reproduced(self):
        # g = 2 with f = gamma * 2 and no advection keeps the constant.
        mesh = MESHES["lloyd0"]
        k = 2
        gamma = 0.7
        coeffs = Coefficients.constant(kappa=KAPPA, gamma=gamma, f=2 * gamma)
        system = assemble(mesh, k, coeffs)
        apply_dirichlet(system, 2.0)
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
        apply_dirichlet(system, prob.p_ex)
        u = solve(system)
        d = interpolate(mesh, k, prob.p_ex)
        assert np.max(np.abs(u - d)) <= 1e-10

    @pytest.mark.parametrize("k", [1, 3])
    def test_linear_patch_tight(self, k):
        mesh = MESHES["lloyd0"]
        p = lambda x, y: x
        system = assemble(mesh, k, Coefficients.constant(kappa=1.0))
        apply_dirichlet(system, p)
        u = solve(system)
        d = interpolate(mesh, k, p)
        assert np.max(np.abs(u - d)) <= 1e-11

    def test_affine_patch_corner_value(self):
        mesh = square_mesh(4)
        p = lambda x, y: 1 + x + y
        system = assemble(mesh, 1, Coefficients.constant(kappa=1.0))
        apply_dirichlet(system, p)
        u = solve(system)
        corner = np.flatnonzero((mesh.vertices[:, 0] == 1.0)
                                & (mesh.vertices[:, 1] == 1.0))[0]
        assert abs(u[corner] - 3.0) <= 1e-11

    def test_factors_the_assembled_csc_matrix_as_is(self, monkeypatch):
        mesh = MESHES["concave"]
        prob = builtin_problem()
        system = assemble(mesh, 3, prob.coefficients)
        assert system.matrix.format == "csc"
        assert system.matrix.has_canonical_format
        apply_dirichlet(system, prob.p_ex)
        calls = _recorded_factors(monkeypatch)
        solve(system)
        (((A,), _, _),) = calls
        assert A is system.matrix

    def test_single_cell_all_boundary(self):
        mesh = square_mesh(1)
        system = assemble(mesh, 1, Coefficients.constant(kappa=1.0))
        assert system.matrix.shape == (0, 0)
        g = lambda x, y: x + y
        apply_dirichlet(system, g)
        u = solve(system)
        np.testing.assert_array_equal(
            u, g(mesh.vertices[:, 0], mesh.vertices[:, 1]))

    def test_single_cell_k2_patch(self):
        mesh = square_mesh(1)
        p = lambda x, y: x * y
        system = assemble(mesh, 2, Coefficients.constant(kappa=1.0))
        # the one internal moment is condensed out, so nothing is factored
        assert system.matrix.shape == (0, 0)
        apply_dirichlet(system, p)
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
                           rhs_base=np.ones(n_i),
                           recovery=sp.csr_matrix((0, dm.n_skeleton_dofs)),
                           internal_load=np.zeros(0),
                           bank=element_bank(mesh, 1))
        with pytest.raises(SolveError, match="stability"):
            solve(bad)

    def test_zero_diagonal_takes_off_diagonal_pivot(self, monkeypatch):
        # A zero on the diagonal is below the 0.1 diagonal-pivot threshold,
        # so SuperLU must pivot off the diagonal and still meet the residual.
        mesh = square_mesh(4)
        system = assemble(mesh, 1, Coefficients.constant(kappa=1.0))
        A = system.matrix.tolil()
        A[0, 0] = 0.0
        system.matrix = A.tocsr()
        rng = np.random.default_rng(0)
        system.rhs = rng.standard_normal(system.matrix.shape[0])
        real_splu, factors = assembly.splu, []

        def recording_splu(*args, **kwargs):
            factors.append(real_splu(*args, **kwargs))
            return factors[-1]

        monkeypatch.setattr(assembly, "splu", recording_splu)
        u = solve(system)
        x = u[system.dofmap.interior_dofs]
        A = system.matrix
        assert np.linalg.norm(A @ x - system.rhs) <= 1e-10 * np.linalg.norm(system.rhs)
        np.testing.assert_allclose(x, np.linalg.solve(A.toarray(), system.rhs),
                                   rtol=1e-12, atol=1e-12)
        (lu,) = factors
        assert not np.array_equal(lu.perm_r, lu.perm_c)

    @staticmethod
    def _sliver_grid(width):
        # a 4 x 4 grid of squares with an extra x-line ``width`` to the
        # right of x = 0.25 and of x = 0.75: two columns of sliver cells
        xs = [0.0, 0.25, 0.25 + width, 0.5, 0.75, 0.75 + width, 1.0]
        ys = [0.0, 0.25, 0.5, 0.75, 1.0]
        n = len(xs)
        cells = [[j * n + i, j * n + i + 1, (j + 1) * n + i + 1, (j + 1) * n + i]
                 for j in range(len(ys) - 1) for i in range(n - 1)]
        return make_mesh([[x, y] for y in ys for x in xs], cells)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("width", [1e-4, 1e-7])
    def test_sliver_columns_verified_or_named(self, width, k):
        # 1e-4-wide slivers solve to the patch answer (at k >= 2 their
        # residual is above roundoff, and the forward-error bound passes);
        # 1e-7-wide ones end in SolveError or the patch answer, never in a
        # wrong answer (at k = 3 the condensed residual passes its 1e-10
        # check, and the answer was 7.0e-5 off before the bound)
        mesh = self._sliver_grid(width)
        prob = polynomial_problem(k)
        system = assemble(mesh, k, prob.coefficients)
        apply_dirichlet(system, prob.p_ex)
        try:
            u = solve(system)
        except SolveError as exc:
            assert width == 1e-7 and "ill-conditioned" in str(exc), exc
        else:
            assert np.abs(u - interpolate(mesh, k, prob.p_ex)).max() <= 1e-9

    def test_no_condition_estimate_at_roundoff(self, monkeypatch):
        # a residual at roundoff verifies the answer without the estimate
        mesh = generate(GeneratorSpec("concave", 100, seed=0))
        prob = builtin_problem()
        system = assemble(mesh, 4, prob.coefficients)
        apply_dirichlet(system, prob.p_ex)
        monkeypatch.setattr(assembly, "onenormest", None)
        solve(system)

    def test_factors_in_symmetric_mode(self, monkeypatch):
        mesh = MESHES["lloyd0"]
        prob = builtin_problem()
        system = assemble(mesh, 2, prob.coefficients)
        apply_dirichlet(system, prob.p_ex)
        calls = _recorded_factors(monkeypatch)
        solve(system)
        ((_, kwargs, _),) = calls
        assert kwargs == {"permc_spec": "MMD_AT_PLUS_A",
                          "diag_pivot_thresh": 0.1,
                          "options": {"SymmetricMode": True}}

    def test_scale_factorisation_time(self, monkeypatch):
        # lloyd0 4,096 at k = 2 factored in 0.21-0.28 s in symmetric mode
        # and 7.3-7.5 s in default mode (2-vCPU machine)
        mesh = generate(GeneratorSpec("lloyd0", 4096, seed=0))
        prob = builtin_problem()
        system = assemble(mesh, 2, prob.coefficients)
        apply_dirichlet(system, prob.p_ex)
        calls = _recorded_factors(monkeypatch)
        solve(system)
        ((_, _, seconds),) = calls
        assert seconds < 2.0

    @pytest.mark.parametrize("family", sorted(MESHES))
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_default_mode(self, family, k):
        mesh = MESHES[family]
        prob = builtin_problem()
        system = assemble(mesh, k, prob.coefficients)
        apply_dirichlet(system, prob.p_ex)
        x = solve(system)[system.dofmap.interior_dofs]
        ref = _default_mode_solve(system)
        assert np.max(np.abs(x - ref)) <= 1e-10 * np.max(np.abs(ref))

    @pytest.mark.parametrize("k", [1, 2, 4])
    @pytest.mark.parametrize("mesh", [square_mesh(16), LLOYD0_400],
                             ids=["square256", "lloyd0_400"])
    def test_indefinite_system_matches_default_mode(self, mesh, k):
        # gamma - 60 makes the form indefinite and keeps the exact solution;
        # the 0.1 diagonal-pivot threshold was chosen on coercive systems
        # (the largest difference measured was 4.4e-12 of the max-norm)
        prob = builtin_problem()
        c = prob.coefficients
        shifted = dataclasses.replace(
            c, gamma=lambda x, y: c.gamma(x, y) - 60.0,
            f=lambda x, y: c.f(x, y) - 60.0 * prob.p_ex(x, y))
        system = assemble(mesh, k, shifted)
        apply_dirichlet(system, prob.p_ex)
        x = solve(system)[system.dofmap.interior_dofs]
        A, b = system.matrix, system.rhs
        assert (np.linalg.norm(A @ x - b)
                <= 1e-10 * max(np.linalg.norm(b), np.linalg.norm(A @ x)))
        ref = _default_mode_solve(system)
        assert np.max(np.abs(x - ref)) <= 1e-10 * np.max(np.abs(ref))


class TestCondensation:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("family", sorted(MESHES))
    def test_matches_uncondensed_solve(self, family, k):
        # the condensed solve, internal moments recovered, against the
        # uncondensed per-cell system with every DoF off the boundary
        # unknown, and that system's residual at the condensed solution
        mesh = MESHES[family]
        prob = builtin_problem()
        dm = build_dofmap(mesh, k)
        system = assemble(mesh, k, prob.coefficients)
        apply_dirichlet(system, prob.p_ex)
        u = solve(system)
        A, b = full_system_per_cell(mesh, k, prob.coefficients, dm)
        free = np.setdiff1d(np.arange(dm.n_dofs), dm.boundary_dofs)
        assert free.size == dm.interior_dofs.size + dm.n_internal_dofs
        A_free = A[free]
        b_free = b[free] - A_free @ system.lifting
        A_free = A_free[:, free].tocsc()
        ref = system.lifting.copy()
        ref[free] = splu(A_free).solve(b_free)
        assert np.max(np.abs(u - ref)) <= 1e-10 * np.max(np.abs(ref))
        Au = A_free @ u[free]
        assert (np.linalg.norm(Au - b_free)
                <= 1e-10 * max(np.linalg.norm(b_free), np.linalg.norm(Au)))

    def test_condensation_shrinks_the_global_matrix(self):
        # each cell's internal moments leave the global system
        mesh = MESHES["concave"]
        coeffs = builtin_problem().coefficients
        for k in (1, 2, 3, 4):
            dm = build_dofmap(mesh, k)
            system = assemble(mesh, k, coeffs)
            assert system.matrix.shape == (dm.interior_dofs.size,) * 2
            assert system.recovery.shape == (dm.n_internal_dofs,
                                             dm.n_skeleton_dofs)
            assert system.internal_load.shape == (dm.n_internal_dofs,)
            assert system.recovery.nnz == sum(
                (dm.cell_dofs(c).size - n_poly(k - 2)) * n_poly(k - 2)
                for c in range(mesh.num_cells))

    def test_singular_internal_block_is_named(self, monkeypatch):
        # zero cell 4's internal-moment block in its local forms: the
        # condensation names the cell, and a sweep records it as failed
        from vemlab.harness import _run_single

        forms = local._local_forms

        def singular_forms(out, *args):
            system = forms(out, *args)
            ns = system.Ah.shape[-1] - n_poly(out.k - 2)
            for i in np.flatnonzero(out.geometry.cells == 4):
                for a in (system.Ah, system.Bh, system.Ch):
                    a[i, ns:, ns:] = 0.0
            return system

        monkeypatch.setattr(local, "_local_forms", singular_forms)
        mesh, prob = square_mesh(3), builtin_problem()
        message = ("cell 4: internal-moment block system is singular; the "
                   "local form does not determine the internal moments")
        with pytest.raises(np.linalg.LinAlgError, match=message):
            assemble(mesh, 2, prob.coefficients)
        record = _run_single(mesh, 2, prob, "standard")
        assert record.failed and np.isnan(record.err_L2_rel)
        assert record.cause == message


def _recorded_factors(monkeypatch):
    """Record the (args, kwargs, seconds) of every ``splu`` call that
    :func:`solve` makes."""
    real_splu, calls = assembly.splu, []

    def recording_splu(*args, **kwargs):
        start = time.perf_counter()
        lu = real_splu(*args, **kwargs)
        calls.append((args, kwargs, time.perf_counter() - start))
        return lu

    monkeypatch.setattr(assembly, "splu", recording_splu)
    return calls


def _default_mode_solve(system):
    """Interior solution of ``system`` from SuperLU outside symmetric mode,
    with the same ordering and pivot threshold as :func:`solve`."""
    lu = splu(system.matrix, permc_spec="MMD_AT_PLUS_A",
              diag_pivot_thresh=0.1)
    return lu.solve(system.rhs)
