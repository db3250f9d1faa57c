"""Global system assembly: DoF numbering, sparse scatter, Dirichlet elimination.

Global degrees of freedom are ordered as all vertex values, then ``k - 1``
scaled line moments per mesh edge (taken along the canonical low-to-high
vertex direction, so the two cells sharing an edge see the same functional),
then ``dim P_{k-2}`` scaled internal moments per cell.  Dirichlet data is
imposed by elimination: boundary DoFs move into a lifting vector, the reduced
system couples interior DoFs only, and the boundary coupling block is kept so
the right-hand side can be corrected for any lifting.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .basis import n_poly
from .local import ElementBank, edge_moments, internal_moments, mesh_elements
from .local import dof_layout, local_system  # noqa: F401  (perfbench/spans.py hook targets)
from .mesh import _by_size, geometry_stacks
from .mesh import element_geometry  # noqa: F401  (perfbench/spans.py hook target)


class SolveError(RuntimeError):
    """Raised when the reduced linear system cannot be solved reliably."""


@dataclass(frozen=True)
class DofMap:
    """Global numbering of the virtual element DoFs on one mesh.

    ``cell_dofs[c]`` maps the local DoF slots of cell ``c`` (vertex values,
    edge moments in ring order, internal moments) to global indices.
    """

    k: int
    n_vertex_dofs: int
    n_edge_dofs: int
    n_internal_dofs: int
    cell_dofs: tuple
    boundary_dofs: np.ndarray = field(repr=False)
    interior_dofs: np.ndarray = field(repr=False)

    @property
    def n_dofs(self):
        return self.n_vertex_dofs + self.n_edge_dofs + self.n_internal_dofs


@dataclass
class SparseSystem:
    """Reduced linear system after Dirichlet elimination.

    ``matrix`` (CSC, the format :func:`solve` factors) and ``rhs`` live on
    interior DoFs only; ``lifting`` is a full-length vector whose boundary
    entries hold the Dirichlet data.
    ``coupling`` is the interior-by-boundary block of the full matrix and
    ``rhs_base`` the interior load before any lifting correction, so
    boundary data can be applied (or re-applied) after assembly.  ``bank``
    holds what assembly computed per cell that post-processing reuses.
    """

    matrix: sp.csc_matrix
    rhs: np.ndarray
    lifting: np.ndarray
    dofmap: DofMap
    coupling: sp.csr_matrix = field(repr=False)
    rhs_base: np.ndarray = field(repr=False)
    bank: ElementBank = field(default=None, repr=False)


def build_dofmap(mesh, k):
    """Number the global DoFs of a degree-``k`` space on ``mesh``."""
    if k < 1:
        raise ValueError(f"polynomial degree must be at least 1, got {k}")
    n_int = n_poly(k - 2)
    nv, ne = mesh.num_vertices, mesh.num_edges
    n_edge = ne * (k - 1)
    per_edge = np.arange(k - 1)
    cell_dofs = [None] * mesh.num_cells
    # the cells of one vertex count at a time
    for (cells, rings), (_, edges) in zip(_by_size(mesh.cells),
                                          _by_size(mesh.cell_edges)):
        g = np.concatenate([
            rings,
            (nv + edges[..., None] * (k - 1) + per_edge).reshape(len(cells), -1),
            nv + n_edge + cells[:, None] * n_int + np.arange(n_int)],
            axis=1).astype(np.intp)
        for c, row in zip(cells, g):
            cell_dofs[c] = row
    boundary = np.concatenate([
        np.flatnonzero(mesh.boundary_vertices),
        (nv + mesh.boundary_edges()[:, None] * (k - 1) + per_edge).ravel()])
    total = nv + n_edge + mesh.num_cells * n_int
    free = np.ones(total, dtype=bool)
    free[boundary] = False
    return DofMap(k=k, n_vertex_dofs=nv, n_edge_dofs=n_edge,
                  n_internal_dofs=mesh.num_cells * n_int,
                  cell_dofs=tuple(cell_dofs),
                  boundary_dofs=boundary.astype(np.intp),
                  interior_dofs=np.flatnonzero(free))


def check_dofmap(dofmap, mesh, k):
    """Raise ValueError unless ``dofmap`` numbers the degree-``k`` space of
    a mesh with the cell, vertex and edge counts of ``mesh``."""
    if k != dofmap.k:
        raise ValueError(f"DoF map was built with k={dofmap.k}, got k={k}")
    for what, got, want in (
            ("cells", len(dofmap.cell_dofs), mesh.num_cells),
            ("vertex DoFs", dofmap.n_vertex_dofs, mesh.num_vertices),
            ("edge DoFs", dofmap.n_edge_dofs, mesh.num_edges * (k - 1))):
        if got != want:
            raise ValueError(f"DoF map has {got} {what} where the mesh has "
                             f"{want}")


def interior_first(dofmap):
    """Renumbering of the global DoFs that puts the interior ones first, in
    the order of ``interior_dofs``, then the boundary ones, in the order of
    ``boundary_dofs``: the numbering in which :func:`assemble` converts the
    global matrix, so that the reduced system is its leading block."""
    ii, bb = dofmap.interior_dofs, dofmap.boundary_dofs
    number = np.empty(dofmap.n_dofs, dtype=np.intp)
    number[ii] = np.arange(ii.size)
    number[bb] = ii.size + np.arange(bb.size)
    return number


def _coo_pattern(flat, sizes, n):
    """Global (row, column) of every local matrix entry, in one step.

    ``flat`` holds the DoFs of every cell, concatenated in cell order, and
    ``sizes`` the number of DoFs of every cell.

    Entries run cell by cell, each cell's block in row-major order, which is
    the order a per-cell ``np.repeat``/``np.tile`` scatter produces; cell
    ``c``'s block is ``starts[c]:starts[c + 1]`` of the value buffer.  The
    indices are 32-bit when ``n`` allows, as SciPy would convert them anyway.
    """
    index = np.int32 if n <= np.iinfo(np.int32).max else np.intp
    blocks = sizes * sizes
    starts = np.zeros(sizes.size + 1, dtype=np.intp)
    np.cumsum(blocks, out=starts[1:])
    flat = flat.astype(index)
    rows = np.repeat(flat, np.repeat(sizes, sizes))
    # entry t of a block sits in the column of the cell's DoF t mod size
    pos = np.arange(starts[-1])
    pos -= np.repeat(starts[:-1], blocks)
    pos %= np.repeat(sizes, blocks)
    pos += np.repeat(np.cumsum(sizes) - sizes, blocks)
    return rows, flat[pos], starts


def assemble(mesh, k, coeffs, mode="standard", quad_boost=2, dofmap=None):
    """Assemble the reduced global system for one problem.

    The element kernel builds the local matrices stack by stack (see
    :func:`vemlab.local.mesh_elements`); each is written into its cell's
    slot of one preallocated COO value buffer, and the loads are summed in
    cell order, so repeated runs produce bit-identical systems.  Each
    chunk's geometry, triangles and post-solve operators are kept on
    ``SparseSystem.bank`` for :mod:`vemlab.postprocess`.  The global matrix
    is converted once, to CSC in the :func:`interior_first` numbering: the
    reduced matrix, which :func:`solve` factors without a copy, is its
    leading block, and the interior-by-boundary coupling block is converted
    on to CSR.
    """
    # a rule of degree below 2k does not integrate the mass matrix exactly
    if quad_boost < 0:
        raise ValueError(f"quad_boost must be >= 0, got {quad_boost}")
    if dofmap is None:
        dofmap = build_dofmap(mesh, k)
    check_dofmap(dofmap, mesh, k)
    n = dofmap.n_dofs

    sizes = np.array([g.size for g in dofmap.cell_dofs], dtype=np.intp)
    flat = np.concatenate(dofmap.cell_dofs)
    rows, cols, starts = _coo_pattern(interior_first(dofmap)[flat], sizes, n)
    load_starts = np.concatenate([[0], np.cumsum(sizes)])
    vals = np.empty(starts[-1])
    loads = np.empty(load_starts[-1])
    kept = []
    for out, tris in mesh_elements(mesh, k, 2 * k + quad_boost, coeffs, mode):
        cells = out.geometry.cells
        nd = out.Ah.shape[-1]
        wrong = np.flatnonzero(sizes[cells] != nd)
        if wrong.size:
            c = cells[wrong[0]]
            raise ValueError(
                f"cell {c}: local matrix is {(nd, nd)} but the DoF map lists "
                f"{sizes[c]} DoFs")
        block = out.Ah + out.Bh
        block += out.Ch
        vals[starts[cells, None] + np.arange(nd * nd)] = block.reshape(len(cells), -1)
        loads[load_starts[cells, None] + np.arange(nd)] = out.f_loc
        kept.append(out.bank_entry(tris))
    # free the last chunk's working arrays before the conversion, the
    # memory peak of assembly
    del out, block
    # one conversion, in the interior-first numbering: the reduced matrix
    # is the leading block of the global one
    A = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsc()
    del rows, cols, vals
    rhs_full = np.zeros(n)
    np.add.at(rhs_full, flat, loads)
    ii = dofmap.interior_dofs
    matrix = A[:ii.size, :ii.size]
    coupling = A[:ii.size, ii.size:].tocsr()
    del A
    return SparseSystem(matrix=matrix,
                        rhs=rhs_full[ii].copy(),
                        lifting=np.zeros(n),
                        dofmap=dofmap,
                        coupling=coupling,
                        rhs_base=rhs_full[ii],
                        bank=ElementBank(k, tuple(kept)))


def apply_dirichlet(system, g, mesh, k):
    """Install Dirichlet data ``g`` (callable or constant) into ``system``.

    Boundary vertex DoFs take point values of ``g``; boundary edge DoFs take
    the same normalized line moments used when interpolating a smooth
    function, so interpolants of ``g`` satisfy the boundary data exactly.
    Returns ``system`` with ``lifting`` and ``rhs`` updated.
    """
    dofmap = system.dofmap
    check_dofmap(dofmap, mesh, k)
    gv = g if callable(g) else (lambda x, y, c=float(g): c)

    lift = np.zeros(dofmap.n_dofs)
    vb = np.nonzero(mesh.boundary_vertices)[0]
    lift[vb] = gv(mesh.vertices[vb, 0], mesh.vertices[vb, 1])
    if k >= 2:
        edges = mesh.boundary_edges()
        lo, hi = mesh.edge_vertices[edges].T
        base = dofmap.n_vertex_dofs + edges * (k - 1)
        lift[base[:, None] + np.arange(k - 1)] = edge_moments(
            gv, mesh.vertices[lo], mesh.vertices[hi], k, k + 3)
    if not np.isfinite(lift).all():
        _name_non_finite(lift, mesh, dofmap)
    system.lifting = lift
    system.rhs = system.rhs_base - system.coupling @ lift[dofmap.boundary_dofs]
    return system


def _name_non_finite(lift, mesh, dofmap):
    """Raise ValueError naming the first boundary vertex, or boundary edge,
    whose Dirichlet DoF in ``lift`` is not finite."""
    bad = ~np.isfinite(lift)
    nv = dofmap.n_vertex_dofs
    vertices = np.flatnonzero(bad[:nv])
    if vertices.size:
        raise ValueError(f"boundary vertex {vertices[0]}: Dirichlet data g "
                         "is not finite")
    edges = np.flatnonzero(bad[nv:nv + dofmap.n_edge_dofs]) // (dofmap.k - 1)
    if edges.size:
        lo, hi = mesh.edge_vertices[edges[0]]
        raise ValueError(f"boundary edge {edges[0]} (vertices {lo}, {hi}): "
                         "Dirichlet data g is not finite")


def solve(system):
    """Direct sparse solve; returns the full-length global DoF vector.

    The reduced matrix is factored as it is when it is CSC, as
    :func:`assemble` builds it; another format is converted first.

    The global matrix has a symmetric sparsity pattern (advection only makes
    its values unsymmetric), so SuperLU orders the columns by minimum degree
    on ``A^T + A`` and prefers the diagonal pivot whenever it is at least
    0.1 of the column's largest entry, which keeps that ordering.  On the
    k = 4 concave 30x30 system this gives an LU fill of 1.6 against 17.5 for
    the default COLAMD ordering, and 35.7 with strict partial pivoting
    (``diag_pivot_thresh=1.0``), which destroys the ordering.  The residual
    check below, with one refinement step, guards the weaker pivoting.
    """
    u = system.lifting.copy()
    n_i = system.matrix.shape[0]
    if n_i == 0:
        return u
    A = system.matrix.tocsc()
    try:
        lu = splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1)
        x = lu.solve(system.rhs)
    except RuntimeError as exc:
        raise SolveError(
            "direct solve failed: the global matrix is singular, which "
            "indicates a stability failure or missing boundary data") from exc
    if not np.all(np.isfinite(x)):
        raise SolveError(
            "direct solve produced non-finite values, which indicates a "
            "stability failure or missing boundary data")
    Ax = A @ x
    scale = max(np.linalg.norm(system.rhs), np.linalg.norm(Ax), 1e-30)
    resid = np.linalg.norm(Ax - system.rhs)
    if resid > 1e-10 * scale:
        x = x + lu.solve(system.rhs - A @ x)
        resid = np.linalg.norm(A @ x - system.rhs)
        if resid > 1e-10 * scale:
            raise SolveError(
                f"solver residual {resid:.3e} exceeds 1e-10 relative "
                "tolerance; the system is too ill-conditioned (stability "
                "failure)")
    u[system.dofmap.interior_dofs] = x
    return u


def interpolate(mesh, k, v, dofmap=None):
    """Global DoF vector of a smooth function ``v(x, y)``.

    Every DoF is computed once, as :func:`vemlab.local.interpolate_dofs`
    computes it at its default exactness 2k + 4: vertex values and edge
    moments in one call each, internal moments per stack of cells.
    """
    if dofmap is None:
        dofmap = build_dofmap(mesh, k)
    check_dofmap(dofmap, mesh, k)
    out = np.zeros(dofmap.n_dofs)
    nv = dofmap.n_vertex_dofs
    out[:nv] = v(mesh.vertices[:, 0], mesh.vertices[:, 1])
    if k >= 2:
        lo, hi = mesh.edge_vertices.T
        first_int = nv + dofmap.n_edge_dofs
        out[nv:first_int] = edge_moments(
            v, mesh.vertices[lo], mesh.vertices[hi], k, k + 3).ravel()
        n_int = n_poly(k - 2)
        for geometry in geometry_stacks(mesh):
            slots = first_int + geometry.cells[:, None] * n_int + np.arange(n_int)
            out[slots] = internal_moments(geometry, k, v, 2 * k + 4)
    return out
