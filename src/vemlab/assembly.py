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

from .basis import _gauss, n_poly
from .local import ElementBank, interpolate_dofs, mesh_elements
from .local import dof_layout, local_system  # noqa: F401  (perfbench/spans.py hook targets)
from .mesh import element_geometry


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

    ``matrix`` and ``rhs`` live on interior DoFs only; ``lifting`` is a
    full-length vector whose boundary entries hold the Dirichlet data.
    ``coupling`` is the interior-by-boundary block of the full matrix and
    ``rhs_base`` the interior load before any lifting correction, so
    boundary data can be applied (or re-applied) after assembly.  ``bank``
    holds what assembly computed per cell that post-processing reuses.
    """

    matrix: sp.csr_matrix
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
    n_int = n_poly(k - 2) if k >= 2 else 0
    nv, ne = mesh.num_vertices, mesh.num_edges
    n_edge = ne * (k - 1)
    cell_dofs = []
    for c, ring in enumerate(mesh.cells):
        m = len(ring)
        g = np.empty(m * k + n_int, dtype=np.intp)
        g[:m] = ring
        for le, e in enumerate(mesh.cell_edges[c]):
            g[m + le * (k - 1):m + (le + 1) * (k - 1)] = nv + e * (k - 1) + np.arange(k - 1)
        g[m * k:] = nv + n_edge + c * n_int + np.arange(n_int)
        cell_dofs.append(g)
    fixed = list(np.nonzero(mesh.boundary_vertices)[0])
    for e in mesh.boundary_edges():
        fixed.extend(nv + e * (k - 1) + j for j in range(k - 1))
    boundary = np.array(sorted(fixed), dtype=np.intp)
    total = nv + n_edge + mesh.num_cells * n_int
    interior = np.setdiff1d(np.arange(total), boundary)
    return DofMap(k=k, n_vertex_dofs=nv, n_edge_dofs=n_edge,
                  n_internal_dofs=mesh.num_cells * n_int,
                  cell_dofs=tuple(cell_dofs),
                  boundary_dofs=boundary, interior_dofs=interior)


def _coo_pattern(cell_dofs, n):
    """Global (row, column) of every local matrix entry, in one step.

    Entries run cell by cell, each cell's block in row-major order, which is
    the order a per-cell ``np.repeat``/``np.tile`` scatter produces; cell
    ``c``'s block is ``starts[c]:starts[c + 1]`` of the value buffer.  The
    indices are 32-bit when ``n`` allows, as SciPy would convert them anyway.
    """
    index = np.int32 if n <= np.iinfo(np.int32).max else np.intp
    sizes = np.array([g.size for g in cell_dofs], dtype=np.intp)
    blocks = sizes * sizes
    starts = np.zeros(sizes.size + 1, dtype=np.intp)
    np.cumsum(blocks, out=starts[1:])
    flat = np.concatenate(cell_dofs).astype(index)
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
    cell order, so repeated runs produce bit-identical systems.  Each cell's
    geometry, post-solve operator and triangles are kept on
    ``SparseSystem.bank`` for :mod:`vemlab.postprocess`.
    """
    if dofmap is None:
        dofmap = build_dofmap(mesh, k)
    n = dofmap.n_dofs

    rows, cols, starts = _coo_pattern(dofmap.cell_dofs, n)
    sizes = np.array([g.size for g in dofmap.cell_dofs])
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
        kept.append((out.geometry, out.post_solve_operators(), tris))
    # free the last chunk's working arrays before the CSR conversion, the
    # memory peak of assembly
    del out, block
    A = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    del rows, cols, vals
    rhs_full = np.zeros(n)
    np.add.at(rhs_full, np.concatenate(dofmap.cell_dofs), loads)

    ii, bb = dofmap.interior_dofs, dofmap.boundary_dofs
    A_rows = A[ii]
    return SparseSystem(matrix=A_rows[:, ii].tocsr(),
                        rhs=rhs_full[ii].copy(),
                        lifting=np.zeros(n),
                        dofmap=dofmap,
                        coupling=A_rows[:, bb].tocsr(),
                        rhs_base=rhs_full[ii],
                        bank=ElementBank.collect(k, mesh.num_cells, kept))


def apply_dirichlet(system, g, mesh, k):
    """Install Dirichlet data ``g`` (callable or constant) into ``system``.

    Boundary vertex DoFs take point values of ``g``; boundary edge DoFs take
    the same normalized line moments used when interpolating a smooth
    function, so interpolants of ``g`` satisfy the boundary data exactly.
    Returns ``system`` with ``lifting`` and ``rhs`` updated.
    """
    dofmap = system.dofmap
    if k != dofmap.k:
        raise ValueError(f"system was assembled with k={dofmap.k}, got k={k}")
    if callable(g):
        gv = g
    else:
        const = float(g)
        gv = lambda x, y: np.full(np.shape(x), const)

    lift = np.zeros(dofmap.n_dofs)
    vb = np.nonzero(mesh.boundary_vertices)[0]
    lift[vb] = gv(mesh.vertices[vb, 0], mesh.vertices[vb, 1])
    if k >= 2:
        t, w_std = _gauss(k + 3)
        for e in mesh.boundary_edges():
            lo, hi = mesh.edge_vertices[e]
            a, b = mesh.vertices[lo], mesh.vertices[hi]
            pts = 0.5 * (a + b) + 0.5 * np.outer(t, b - a)
            vals = gv(pts[:, 0], pts[:, 1])
            base = dofmap.n_vertex_dofs + e * (k - 1)
            for j in range(k - 1):
                lift[base + j] = np.sum(w_std / 2 * vals * t ** j)
    system.lifting = lift
    system.rhs = system.rhs_base - system.coupling @ lift[dofmap.boundary_dofs]
    return system


def solve(system):
    """Direct sparse solve; returns the full-length global DoF vector.

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
    scale = max(np.linalg.norm(system.rhs), np.linalg.norm(A @ x), 1e-30)
    resid = np.linalg.norm(A @ x - system.rhs)
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

    Shared vertex and edge DoFs receive identical values from every incident
    cell, so the per-cell writes are consistent by construction.
    """
    if dofmap is None:
        dofmap = build_dofmap(mesh, k)
    out = np.zeros(dofmap.n_dofs)
    for c in range(mesh.num_cells):
        geom = element_geometry(mesh, c)
        out[dofmap.cell_dofs[c]] = interpolate_dofs(geom, k, v)
    return out
