"""Global system assembly: DoF numbering, static condensation, sparse
scatter, Dirichlet elimination.

Global degrees of freedom are ordered as all vertex values, then ``k - 1``
scaled line moments per mesh edge (taken along the canonical low-to-high
vertex direction, so the two cells sharing an edge see the same functional),
then ``dim P_{k-2}`` scaled internal moments per cell.  A cell's internal
moments couple only to that cell's own DoFs, so assembly condenses them out
cell by cell: the global matrix couples the vertex and edge DoFs (the
skeleton) only, and the solve recovers the internal moments from them.
Dirichlet data is imposed by elimination: boundary DoFs move into a lifting
vector, the reduced system couples the interior skeleton DoFs only, and the
boundary coupling block is kept so the right-hand side can be corrected for
any lifting, whose DoFs :func:`vemlab.local.skeleton_dofs` computes.
"""

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, onenormest, splu

from .basis import n_poly
from .local import (ElementBank, _as_function, _linalg, check_degree,
                    internal_moments, mesh_elements, skeleton_dofs)
from .local import dof_layout, local_system  # noqa: F401  (perfbench/spans.py hook targets)
from .mesh import geometry_stacks
from .mesh import element_geometry  # noqa: F401  (perfbench/spans.py hook target)


class SolveError(RuntimeError):
    """Raised when the reduced linear system cannot be solved reliably."""


@dataclass(frozen=True)
class DofMap:
    """Global numbering of the virtual element DoFs on one mesh.

    ``dofs`` holds the global index of every cell's local DoF slots
    (vertex values, edge moments in ring order, internal moments), cell
    after cell; cell ``c``'s are ``dofs[offsets[c]:offsets[c + 1]]``, and
    :meth:`cell_dofs` gathers them.  ``boundary_dofs`` are the vertex and
    edge DoFs on the boundary and ``interior_dofs`` the other vertex and
    edge DoFs: the unknowns of :attr:`SparseSystem.matrix`.  The internal
    moments are in neither, as :func:`assemble` condenses them out.
    """

    k: int
    n_vertex_dofs: int
    n_edge_dofs: int
    n_internal_dofs: int
    dofs: np.ndarray = field(repr=False)
    offsets: np.ndarray = field(repr=False)
    boundary_dofs: np.ndarray = field(repr=False)
    interior_dofs: np.ndarray = field(repr=False)

    @property
    def n_dofs(self):
        return self.n_skeleton_dofs + self.n_internal_dofs

    @property
    def n_skeleton_dofs(self):
        """The vertex and edge DoFs, which come first in the numbering."""
        return self.n_vertex_dofs + self.n_edge_dofs

    def cell_dofs(self, cells):
        """The (C, n_dofs) global DoFs of ``cells``, which share a DoF
        count, in their local slot order; one cell id gives its row."""
        starts = self.offsets[cells]
        first = np.ravel(cells)[0]
        return self.dofs[np.expand_dims(starts, -1) + np.arange(
            self.offsets[first + 1] - self.offsets[first])]


@dataclass
class SparseSystem:
    """Condensed linear system after Dirichlet elimination.

    ``matrix`` (CSC, the format :func:`solve` factors) and ``rhs`` live on
    ``dofmap.interior_dofs`` only: the Schur complements of the cells'
    internal-moment blocks, scattered.  ``lifting`` is a full-length
    vector whose boundary entries hold the Dirichlet data.
    ``coupling`` is the interior-by-boundary block of the condensed matrix
    and ``rhs_base`` the interior load before any lifting correction, so
    boundary data can be applied (or re-applied) after assembly.
    ``recovery`` (CSR, internal moments by skeleton DoFs) holds each cell's
    A_ii^-1 A_ib and ``internal_load`` each cell's A_ii^-1 f_i, where i are
    the cell's internal moments and b its vertex and edge DoFs: the
    internal moments of a solution are ``internal_load - recovery @ u_b``.
    ``bank`` holds what assembly computed per cell that post-processing
    reuses, and the mesh that ``dofmap`` numbers.
    """

    matrix: sp.csc_matrix
    rhs: np.ndarray
    lifting: np.ndarray
    dofmap: DofMap
    coupling: sp.csr_matrix = field(repr=False)
    rhs_base: np.ndarray = field(repr=False)
    recovery: sp.csr_matrix = field(repr=False)
    internal_load: np.ndarray = field(repr=False)
    bank: ElementBank = field(repr=False)


def build_dofmap(mesh, k):
    """Number the global DoFs of a degree-``k`` space on ``mesh``."""
    check_degree(k)
    n_int = n_poly(k - 2)
    nv, ne = mesh.num_vertices, mesh.num_edges
    n_edge = ne * (k - 1)
    per_edge = np.arange(k - 1)
    offsets = mesh.offsets * k + np.arange(mesh.num_cells + 1) * n_int
    dofs = np.empty(offsets[-1], dtype=np.intp)
    # the cells of one vertex count at a time
    for cells, rings, edges in mesh.ring_stacks():
        _put_blocks(dofs, offsets[cells], np.concatenate([
            rings,
            (nv + edges[..., None] * (k - 1) + per_edge).reshape(len(cells), -1),
            nv + n_edge + cells[:, None] * n_int + np.arange(n_int)], axis=1))
    boundary = np.concatenate([
        np.flatnonzero(mesh.boundary_vertices),
        (nv + mesh.boundary_edges()[:, None] * (k - 1) + per_edge).ravel()])
    free = np.ones(nv + n_edge, dtype=bool)
    free[boundary] = False
    return DofMap(k=k, n_vertex_dofs=nv, n_edge_dofs=n_edge,
                  n_internal_dofs=mesh.num_cells * n_int,
                  dofs=dofs, offsets=offsets,
                  boundary_dofs=boundary.astype(np.intp),
                  interior_dofs=np.flatnonzero(free))


def interior_first(dofmap):
    """Renumbering of the vertex and edge DoFs that puts the interior ones
    first, in the order of ``interior_dofs``, then the boundary ones, in the
    order of ``boundary_dofs``: the numbering in which :func:`assemble`
    converts the condensed global matrix, so that the reduced system is its
    leading block."""
    ii, bb = dofmap.interior_dofs, dofmap.boundary_dofs
    number = np.empty(dofmap.n_skeleton_dofs, dtype=np.intp)
    number[ii] = np.arange(ii.size)
    number[bb] = ii.size + np.arange(bb.size)
    return number


def _put_blocks(buffer, starts, blocks):
    """Write row ``i`` of the (C, m) ``blocks`` to ``buffer[starts[i]:
    starts[i] + m]``, a row at a time through a view of ``buffer`` whose
    row ``j`` starts at entry ``j``: a fancy-index write per entry takes
    four to five times as long on concave_k4."""
    m, step = blocks.shape[1], buffer.itemsize
    np.ndarray((buffer.size - m + 1, m), buffer.dtype, buffer,
               strides=(step, step))[starts] = blocks


def assemble(mesh, k, coeffs, mode="standard"):
    """Assemble the condensed, reduced global system for one problem.

    The global DoFs are numbered by :func:`build_dofmap` on ``mesh``, which
    is kept on ``SparseSystem.bank``.  The element kernel builds the local
    matrices stack by stack (see :func:`vemlab.local.mesh_elements`).  Each
    chunk's internal-moment blocks A_ii are removed in one batched solve
    against [A_ib | f_i] (a singular block raises ``LinAlgError`` naming
    its cell): the Schur
    complement A_bb - A_bi A_ii^-1 A_ib of each cell, on its vertex and
    edge DoFs only, is written into its cell's slot of one preallocated
    COO buffer, its rows and columns (``np.repeat``/``np.tile`` of the
    chunk's :meth:`DofMap.cell_dofs`) beside its values, and the condensed
    loads are summed in cell order, so repeated runs produce bit-identical
    systems.  A_ii^-1 [A_ib | f_i] is kept, as ``SparseSystem.recovery``
    and ``internal_load``, for :func:`solve`.  At k = 1 there are no
    internal moments, and the blocks are scattered as they are.  Each
    chunk's :class:`vemlab.local.ElementStack`, without its projectors and
    forms, is kept on ``SparseSystem.bank`` for :mod:`vemlab.postprocess`.
    The global matrix is converted once, to CSC in the :func:`interior_first`
    numbering: the reduced matrix, which :func:`solve` factors without a
    copy, is its leading block, and the interior-by-boundary coupling
    block is converted on to CSR.
    """
    dofmap = build_dofmap(mesh, k)
    n = dofmap.n_skeleton_dofs
    n_int = n_poly(k - 2)
    number = interior_first(dofmap)
    # each cell's slots in the buffers, cell after cell: its vertex and
    # edge DoFs, which lead its local slots, squared for the matrix, once
    # for the load and once per internal moment for the recovery rows
    skeleton = np.diff(dofmap.offsets) - n_int
    starts, load_starts, recovery_starts = (
        np.concatenate([[0], np.cumsum(skeleton * m)])
        for m in (skeleton, 1, n_int))
    # 32-bit indices when n allows, as SciPy would convert them anyway
    index = np.int32 if n <= np.iinfo(np.int32).max else np.intp
    rows, cols = np.empty((2, starts[-1]), dtype=index)
    vals = np.empty(starts[-1])
    loads = np.empty(load_starts[-1])
    recovery_cols = np.empty(recovery_starts[-1], dtype=index)
    recovery = np.empty(recovery_starts[-1])
    internal_load = np.empty(dofmap.n_internal_dofs)
    kept = []
    for out in mesh_elements(mesh, k, coeffs, mode):
        cells, forms = out.geometry.cells, out.forms
        block = forms.Ah + forms.Bh
        block += forms.Ch
        ns = block.shape[-1] - n_int
        # Z = A_ii^-1 [A_ib | f_i]; A_bi Z gives the Schur complement and
        # the condensed load
        Z = _linalg(np.linalg.solve, "internal-moment block", out.geometry,
                    block[:, ns:, ns:],
                    np.concatenate([block[:, ns:, :ns],
                                    forms.f_loc[:, ns:, None]], axis=2),
                    cause="the local form does not determine the internal "
                          "moments")
        AZ = block[:, :ns, ns:] @ Z
        schur = block[:, :ns, :ns] - AZ[..., :ns]
        g = dofmap.cell_dofs(cells)[:, :ns]
        numbered = number[g]
        at = starts[cells]
        _put_blocks(vals, at, schur.reshape(len(cells), -1))
        _put_blocks(rows, at, np.repeat(numbered, ns, axis=1))
        _put_blocks(cols, at, np.tile(numbered, ns))
        _put_blocks(loads, load_starts[cells],
                    forms.f_loc[:, :ns] - AZ[..., ns])
        # the rows of each cell's A_ii^-1 A_ib are its internal moments, in
        # order, so the cells' row-major blocks are the CSR data in cell
        # order
        at = recovery_starts[cells]
        _put_blocks(recovery, at, Z[..., :ns].reshape(len(cells), -1))
        _put_blocks(recovery_cols, at, np.tile(g, n_int))
        _put_blocks(internal_load, cells * n_int, Z[..., ns])
        kept.append(replace(out, projectors=None, forms=None))
    # free the last chunk's working arrays before the conversion, the
    # memory peak of assembly
    del out, forms, block, Z, AZ, schur, g, numbered
    # one conversion, in the interior-first numbering: the reduced matrix
    # is the leading block of the global one
    A = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsc()
    del rows, cols, vals
    rhs_full = np.zeros(n)
    np.add.at(rhs_full, dofmap.dofs[dofmap.dofs < n], loads)
    ii = dofmap.interior_dofs
    matrix = A[:ii.size, :ii.size]
    coupling = A[:ii.size, ii.size:].tocsr()
    del A
    indptr = np.zeros(dofmap.n_internal_dofs + 1, dtype=np.intp)
    np.cumsum(np.repeat(skeleton, n_int), out=indptr[1:])
    return SparseSystem(matrix=matrix,
                        rhs=rhs_full[ii].copy(),
                        lifting=np.zeros(dofmap.n_dofs),
                        dofmap=dofmap,
                        coupling=coupling,
                        rhs_base=rhs_full[ii],
                        recovery=sp.csr_matrix(
                            (recovery, recovery_cols, indptr),
                            shape=(dofmap.n_internal_dofs, n)),
                        internal_load=internal_load,
                        bank=ElementBank(mesh, k, tuple(kept)))


def apply_dirichlet(system, g):
    """Install Dirichlet data ``g`` (a callable or a real scalar) into
    ``system``, on the boundary of its mesh, ``system.bank.mesh``.

    Boundary vertex DoFs take point values of ``g``; boundary edge DoFs take
    the same normalized line moments used when interpolating a smooth
    function, so interpolants of ``g`` satisfy the boundary data exactly.
    Returns ``system`` with ``lifting`` and ``rhs`` updated.
    """
    dofmap, mesh = system.dofmap, system.bank.mesh
    # in the order of dofmap.boundary_dofs
    values, moments = skeleton_dofs(
        _as_function(g, "g"), mesh.vertices[mesh.boundary_vertices],
        mesh.vertices[mesh.edge_vertices[mesh.boundary_edges()]], dofmap.k,
        "g")
    lift = np.zeros(dofmap.n_dofs)
    lift[dofmap.boundary_dofs] = np.concatenate([values, moments.ravel()])
    if not np.isfinite(lift).all():
        _name_non_finite(lift, mesh, dofmap.k, "Dirichlet data g",
                         "boundary ")
    system.lifting = lift
    system.rhs = system.rhs_base - system.coupling @ lift[dofmap.boundary_dofs]
    return system


def _name_non_finite(dofs, mesh, k, what, where=""):
    """Raise ValueError naming ``what`` and the first vertex, edge or cell
    (after ``where``) whose DoF in ``dofs``, numbered by :func:`build_dofmap`
    on ``mesh`` at degree ``k``, is not finite."""
    first = int(np.argmax(~np.isfinite(dofs)))
    nv, n_edge = mesh.num_vertices, mesh.num_edges * (k - 1)
    if first < nv:
        place = f"vertex {first}"
    elif first < nv + n_edge:
        edge = (first - nv) // (k - 1)
        lo, hi = mesh.edge_vertices[edge]
        place = f"edge {edge} (vertices {lo}, {hi})"
    else:
        place = f"cell {(first - nv - n_edge) // n_poly(k - 2)}"
    raise ValueError(f"{where}{place}: {what} is not finite")


def solve(system):
    """Direct sparse solve; returns the full-length global DoF vector.

    The condensed reduced system gives the interior vertex and edge DoFs;
    every cell's internal moments then follow from its vertex and edge
    DoFs in one sparse product, ``internal_load - recovery @ u_b``.
    The reduced matrix is factored as it is when it is CSC, as
    :func:`assemble` builds it; another format is converted first.

    The global matrix has a symmetric sparsity pattern (advection only makes
    its values unsymmetric), so SuperLU factors it in its symmetric mode:
    the columns are ordered by minimum degree on ``A^T + A``, and the
    diagonal pivot is taken whenever it is at least 0.1 of the column's
    largest entry, which keeps that ordering.  On the k = 4 concave 30x30
    system, before condensation, this gave an LU fill of 1.6 against 17.5
    for the default COLAMD ordering, and 35.7 with strict partial pivoting
    (``diag_pivot_thresh=1.0``), which destroys the ordering; the condensed
    system factors at a fill of 2.0, into 2.71M entries of L + U instead
    of 3.32M.  Outside
    symmetric mode SuperLU would postorder the column elimination tree of
    ``A^T A`` and factor that column order instead: at the same fill, that
    is 4.5 times slower to factor on the k = 1 lloyd100 1,600 system and 34
    times slower on the k = 2 lloyd0 4,096 one (Voronoi meshes at k <= 2).
    The residual check, with one refinement step, guards the weaker
    pivoting.  A residual that passes it but lies above roundoff is not
    enough on its own: condensation can leave a small residual on a system
    so ill-conditioned that the answer is wrong, so such a solve also
    bounds its forward error (:func:`_solve_reduced`).
    """
    u = system.lifting.copy()
    dofmap = system.dofmap
    if system.matrix.shape[0]:
        u[dofmap.interior_dofs] = _solve_reduced(system.matrix.tocsc(),
                                                 system.rhs)
    n = dofmap.n_skeleton_dofs
    u[n:] = system.internal_load - system.recovery @ u[:n]
    return u


#: Relative residual of the reduced solve above which its forward error is
#: bounded: roundoff.  Every benchmark mesh reads at most 3.5e-15 (seeds 0
#: and 1), so the bound never runs there; 1e-4-wide sliver cells read up to
#: 3.8e-13, 1e-7-wide ones 6e-11 to 2.5e-10.
_ROUNDOFF_RESIDUAL = 1e-13
#: Largest accepted bound on the reduced solution's relative error, the
#: 1-norm condition estimate times the relative residual.  A 4 x 4 grid
#: with 1e-4-wide sliver columns reads at most 2.9e-7 (k = 4) and returns
#: the patch-test answer within 1.2e-10; with 1e-7-wide columns it reads
#: 1.1e-3 (k = 1) to 0.19 (k = 4), and its answers are off by up to 7e-5.
#: The tolerance sits between the two, about 30 and 100 times from each.
_FORWARD_ERROR_TOL = 1e-5


def _solve_reduced(A, rhs):
    """Solution of the reduced system ``A x = rhs``, factored as
    :func:`solve` describes, with its residual checked.  A residual above
    roundoff bounds the relative error of ``x`` by the 1-norm condition
    number of ``A`` (estimated from the factors' solves) times the relative
    residual; an answer whose bound exceeds ``_FORWARD_ERROR_TOL`` cannot
    be verified and raises :class:`SolveError`."""
    try:
        lu = splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1,
                  options={"SymmetricMode": True})
        x = lu.solve(rhs)
    except RuntimeError as exc:
        raise SolveError(
            "direct solve failed: the global matrix is singular, which "
            "indicates a stability failure or missing boundary data") from exc
    if not np.all(np.isfinite(x)):
        raise SolveError(
            "direct solve produced non-finite values, which indicates a "
            "stability failure or missing boundary data")
    Ax = A @ x
    scale = max(np.linalg.norm(rhs), np.linalg.norm(Ax), 1e-30)
    resid = np.linalg.norm(Ax - rhs)
    if resid > 1e-10 * scale:
        x = x + lu.solve(rhs - A @ x)
        resid = np.linalg.norm(A @ x - rhs)
        if resid > 1e-10 * scale:
            raise SolveError(
                f"solver residual {resid:.3e} exceeds 1e-10 relative "
                "tolerance; the system is too ill-conditioned (stability "
                "failure)")
    if resid > _ROUNDOFF_RESIDUAL * scale:
        # one column, so the estimate draws no random numbers
        n = A.shape[0]
        inverse = LinearOperator(
            (n, n), matvec=lu.solve, rmatvec=lambda v: lu.solve(v, trans="T"),
            dtype=float)
        bound = (abs(A).sum(axis=0).max() * onenormest(inverse, t=1)
                 * resid / scale)
        if bound > _FORWARD_ERROR_TOL:
            raise SolveError(
                f"the answer cannot be verified: condition estimate times "
                f"relative residual bounds its relative error by {bound:.1e}, "
                f"above {_FORWARD_ERROR_TOL:g}; the system is too "
                "ill-conditioned (stability failure)")
    return x


def interpolate(mesh, k, v):
    """Global DoF vector of a smooth function ``v(x, y)``, or of a real
    constant ``v``, in the numbering of :func:`build_dofmap` on ``mesh``.

    Every DoF is computed once, as :func:`vemlab.local.interpolate_dofs`
    computes it: the vertex values and edge moments in one
    :func:`vemlab.local.skeleton_dofs` call, the internal moments per
    stack of cells.  A DoF that is not finite raises ``ValueError`` naming
    ``v`` and the first such DoF's vertex, edge or cell.
    """
    check_degree(k)
    v = _as_function(v, "v")
    values, moments = skeleton_dofs(
        v, mesh.vertices, mesh.vertices[mesh.edge_vertices], k)
    internal = np.empty((mesh.num_cells, n_poly(k - 2)))
    if k >= 2:
        for geometry in geometry_stacks(mesh):
            internal[geometry.cells] = internal_moments(geometry, k, v)
    dofs = np.concatenate([values, moments.ravel(), internal.ravel()])
    if not np.isfinite(dofs).all():
        _name_non_finite(dofs, mesh, k, "v")
    return dofs
