"""Error measurement and convergence-rate fitting.

The discrete solution is only known through its DoFs, so all errors are
computed against its computable polynomial snapshots: the cellwise L2
projection of the function for the L2 error and the projected gradient for
the H1 seminorm error.  Slopes come from log-log fits over mesh sequences.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .assembly import build_dofmap
from .basis import map_rule, monomial_values, n_poly
from .basis import polygon_quadrature  # noqa: F401  (perfbench/spans.py hook target)
from .local import ElementBank, _at, _check_finite, smooth_rule_degree
from .local import projector_set  # noqa: F401  (perfbench/spans.py hook target)
from .mesh import element_geometry, take


@dataclass(frozen=True)
class ErrorRecord:
    """Errors of one solve; ``failed`` marks an unsolvable mesh (kept as
    data so sweeps can continue) and ``cause`` says why.  ``cause`` is not
    written to reports."""

    h_max: float
    n_cells: int
    n_dofs: int
    err_L2_rel: float
    err_H1_rel: float
    err_point_rel: float
    failed: bool = False
    cause: str = ""


@dataclass(frozen=True)
class ConvergenceReport:
    """Least-squares and pairwise log-log slopes over a mesh sequence."""

    records: tuple
    slope_L2: float
    slope_H1: float
    pairwise_L2: np.ndarray = field(repr=False)
    pairwise_H1: np.ndarray = field(repr=False)


@dataclass
class SolutionProjection:
    """Cellwise polynomial snapshots of a discrete solution.

    ``coeffs[c]`` holds the L2-projection coefficients of the solution on
    cell ``c`` in the scaled monomial basis of degree ``k``; ``grad_coeffs``
    the projected gradient (degree ``k - 1``, last axis = component), the
    representative of the gradient that the H1 error measures.  ``bank`` is
    the ``ElementBank`` they came from, which names the mesh and ``k``: its
    geometry gives the basis those coefficients refer to, and its triangles
    are what the error norms integrate over.
    """

    coeffs: np.ndarray
    grad_coeffs: np.ndarray
    bank: ElementBank = field(repr=False)

    def cell_value(self, cell, points):
        """L2 projection on ``cell`` at ``points`` (n, 2), in the basis of
        the cell's own geometry (its bank row's, bit for bit).  ``points``
        that are not an (n, 2) real array raise ``ValueError`` naming
        them."""
        pts = np.asarray(points)
        if pts.dtype.kind not in "iuf" or pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError("points must be an (n, 2) real array, got "
                             f"dtype {pts.dtype} and shape {pts.shape}")
        return monomial_values(element_geometry(self.bank.mesh, cell),
                               pts, self.bank.k) @ self.coeffs[cell]


def project_solution(bank, u):
    """Cellwise polynomial snapshots of the DoF vector ``u`` through
    ``bank``, the ``ElementBank`` of its mesh and degree:
    ``SparseSystem.bank`` from :func:`vemlab.assembly.assemble`, or
    :func:`vemlab.local.element_bank`.

    ``u`` is numbered by :func:`vemlab.assembly.build_dofmap` on the bank's
    mesh; one that is not a real vector of that map's length, say of
    another mesh or degree, or that is not finite, raises ``ValueError``
    naming ``u``.  Each bank chunk gives its cells' snapshots in one
    stacked product with its ``operators``.
    """
    dofmap = build_dofmap(bank.mesh, bank.k)
    u = np.asarray(u)
    if u.dtype.kind not in "iuf":
        raise ValueError(f"u must be a real DoF vector, got dtype {u.dtype}")
    if u.shape != (dofmap.n_dofs,):
        raise ValueError(
            f"u has shape {u.shape}, expected ({dofmap.n_dofs},)")
    if not np.isfinite(u).all():
        raise ValueError(f"u[{np.argmax(~np.isfinite(u))}] is not finite")
    nk, nkm1 = n_poly(bank.k), n_poly(bank.k - 1)
    snaps = np.empty((bank.mesh.num_cells, nk + 2 * nkm1))
    for chunk in bank.chunks:
        cells = chunk.geometry.cells
        snaps[cells] = (chunk.operators[chunk.classes]
                        @ u[dofmap.cell_dofs(cells)][..., None])[..., 0]
    pi0, gx, gy = np.split(snaps, [nk, nk + nkm1], axis=1)
    return SolutionProjection(coeffs=pi0, grad_coeffs=np.stack([gx, gy], -1),
                              bank=bank)


def error_norms(projection, p_ex, grad_p_ex, relative=True):
    """(L2, H1-seminorm) errors of a projected solution against ``p_ex``.

    The H1 error measures the projected gradient Pi0_{k-1} grad p_h, the
    snapshot ``projection.grad_coeffs``.  With ``relative=True`` (default)
    errors are normalized by the corresponding norms of ``p_ex``,
    integrated with the same rule; a norm that is 0 (the gradient of a
    constant ``p_ex``, say) raises ``ValueError`` naming it.

    A rule of degree :func:`vemlab.local.smooth_rule_degree` (2k + 4) is
    mapped once onto the triangles the projection's bank carries for each
    cell.  Cells are evaluated chunk by chunk of the bank, and the cell
    contributions are summed in cell order.  A ``p_ex`` or ``grad_p_ex``
    that is not finite at a rule point raises ``ValueError`` naming the
    cell and the field.
    """
    parts = _cell_error_parts(projection, p_ex, grad_p_ex,
                              smooth_rule_degree(projection.bank.k))
    # cumsum adds the cells strictly in order; np.sum's pairwise order
    # would round differently
    num_l2, num_h1, den_l2, den_h1 = np.cumsum(parts, axis=1)[:, -1]
    err_l2, err_h1 = np.sqrt(num_l2), np.sqrt(num_h1)
    if not relative:
        return err_l2, err_h1
    for name, den in (("p_ex", den_l2), ("grad_p_ex", den_h1)):
        if den == 0.0:
            raise ValueError(f"the L2 norm of {name} is 0, so no error is "
                             "relative to it; pass relative=False")
    return err_l2 / np.sqrt(den_l2), err_h1 / np.sqrt(den_h1)


def _cell_error_parts(projection, p_ex, grad_p_ex, ex):
    """Squared L2 error, H1 error, L2 norm and H1 norm of every cell, with
    the degree-``ex`` rule of :func:`error_norms`; (4, cells).

    The monomial table on the rule points is built once per shape class,
    on the representatives that lead each group's first chunk, and each
    cell pairs its class's table with the exact solution at its own points.
    """
    parts = np.empty((4, len(projection.coeffs)))
    nkm1 = n_poly(projection.bank.k - 1)
    seen = None
    for chunk in projection.bank.chunks:
        geometry, classes = chunk.geometry, chunk.classes
        part = geometry.cells
        pts, w = map_rule(chunk.triangles, ex)
        p_vals = _at("p_ex", p_ex, pts)
        g_vals = _at("grad_p_ex", grad_p_ex, pts, (2,))
        _check_finite(geometry, p_ex=p_vals, grad_p_ex=g_vals)
        if chunk.operators is not seen:
            seen, n = chunk.operators, len(chunk.operators)
            table = monomial_values(take(geometry, slice(n)), pts[:n],
                                    projection.bank.k)
        # a chunk whose cells are its group's classes, in order (every
        # Voronoi chunk), reads the table itself instead of a copy
        V = (table if np.array_equal(classes, np.arange(len(table)))
             else table[classes])
        ph = (V @ projection.coeffs[part][..., None])[..., 0]
        # graded order: the degree-(k-1) monomials are the first columns
        gh = V[..., :nkm1] @ projection.grad_coeffs[part]
        wr = w[:, None, :]
        # per coordinate: NumPy's sums over a trailing axis of length 2
        # cost more than the arithmetic
        for row, values in enumerate((
                (ph - p_vals) ** 2,
                (gh[..., 0] - g_vals[..., 0]) ** 2
                + (gh[..., 1] - g_vals[..., 1]) ** 2,
                p_vals ** 2, g_vals[..., 0] ** 2 + g_vals[..., 1] ** 2)):
            parts[row, part] = (wr @ values[..., None])[:, 0, 0]
    return parts


def _segment_distance(a, b, p):
    ab = b - a
    denom = ab @ ab
    t = 0.0 if denom == 0.0 else np.clip((p - a) @ ab / denom, 0.0, 1.0)
    return np.linalg.norm(p - (a + t * ab))


def _contains(coords, p, tol):
    x, y = p
    n = coords.shape[0]
    for i in range(n):
        if _segment_distance(coords[i], coords[(i + 1) % n], p) <= tol:
            return True
    inside = False
    j = n - 1
    for i in range(n):
        xi, yi = coords[i]
        xj, yj = coords[j]
        if (yi > y) != (yj > y):
            x_cross = xi + (y - yi) * (xj - xi) / (yj - yi)
            if x < x_cross:
                inside = not inside
        j = i
    return inside


def _as_point(point):
    """``point`` as a float array of shape (2,); ``ValueError`` naming it
    if it is not two real coordinates."""
    p = np.asarray(point)
    if p.dtype.kind not in "iuf" or p.shape != (2,):
        raise ValueError(f"point must be two real coordinates (x, y), got "
                         f"{point!r}")
    return p.astype(float)


def locate_cell(mesh, point):
    """Index of the first cell containing ``point`` (boundary-inclusive).

    Only cells whose bounding box, widened by twice the containment
    tolerance, holds the point are tested, in ascending index order.
    """
    p = _as_point(point)
    span = np.ptp(mesh.vertices, axis=0).max()
    tol = 1e-12 * span
    coords = mesh.vertices[mesh.rings]
    lo = np.minimum.reduceat(coords, mesh.offsets[:-1]) - 2 * tol
    hi = np.maximum.reduceat(coords, mesh.offsets[:-1]) + 2 * tol
    for c in np.flatnonzero(np.all((lo <= p) & (p <= hi), axis=1)):
        if _contains(mesh.vertices[mesh.ring(c)], p, tol):
            return int(c)
    raise ValueError(f"point {tuple(p.tolist())} lies outside the mesh")


def point_error(projection, point, p_ex):
    """Relative error of the projected solution at one point.

    Returns ``(error, cell)`` where ``cell`` is the containing cell whose
    polynomial was evaluated; for points on an interface the lowest-index
    incident cell is used.  A ``p_ex`` that is not finite, or is 0, at the
    point raises ``ValueError`` naming the cell.
    """
    p = _as_point(point)
    cell = locate_cell(projection.bank.mesh, p)
    value = projection.cell_value(cell, p[None, :])[0]
    exact = float(_at("p_ex", p_ex, p))
    if not np.isfinite(exact):
        raise ValueError(f"cell {cell}: p_ex is not finite at "
                         f"{tuple(p.tolist())}")
    if exact == 0.0:
        raise ValueError(f"cell {cell}: p_ex is 0 at {tuple(p.tolist())}, "
                         "so no error is relative to it")
    return abs(exact - value) / abs(exact), cell


def _pairwise(records, name):
    """Log-log slope of the error ``name`` between each pair of adjacent
    records: ``nan`` next to a failed record, between equal or non-finite
    mesh sizes, and where either error is not positive and finite."""
    out = np.full(max(len(records) - 1, 0), np.nan)
    for i, (prev, rec) in enumerate(zip(records, records[1:])):
        a, b = getattr(prev, name), getattr(rec, name)
        if (not (prev.failed or rec.failed) and prev.h_max != rec.h_max
                and np.isfinite([prev.h_max, rec.h_max, a, b]).all()
                and a > 0 and b > 0):
            out[i] = np.log(b / a) / np.log(rec.h_max / prev.h_max)
    return out


def _fit(hs, errs):
    mask = np.isfinite(errs) & (np.asarray(errs) > 0)
    hs, errs = np.asarray(hs)[mask], np.asarray(errs)[mask]
    keep = np.ones(hs.size, dtype=bool)
    seen = set()
    for i, h in enumerate(hs):
        if h in seen:
            keep[i] = False
            warnings.warn(f"duplicate mesh size h = {h}; excluded from the "
                          "slope fit", stacklevel=3)
        seen.add(h)
    hs, errs = hs[keep], errs[keep]
    if hs.size < 2:
        return np.nan
    return np.polyfit(np.log(hs), np.log(errs), 1)[0]


def convergence_rates(records):
    """Fit log-log slopes over a sequence of error records.

    Failed or non-finite records are skipped; duplicate mesh sizes are
    excluded from the least-squares fit with a warning.  Pairwise slopes sit
    between adjacent records (:func:`_pairwise`), so a failed record has
    ``nan`` on both sides.
    """
    records = tuple(records)
    usable = [r for r in records
              if not r.failed and np.isfinite([r.err_L2_rel, r.err_H1_rel,
                                               r.h_max]).all()]
    hs = np.array([r.h_max for r in usable])
    l2 = np.array([r.err_L2_rel for r in usable])
    h1 = np.array([r.err_H1_rel for r in usable])
    return ConvergenceReport(records=records,
                             slope_L2=_fit(hs, l2),
                             slope_H1=_fit(hs, h1),
                             pairwise_L2=_pairwise(records, "err_L2_rel"),
                             pairwise_H1=_pairwise(records, "err_H1_rel"))
