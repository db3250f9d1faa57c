"""Error measurement and convergence-rate fitting.

The discrete solution is only known through its DoFs, so all errors are
computed against its computable polynomial snapshots: the cellwise L2
projection of the function for the L2 error and the projected gradient for
the H1 seminorm error.  Slopes come from log-log fits over mesh sequences.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .assembly import build_dofmap, check_dofmap
from .basis import ScaledMonomialBasis, map_rule, monomial_exponents, n_poly
from .basis import polygon_quadrature  # noqa: F401  (perfbench/spans.py hook target)
from .local import ElementBank, mesh_elements
from .local import projector_set  # noqa: F401  (perfbench/spans.py hook target)
from .mesh import element_geometry  # noqa: F401  (perfbench/spans.py hook target)


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
    slope_point: float
    pairwise_L2: np.ndarray = field(repr=False)
    pairwise_H1: np.ndarray = field(repr=False)
    pairwise_point: np.ndarray = field(repr=False)


@dataclass
class SolutionProjection:
    """Cellwise polynomial snapshots of a discrete solution.

    ``coeffs[c]`` holds the L2-projection coefficients of the solution on
    cell ``c`` in the scaled monomial basis of degree ``k``; ``grad_coeffs``
    the projected gradient (degree ``k - 1``, last axis = component);
    ``energy_coeffs`` the energy projection, kept for the alternative H1
    error representative.  ``bank`` is the ``ElementBank`` they came from:
    its geometry gives the basis those coefficients refer to, and its
    triangles are what the error norms integrate over.
    """

    mesh: object
    k: int
    coeffs: np.ndarray
    grad_coeffs: np.ndarray
    energy_coeffs: np.ndarray
    bank: ElementBank = field(repr=False)

    def cell_value(self, cell, points):
        basis = ScaledMonomialBasis(self.bank.element(cell), self.k)
        return basis.eval(points) @ self.coeffs[cell]


def project_solution(mesh, k, u, dofmap=None, bank=None):
    """Cellwise polynomial snapshots of the DoF vector ``u``.

    ``bank`` is the ``ElementBank`` that :func:`vemlab.assembly.assemble`
    returns on ``SparseSystem.bank``; without one, the element kernel builds
    every cell's projectors here (with a degree-2k rule).
    """
    if dofmap is None:
        dofmap = build_dofmap(mesh, k)
    check_dofmap(dofmap, mesh, k)
    if u.shape != (dofmap.n_dofs,):
        raise ValueError(
            f"DoF vector has shape {u.shape}, expected ({dofmap.n_dofs},)")
    if bank is None:
        bank = ElementBank(k, tuple(out.bank_entry(tris) for out, tris
                                    in mesh_elements(mesh, k, 2 * k)))
    elif bank.k != k:
        raise ValueError(f"element bank was built with k={bank.k}, got k={k}")
    elif bank.n_cells != mesh.num_cells:
        raise ValueError(f"element bank has {bank.n_cells} cells, the mesh "
                         f"has {mesh.num_cells}")
    coeffs, grads, energy = bank.snapshots(u, dofmap.cell_dofs)
    return SolutionProjection(mesh=mesh, k=k, coeffs=coeffs,
                              grad_coeffs=grads, energy_coeffs=energy,
                              bank=bank)


def error_norms(mesh, k, projection, p_ex, grad_p_ex, gradient="pi0",
                exactness=None, relative=True):
    """(L2, H1-seminorm) errors of a projected solution against ``p_ex``.

    ``gradient`` selects the discrete-gradient representative: ``"pi0"``
    uses the projected gradient, ``"pinabla"`` the gradient of the energy
    projection.  With ``relative=True`` (default) errors are normalized by
    the corresponding norms of ``p_ex``, integrated with the same rule.

    The degree-``exactness`` rule (default 2k + 4) is mapped once onto the
    triangles the projection's bank carries for each cell.  Cells are
    evaluated chunk by chunk of the bank, and the cell contributions are
    summed in cell order.
    """
    if gradient not in ("pi0", "pinabla"):
        raise ValueError(f"unknown gradient representative {gradient!r}")
    if (projection.k, len(projection.coeffs)) != (k, mesh.num_cells):
        raise ValueError(
            f"projection has k={projection.k} on {len(projection.coeffs)} "
            f"cells, expected k={k} on the mesh's {mesh.num_cells} cells")
    ex = (2 * k + 4) if exactness is None else exactness
    parts = _cell_error_parts(k, projection, p_ex, grad_p_ex, gradient, ex)
    # cumsum adds the cells strictly in order; np.sum's pairwise order
    # would round differently
    num_l2, num_h1, den_l2, den_h1 = np.cumsum(parts, axis=1)[:, -1]
    err_l2, err_h1 = np.sqrt(num_l2), np.sqrt(num_h1)
    if not relative:
        return err_l2, err_h1
    return (err_l2 / max(np.sqrt(den_l2), 1e-300),
            err_h1 / max(np.sqrt(den_h1), 1e-300))


def _cell_error_parts(k, projection, p_ex, grad_p_ex, gradient, ex):
    """Squared L2 error, H1 error, L2 norm and H1 norm of every cell, with
    the degree-``ex`` rule of :func:`error_norms`; (4, cells).

    The monomial tables on the rule points are built once per shape class,
    on the representatives that lead each group's first chunk, and each
    cell pairs its class's tables with the exact solution at its own points.
    """
    parts = np.empty((4, len(projection.coeffs)))
    exps = monomial_exponents(k)
    nkm1 = n_poly(k - 1)
    seen = None
    for geometry, tris, operators, classes in projection.bank.chunks:
        part = geometry.cells
        pts, w = map_rule(tris, ex)
        flat = pts.reshape(-1, 2)
        x, y = flat[:, 0], flat[:, 1]
        p_vals = np.broadcast_to(np.asarray(p_ex(x, y), dtype=float),
                                 x.shape).reshape(w.shape)
        g_vals = np.broadcast_to(np.asarray(grad_p_ex(x, y), dtype=float),
                                 x.shape + (2,)).reshape(w.shape + (2,))
        if operators is not seen:
            seen, n = operators, len(operators)
            args = (pts[:n], geometry.centroid[:n], geometry.diameter[:n],
                    exps)
            tables = [kernels.monomial_vandermonde(*args)]
            if gradient == "pinabla":
                tables += kernels.monomial_vandermonde_grad(*args)
        V, *grads = (t[classes] for t in tables)
        ph = (V @ projection.coeffs[part][..., None])[..., 0]
        if gradient == "pi0":
            # graded order: the degree-(k-1) monomials are the first columns
            gh = V[..., :nkm1] @ projection.grad_coeffs[part]
        else:
            gx, gy = grads
            energy = projection.energy_coeffs[part][..., None]
            gh = np.concatenate([gx @ energy, gy @ energy], axis=-1)
        wr = w[:, None, :]
        for row, values in enumerate((
                (ph - p_vals) ** 2, np.sum((gh - g_vals) ** 2, axis=-1),
                p_vals ** 2, np.sum(g_vals ** 2, axis=-1))):
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


def locate_cell(mesh, point):
    """Index of the first cell containing ``point`` (boundary-inclusive).

    Only cells whose bounding box, widened by twice the containment
    tolerance, holds the point are tested, in ascending index order.
    """
    p = np.asarray(point, dtype=float)
    span = np.ptp(mesh.vertices, axis=0).max()
    tol = 1e-12 * span
    sizes = np.array([ring.size for ring in mesh.cells])
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    coords = mesh.vertices[np.concatenate(mesh.cells)]
    lo = np.minimum.reduceat(coords, starts) - 2 * tol
    hi = np.maximum.reduceat(coords, starts) + 2 * tol
    for c in np.flatnonzero(np.all((lo <= p) & (p <= hi), axis=1)):
        if _contains(mesh.vertices[mesh.cells[c]], p, tol):
            return int(c)
    raise ValueError(f"point {tuple(p)} lies outside the mesh")


def point_error(projection, point, p_ex):
    """Relative error of the projected solution at one point.

    Returns ``(error, cell)`` where ``cell`` is the containing cell whose
    polynomial was evaluated; for points on an interface the lowest-index
    incident cell is used.
    """
    p = np.asarray(point, dtype=float)
    cell = locate_cell(projection.mesh, p)
    value = projection.cell_value(cell, p[None, :])[0]
    exact = float(p_ex(p[0], p[1]))
    return abs(exact - value) / max(abs(exact), 1e-300), cell


def _pairwise(hs, errs):
    out = np.full(len(hs) - 1, np.nan)
    for i in range(len(hs) - 1):
        dh = np.log(hs[i + 1] / hs[i])
        if dh != 0.0 and errs[i] > 0 and errs[i + 1] > 0:
            out[i] = np.log(errs[i + 1] / errs[i]) / dh
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
    between successive usable records (``nan`` where undefined).
    """
    usable = [r for r in records
              if not r.failed and np.isfinite([r.err_L2_rel, r.err_H1_rel,
                                               r.h_max]).all()]
    hs = np.array([r.h_max for r in usable])
    l2 = np.array([r.err_L2_rel for r in usable])
    h1 = np.array([r.err_H1_rel for r in usable])
    pt = np.array([r.err_point_rel for r in usable])
    if hs.size >= 2:
        pair_l2, pair_h1, pair_pt = (_pairwise(hs, l2), _pairwise(hs, h1),
                                     _pairwise(hs, pt))
    else:
        pair_l2 = pair_h1 = pair_pt = np.empty(0)
    return ConvergenceReport(records=tuple(records),
                             slope_L2=_fit(hs, l2),
                             slope_H1=_fit(hs, h1),
                             slope_point=_fit(hs, pt),
                             pairwise_L2=pair_l2,
                             pairwise_H1=pair_h1,
                             pairwise_point=pair_pt)
