"""Scaled monomial spaces on polygons, edge traces, and quadrature.

Monomials are m_a(x) = ((x - x_E)/h_E)^a in graded order, so local matrix
conditioning is independent of the element size; :func:`monomial_values`
and :func:`monomial_derivatives` alone map a cell to them.  Polygon quadrature
triangulates each cell (centroid fan when the cell is star-shaped with
respect to its centroid, ear clipping otherwise) and applies a collapsed
Gauss-Legendre product rule on every triangle; edges use plain
Gauss-Legendre points in scaled arclength.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import kernels
from .mesh import MeshError, stack_geometry, take


def n_poly(degree):
    """Dimension of the polynomial space of total degree <= degree."""
    return 0 if degree < 0 else (degree + 1) * (degree + 2) // 2


@lru_cache(maxsize=None)
def monomial_exponents(degree):
    """Exponent pairs of 2-D monomials up to ``degree``, graded order."""
    out = [(d - j, j) for d in range(degree + 1) for j in range(d + 1)]
    return np.array(out, dtype=np.int64).reshape(-1, 2)


@lru_cache(maxsize=None)
def derivative_table(degree, axis):
    """Matrix sending P_degree coefficients to P_{degree-1} coefficients of
    the axis-derivative, for the unscaled monomials (h = 1); the scaled
    ones take :func:`monomial_derivatives`.  Read-only."""
    a, b = monomial_exponents(degree).T
    power, d = (a, b)[axis], a + b - 1
    cols = np.flatnonzero(power)
    D = np.zeros((n_poly(degree - 1), n_poly(degree)))
    # in graded order x^a y^b is entry (a + b)(a + b + 1)/2 + b
    D[(d * (d + 1) // 2 + b - axis)[cols], cols] = power[cols]
    D.flags.writeable = False
    return D


def monomial_values(geometry, points, degree):
    """Values (..., n, n_poly(degree)) of the scaled monomials of each cell
    of a ``GeometryStack``, or of one row, at its ``points`` (..., n, 2)."""
    return kernels.monomial_vandermonde(points, geometry.centroid,
                                        geometry.diameter,
                                        monomial_exponents(degree))


def monomial_derivatives(geometry, degree):
    """The x and y derivative maps of each cell's degree-``degree`` scaled
    monomials, :func:`derivative_table` divided by the cell's diameter:
    two (..., n_poly(degree - 1), n_poly(degree)) arrays."""
    h = geometry.diameter[..., None, None]
    return derivative_table(degree, 0) / h, derivative_table(degree, 1) / h


@lru_cache(maxsize=None)
def edge_reconstruction(k):
    """Map from edge data to the t-coefficients of the unique trace
    polynomial in P_k(e).

    Data order: value at t=-1, value at t=+1, then the normalized moments
    (1/|e|) int_e q t^j ds for j = 0..k-2.  The system matrix is the
    Vandermonde of those functionals on the t-monomials.
    """
    m, j = np.arange(k + 1), np.arange(k - 1)[:, None]
    moments = np.where((m + j) % 2 == 0, 1.0 / (m + j + 1), 0.0)
    return np.linalg.inv(np.vstack([(-1.0) ** m, np.ones(k + 1), moments]))


@dataclass(frozen=True)
class QuadratureRule:
    """Points and positive weights; weights sum to the measure."""

    points: np.ndarray
    weights: np.ndarray


@lru_cache(maxsize=None)
def _gauss(n):
    return np.polynomial.legendre.leggauss(n)


@lru_cache(maxsize=None)
def _duffy_rule(exactness):
    """Collapsed product rule on the reference triangle (0,0),(1,0),(0,1).

    The Duffy map x = u(1-v), y = v carries a degree-d polynomial to a
    degree d+1 integrand (the Jacobian is 1-v), so n = ceil((d+2)/2)
    Gauss-Legendre points per direction are exact.
    """
    n = max(1, math.ceil((exactness + 2) / 2))
    t, w = _gauss(n)
    u, wu = (t + 1) / 2, w / 2
    uu, vv = np.meshgrid(u, u, indexing="ij")
    ww = np.outer(wu, wu * (1 - u))
    x = uu * (1 - vv)
    y = vv
    return np.column_stack([x.ravel(), y.ravel()]), ww.ravel()


def triangulate(coords):
    """Split a simple CCW polygon into positively oriented triangles.

    Centroid fan when the polygon is star-shaped with respect to its
    centroid; ear clipping otherwise.  Returns a (T, 3, 2) array.
    """
    coords = np.asarray(coords, dtype=float)
    forward = np.ones((1, len(coords)), dtype=bool)
    ((_, tris),) = triangulate_stack(stack_geometry(coords[None], forward))
    return tris[0]


def star_shaped(geometry):
    """Which cells of a :class:`~vemlab.mesh.GeometryStack` take the
    centroid fan of :func:`triangulate`: those star-shaped with respect to
    their centroid.  A degenerate cell raises ``MeshError`` naming it."""
    coords, c = geometry.vertices, geometry.centroid[:, None, :]
    bad = np.flatnonzero(~(geometry.area > _area_tol(coords)))
    if bad.size:
        raise MeshError(f"{geometry.label(bad[0])}: triangulation failed; "
                        "element geometry is degenerate or self-intersecting")
    nxt = np.roll(coords, -1, axis=1)
    cross = ((coords[..., 0] - c[..., 0]) * (nxt[..., 1] - c[..., 1])
             - (nxt[..., 0] - c[..., 0]) * (coords[..., 1] - c[..., 1]))
    scale = np.abs(coords - c).max(axis=(1, 2)) ** 2
    return np.all(cross > 1e-12 * scale[:, None], axis=1)


def _area_tol(coords):
    return 1e-14 * (coords.max(axis=1) - coords.min(axis=1)).max(axis=1) ** 2


def triangulate_stack(geometry, rep_of=None):
    """Triangulate every cell of a :class:`~vemlab.mesh.GeometryStack`.

    Each cell is split as :func:`triangulate` describes, with the same
    arithmetic.  Returns ``[(rows, tris), ...]``, one entry per triangle
    count (a fan has n triangles, an ear clip n - 2), where ``tris`` has
    shape (len(rows), T, 3, 2).  A degenerate or self-intersecting cell
    raises ``MeshError`` naming it.

    ``rep_of``, when given, holds the row of each cell's representative,
    a cell of the same :func:`star_shaped` flag whose vertex offsets agree
    with its own: only the representatives are ear-clipped, and every
    other cell takes its own vertices at its representative's corners.
    """
    coords = geometry.vertices
    n = coords.shape[1]
    star = star_shaped(geometry)
    if n == 3:
        return [(np.arange(len(coords)), coords[:, None])]
    out = []
    rows = np.flatnonzero(star)
    if rows.size:
        tris = np.empty((rows.size, n, 3, 2))
        tris[:, :, 0] = geometry.centroid[rows, None]
        tris[:, :, 1] = coords[rows]
        tris[:, :, 2] = np.roll(coords[rows], -1, axis=1)
        out.append((rows, tris))
    rows = np.flatnonzero(~star)
    if rows.size:
        clipped, which = np.unique(rows if rep_of is None else rep_of[rows],
                                   return_inverse=True)
        corners = _ear_clip(take(geometry, clipped))
        out.append((rows, coords[rows[:, None, None], corners[which]]))
    return out


def _ear_clip(geometry):
    """Ear clipping of every polygon of a stack at once: the (C, n - 2, 3)
    ring indices of each polygon's triangles' corners.

    Each step clips, in every polygon, the first active corner (in ring
    order) that is convex by more than the area tolerance and holds no
    other active vertex, so each polygon gets the triangles a one-polygon
    ear clip would give.
    """
    coords = geometry.vertices
    m_cells, n = coords.shape[:2]
    rows = np.arange(m_cells)[:, None]
    tol = _area_tol(coords)[:, None]
    active = np.tile(np.arange(n), (m_cells, 1))
    corners = np.empty((m_cells, n - 2, 3), dtype=np.intp)
    for step in range(n - 3):
        m = n - step
        i0, i2 = np.roll(active, 1, axis=1), np.roll(active, -1, axis=1)
        a, b, c, p = (coords[rows, i] for i in (i0, active, i2, active))
        cross = ((b[..., 0] - a[..., 0]) * (c[..., 1] - a[..., 1])
                 - (c[..., 0] - a[..., 0]) * (b[..., 1] - a[..., 1]))
        # corner ii (axis 1) against active vertex jj (axis 2)
        a, b, c = a[:, :, None], b[:, :, None], c[:, :, None]
        p = p[:, None]
        d1 = ((b[..., 0] - a[..., 0]) * (p[..., 1] - a[..., 1])
              - (b[..., 1] - a[..., 1]) * (p[..., 0] - a[..., 0]))
        d2 = ((c[..., 0] - b[..., 0]) * (p[..., 1] - b[..., 1])
              - (c[..., 1] - b[..., 1]) * (p[..., 0] - b[..., 0]))
        d3 = ((a[..., 0] - c[..., 0]) * (p[..., 1] - c[..., 1])
              - (a[..., 1] - c[..., 1]) * (p[..., 0] - c[..., 0]))
        t = -tol[..., None]
        inside = (d1 >= t) & (d2 >= t) & (d3 >= t)
        gap = (np.arange(m)[None, :] - np.arange(m)[:, None]) % m
        inside &= ~np.isin(gap, (0, 1, m - 1))
        ear = (cross > tol) & ~inside.any(axis=2)
        pick = (rows[:, 0], ear.argmax(axis=1))
        if not ear[pick].all():
            bad = np.flatnonzero(~ear[pick])[0]
            raise MeshError(f"{geometry.label(bad)}: triangulation failed; "
                            "polygon may self-intersect")
        corners[:, step] = np.stack([i0[pick], active[pick], i2[pick]], axis=1)
        keep = np.ones((m_cells, m), dtype=bool)
        keep[pick] = False
        active = active[keep].reshape(m_cells, m - 1)
    a, b, c = (coords[rows[:, 0], active[:, j]] for j in range(3))
    last = ((b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
            - (c[:, 0] - a[:, 0]) * (b[:, 1] - a[:, 1]))
    if np.any(last <= 0):
        bad = np.flatnonzero(last <= 0)[0]
        raise MeshError(f"{geometry.label(bad)}: triangulation failed; "
                        "polygon may self-intersect")
    corners[:, n - 3] = active
    return corners


def map_rule(tris, exactness):
    """Collapsed Gauss rule mapped onto stacked triangles (..., T, 3, 2).

    Returns points (..., T * R, 2) and weights (..., T * R), triangle by
    triangle, exact for polynomials of degree ``exactness``.  Each
    coordinate is mapped as one (..., T, R) array.
    """
    ref_pts, ref_w = _duffy_rule(exactness)
    u, v = ref_pts.T
    (ax, ay), (bx, by), (cx, cy) = (
        (tris[..., j, 0, None], tris[..., j, 1, None]) for j in range(3))
    area2 = (bx - ax) * (cy - ay) - (cx - ax) * (by - ay)
    pts = np.stack([ax + u * (bx - ax) + v * (cx - ax),
                    ay + u * (by - ay) + v * (cy - ay)], axis=-1)
    wts = ref_w * area2
    lead = tris.shape[:-3]
    return pts.reshape(lead + (-1, 2)), wts.reshape(lead + (-1,))


def polygon_quadrature(geom, exactness):
    """Positive-weight rule exact for polynomials of the given degree."""
    pts, wts = map_rule(triangulate(geom.vertices), exactness)
    return QuadratureRule(pts, wts)


def gram(values, weights):
    """Symmetrised weighted Gram matrix sum_q weights[q] V[q, a] V[q, b] of
    a value table ``values`` (..., Q, m), stacked over the leading axes."""
    H = np.swapaxes(values, -1, -2) @ (weights[..., None] * values)
    return 0.5 * (H + np.swapaxes(H, -1, -2))
