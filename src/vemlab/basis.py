"""Scaled monomial spaces on polygons and edges, plus quadrature.

Monomials are m_a(x) = ((x - x_E)/h_E)^a in graded order, so local matrix
conditioning is independent of the element size.  Polygon quadrature
triangulates each cell (centroid fan when the cell is star-shaped with
respect to its centroid, ear clipping otherwise) and applies a collapsed
Gauss-Legendre product rule on every triangle; edge quadrature is plain
Gauss-Legendre in scaled arclength.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import kernels
from .mesh import MeshError


def n_poly(degree):
    """Dimension of the polynomial space of total degree <= degree."""
    return 0 if degree < 0 else (degree + 1) * (degree + 2) // 2


@lru_cache(maxsize=None)
def monomial_exponents(degree):
    """Exponent pairs of 2-D monomials up to ``degree``, graded order."""
    out = [(d - j, j) for d in range(degree + 1) for j in range(d + 1)]
    return np.array(out, dtype=np.int64).reshape(-1, 2)


class ScaledMonomialBasis:
    """Monomials ((x-x_E)/h_E)^a, |a| <= degree, on one element."""

    def __init__(self, geom, degree):
        self.geom = geom
        self.degree = int(degree)
        self.exponents = monomial_exponents(self.degree)
        self.dim = self.exponents.shape[0]
        self._index = {(int(a), int(b)): i for i, (a, b) in enumerate(self.exponents)}

    def eval(self, pts):
        """(n, dim) table of monomial values at the points."""
        return kernels.monomial_vandermonde(
            np.atleast_2d(pts), self.geom.centroid, self.geom.diameter, self.exponents)

    def grad(self, pts):
        """Two (n, dim) tables: x- and y-derivatives (chain rule included)."""
        return kernels.monomial_vandermonde_grad(
            np.atleast_2d(pts), self.geom.centroid, self.geom.diameter, self.exponents)

    def derivative_map(self, axis):
        """Matrix sending P_degree coefficients to P_{degree-1} coefficients
        of the axis-derivative."""
        lower = monomial_exponents(self.degree - 1) if self.degree >= 1 \
            else np.empty((0, 2), dtype=np.int64)
        low_index = {(int(a), int(b)): i for i, (a, b) in enumerate(lower)}
        D = np.zeros((lower.shape[0], self.dim))
        h = self.geom.diameter
        for i, (ax, ay) in enumerate(self.exponents):
            if axis == 0 and ax >= 1:
                D[low_index[(int(ax) - 1, int(ay))], i] = ax / h
            elif axis == 1 and ay >= 1:
                D[low_index[(int(ax), int(ay) - 1)], i] = ay / h
        return D

    def laplacian_map(self):
        """Matrix sending P_degree coefficients to P_{degree-2} coefficients
        of the Laplacian."""
        lower = monomial_exponents(self.degree - 2) if self.degree >= 2 \
            else np.empty((0, 2), dtype=np.int64)
        low_index = {(int(a), int(b)): i for i, (a, b) in enumerate(lower)}
        L = np.zeros((lower.shape[0], self.dim))
        h2 = self.geom.diameter ** 2
        for i, (ax, ay) in enumerate(self.exponents):
            if ax >= 2:
                L[low_index[(int(ax) - 2, int(ay))], i] += ax * (ax - 1) / h2
            if ay >= 2:
                L[low_index[(int(ax), int(ay) - 2)], i] += ay * (ay - 1) / h2
        return L


def poly_eval(basis, coeffs, x):
    """Value of sum_a coeffs[a] m_a at point(s) x."""
    vals = basis.eval(x) @ np.asarray(coeffs)
    return vals[0] if np.asarray(x).ndim == 1 else vals


def poly_grad(basis, coeffs, x):
    """Gradient of sum_a coeffs[a] m_a at point(s) x."""
    gx, gy = basis.grad(x)
    c = np.asarray(coeffs)
    out = np.column_stack([gx @ c, gy @ c])
    return out[0] if np.asarray(x).ndim == 1 else out


class EdgeBasis:
    """Powers of the scaled arclength t in [-1, 1] along an edge."""

    def __init__(self, degree):
        self.degree = int(degree)
        self.dim = self.degree + 1

    def eval(self, t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return np.vander(t, self.dim, increasing=True)


@lru_cache(maxsize=None)
def edge_reconstruction(k):
    """Map from edge data to the t-coefficients of the unique trace
    polynomial in P_k(e).

    Data order: value at t=-1, value at t=+1, then the normalized moments
    (1/|e|) int_e q t^j ds for j = 0..k-2.  The system matrix is the
    Vandermonde of those functionals on the t-monomials.
    """
    m = np.arange(k + 1)
    rows = [(-1.0) ** m, np.ones(k + 1)]
    for j in range(k - 1):
        row = np.where((m + j) % 2 == 0, 1.0 / (m + j + 1), 0.0)
        rows.append(row)
    return np.linalg.inv(np.array(rows))


@dataclass(frozen=True)
class QuadratureRule:
    """Points and positive weights; weights sum to the measure."""

    points: np.ndarray
    weights: np.ndarray
    exactness: int


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
    centroid; ear clipping otherwise.
    """
    coords = np.asarray(coords, dtype=float)
    n = len(coords)
    span = (coords.max(0) - coords.min(0)).max()
    x, y = coords[:, 0], coords[:, 1]
    area = 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
    if area <= 1e-14 * span ** 2:
        raise MeshError("triangulation failed; polygon is degenerate or "
                        "self-intersecting")
    if n == 3:
        return coords[None, :, :]
    centroid = _ring_centroid(coords)
    nxt = np.roll(coords, -1, axis=0)
    cross = ((coords[:, 0] - centroid[0]) * (nxt[:, 1] - centroid[1])
             - (nxt[:, 0] - centroid[0]) * (coords[:, 1] - centroid[1]))
    scale = np.abs(coords - centroid).max() ** 2
    if np.all(cross > 1e-12 * scale):
        tris = np.empty((n, 3, 2))
        tris[:, 0] = centroid
        tris[:, 1] = coords
        tris[:, 2] = nxt
        return tris
    return _ear_clip(coords)


def _ring_centroid(coords):
    x, y = coords[:, 0], coords[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    cross = x * yn - xn * y
    area = 0.5 * cross.sum()
    return np.array([np.sum((x + xn) * cross), np.sum((y + yn) * cross)]) / (6 * area)


def _ear_clip(coords):
    active = list(range(len(coords)))
    scale = (coords.max(0) - coords.min(0)).max() ** 2
    tris = []
    while len(active) > 3:
        for ii in range(len(active)):
            i0 = active[ii - 1]
            i1 = active[ii]
            i2 = active[(ii + 1) % len(active)]
            a, b, c = coords[i0], coords[i1], coords[i2]
            cross = (b[0] - a[0]) * (c[1] - a[1]) - (c[0] - a[0]) * (b[1] - a[1])
            if cross <= 1e-14 * scale:
                continue  # reflex or flat corner, not an ear
            if any(_in_triangle(a, b, c, coords[j], 1e-14 * scale)
                   for j in active if j not in (i0, i1, i2)):
                continue
            tris.append((a, b, c))
            del active[ii]
            break
        else:
            raise MeshError("triangulation failed; polygon may self-intersect")
    a, b, c = (coords[j] for j in active)
    if (b[0] - a[0]) * (c[1] - a[1]) - (c[0] - a[0]) * (b[1] - a[1]) <= 0:
        raise MeshError("triangulation failed; polygon may self-intersect")
    tris.append((a, b, c))
    return np.array(tris)


def _in_triangle(a, b, c, p, tol):
    d1 = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
    d2 = (c[0] - b[0]) * (p[1] - b[1]) - (c[1] - b[1]) * (p[0] - b[0])
    d3 = (a[0] - c[0]) * (p[1] - c[1]) - (a[1] - c[1]) * (p[0] - c[0])
    return d1 >= -tol and d2 >= -tol and d3 >= -tol


def polygon_quadrature(geom, exactness):
    """Positive-weight rule exact for polynomials of the given degree."""
    ref_pts, ref_w = _duffy_rule(exactness)
    tris = triangulate(geom.vertices)
    pts = []
    wts = []
    for a, b, c in tris:
        area2 = (b[0] - a[0]) * (c[1] - a[1]) - (c[0] - a[0]) * (b[1] - a[1])
        pts.append(a + np.outer(ref_pts[:, 0], b - a) + np.outer(ref_pts[:, 1], c - a))
        wts.append(ref_w * area2)
    return QuadratureRule(np.vstack(pts), np.concatenate(wts), exactness)


def edge_quadrature(endpoints, exactness):
    """Gauss-Legendre rule on the segment between two points."""
    a, b = np.asarray(endpoints, dtype=float)
    t, w = _gauss(max(1, math.ceil((exactness + 1) / 2)))
    pts = a + np.outer((t + 1) / 2, b - a)
    length = float(np.hypot(*(b - a)))
    return QuadratureRule(pts, w * length / 2, exactness)


def mass_matrix(basis, up_to=None, weight=None, rule=None, values=None):
    """Matrix of int_E weight m_a m_b for |a|, |b| <= up_to.

    Without an explicit rule the exactness is 2*up_to for weight None
    (then the matrix is exact) and 2*up_to + 2 otherwise.  ``values`` may
    hold ``basis.eval(rule.points)`` when the caller already has it.
    """
    deg = basis.degree if up_to is None else int(up_to)
    sub = n_poly(deg)
    if rule is None:
        rule = polygon_quadrature(basis.geom, 2 * deg + (0 if weight is None else 2))
    if values is None:
        values = basis.eval(rule.points)
    V = values[:, :sub]
    w = rule.weights if weight is None else rule.weights * _sample(weight, rule.points)
    H = V.T @ (w[:, None] * V)
    return 0.5 * (H + H.T)


def _sample(fn, pts):
    vals = fn(pts[:, 0], pts[:, 1])
    return np.broadcast_to(np.asarray(vals, dtype=float), (pts.shape[0],))
