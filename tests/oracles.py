"""Independent reference computations used by the tests.

Everything here deliberately avoids the library's own quadrature/projector
code paths: Green's theorem plus 1-D Gauss for polygon monomial integrals,
recursive triangle subdivision for generic integrands, finite differences
for derivatives, and direct geometric predicates.  The ``*_per_cell`` and
``*_two_tables`` functions keep earlier, slower constructions that the
library's faster ones are tested against.
"""

import math

import numpy as np


def green_monomial_integral(coords, a, b):
    """Exact integral of x^a y^b over a polygon via Green's theorem.

    int_E x^a y^b dA = 1/(a+1) * sum_edges int_e x^(a+1) y^b n_x ds, and the
    edge integrals are 1-D polynomials integrated exactly by Gauss-Legendre.
    """
    coords = np.asarray(coords, dtype=float)
    deg = a + 1 + b
    t, w = np.polynomial.legendre.leggauss(deg // 2 + 1)
    total = 0.0
    for p, q in zip(coords, np.roll(coords, -1, axis=0)):
        mid, half = (p + q) / 2.0, (q - p) / 2.0
        x = mid[0] + t * half[0]
        y = mid[1] + t * half[1]
        # outward normal times ds = (dy, -dx); only the x-component is used
        total += np.sum(w * x ** (a + 1) * y ** b) * half[1]
    return total / (a + 1)


def subdivision_integrate(f, coords, tol=1e-13, max_depth=14):
    """Adaptive integration of ``f(x, y)`` over a polygon.

    The polygon is fan-triangulated from its first vertex (signed triangles,
    so non-convexity is harmless) and each triangle is integrated by
    comparing a mid-order rule against its four-way subdivision, recursing
    where they disagree.
    """
    coords = np.asarray(coords, dtype=float)
    total = 0.0
    for i in range(1, len(coords) - 1):
        total += _tri_adaptive(f, coords[0], coords[i], coords[i + 1], tol, max_depth)
    return total


def _tri_rule(f, a, b, c):
    # degree-5 seven-point symmetric rule on the triangle (signed area)
    area = 0.5 * ((b[0] - a[0]) * (c[1] - a[1]) - (c[0] - a[0]) * (b[1] - a[1]))
    w1, w2 = 0.1323941527885062, 0.1259391805448271
    g1, g2 = 0.0597158717897698, 0.7974269853530873
    pts = [
        (1 / 3, 1 / 3, 9 / 40),
        (g1, (1 - g1) / 2, w1), ((1 - g1) / 2, g1, w1), ((1 - g1) / 2, (1 - g1) / 2, w1),
        (g2, (1 - g2) / 2, w2), ((1 - g2) / 2, g2, w2), ((1 - g2) / 2, (1 - g2) / 2, w2),
    ]
    s = 0.0
    for l1, l2, w in pts:
        x = a[0] + l1 * (b[0] - a[0]) + l2 * (c[0] - a[0])
        y = a[1] + l1 * (b[1] - a[1]) + l2 * (c[1] - a[1])
        s += w * f(x, y)
    return area * s  # weights sum to one, so the rule is area * weighted mean


def _tri_adaptive(f, a, b, c, tol, depth):
    coarse = _tri_rule(f, a, b, c)
    ab, bc, ca = (a + b) / 2, (b + c) / 2, (c + a) / 2
    fine = (_tri_rule(f, a, ab, ca) + _tri_rule(f, ab, b, bc)
            + _tri_rule(f, ca, bc, c) + _tri_rule(f, ab, bc, ca))
    if depth <= 0 or abs(fine - coarse) <= tol * max(1.0, abs(fine)):
        return fine
    return (_tri_adaptive(f, a, ab, ca, tol / 2, depth - 1)
            + _tri_adaptive(f, ab, b, bc, tol / 2, depth - 1)
            + _tri_adaptive(f, ca, bc, c, tol / 2, depth - 1)
            + _tri_adaptive(f, ab, bc, ca, tol / 2, depth - 1))


def fd_gradient(f, x, y, step=1e-6):
    return np.array([
        (f(x + step, y) - f(x - step, y)) / (2 * step),
        (f(x, y + step) - f(x, y - step)) / (2 * step),
    ])


def reflex_vertices(coords):
    """Indices of reflex (interior angle > pi) vertices of a CCW polygon."""
    coords = np.asarray(coords, dtype=float)
    prev = coords - np.roll(coords, 1, axis=0)
    nxt = np.roll(coords, -1, axis=0) - coords
    cross = prev[:, 0] * nxt[:, 1] - prev[:, 1] * nxt[:, 0]
    return np.flatnonzero(cross < 0)


def point_in_polygon(coords, x, y, tol=1e-12):
    """Winding-free crossing test, counting boundary points as inside."""
    coords = np.asarray(coords, dtype=float)
    inside = False
    n = len(coords)
    for i in range(n):
        x1, y1 = coords[i]
        x2, y2 = coords[(i + 1) % n]
        # on-segment check
        cross = (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1)
        if abs(cross) <= tol and min(x1, x2) - tol <= x <= max(x1, x2) + tol \
                and min(y1, y2) - tol <= y <= max(y1, y2) + tol:
            return True
        if (y1 > y) != (y2 > y):
            xi = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            if x < xi:
                inside = not inside
    return inside


def sees_all_of_polygon(coords, px, py, samples=12):
    """Visibility oracle: every segment from (px,py) to a dense set of
    boundary samples must stay inside the polygon."""
    coords = np.asarray(coords, dtype=float)
    for p, q in zip(coords, np.roll(coords, -1, axis=0)):
        for t in np.linspace(0.0, 1.0, samples):
            bx, by = p + t * (q - p)
            for s in np.linspace(0.05, 0.95, 7):
                mx, my = px + s * (bx - px), py + s * (by - py)
                if not point_in_polygon(coords, mx, my, tol=1e-9):
                    return False
    return True


def cvt_energy(points, rings, coords):
    """CVT quantization energy sum_i int_{V_i} |x - s_i|^2 dx.

    Uses a fan around each seed with the 3-midpoint rule (exact for
    quadratics), entirely independent of the library quadrature.
    """
    total = 0.0
    for i, ring in enumerate(rings):
        poly = coords[ring]
        s = points[i]
        for a, b in zip(poly, np.roll(poly, -1, axis=0)):
            area = 0.5 * ((a[0] - s[0]) * (b[1] - s[1]) - (b[0] - s[0]) * (a[1] - s[1]))
            for m in ((s + a) / 2, (a + b) / 2, (b + s) / 2):
                total += area / 3 * ((m[0] - s[0]) ** 2 + (m[1] - s[1]) ** 2)
    return total


def q1_stiffness():
    """Exact Laplace stiffness of bilinear shape functions on the unit
    square, vertices ordered counterclockwise from the origin."""
    return np.array([
        [2 / 3, -1 / 6, -1 / 3, -1 / 6],
        [-1 / 6, 2 / 3, -1 / 6, -1 / 3],
        [-1 / 3, -1 / 6, 2 / 3, -1 / 6],
        [-1 / 6, -1 / 3, -1 / 6, 2 / 3],
    ])


def random_polygon_bank(seed=42):
    """A deterministic bank of cells drawn from all four mesh families."""
    from vemlab.mesh import element_geometry
    from vemlab.meshgen import GeneratorSpec, concave_mesh, generate, square_mesh

    rng = np.random.default_rng(seed)
    polys = []
    for mesh in (
        square_mesh(5),
        concave_mesh(4),
        generate(GeneratorSpec("lloyd0", 60, seed=11)),
        generate(GeneratorSpec("lloyd100", 60, seed=12)),
    ):
        take = rng.choice(mesh.num_cells, size=50, replace=mesh.num_cells < 50)
        for ci in take:
            polys.append(element_geometry(mesh, int(ci)))
    return polys


def clipped_cells_per_cell(pts):
    """Square-clipped Voronoi rings, one seed at a time.

    The seeds are mirrored across all four sides and each region is sorted
    by its own ``argsort`` of angles: the per-cell construction the flat
    ring extraction of ``vemlab.meshgen`` replaced.
    """
    from scipy.spatial import Voronoi

    n = len(pts)
    if n == 1:
        return [np.array([0, 1, 2, 3])], np.array([[0.0, 0.0], [1.0, 0.0],
                                                   [1.0, 1.0], [0.0, 1.0]])
    mirrored = np.vstack([
        pts,
        pts * (-1.0, 1.0),
        pts * (-1.0, 1.0) + (2.0, 0.0),
        pts * (1.0, -1.0),
        pts * (1.0, -1.0) + (0.0, 2.0),
    ])
    vor = Voronoi(mirrored)
    coords = vor.vertices.copy()
    coords[np.abs(coords) < 1e-12] = 0.0
    coords[np.abs(coords - 1.0) < 1e-12] = 1.0
    rings = []
    for i in range(n):
        region = vor.regions[vor.point_region[i]]
        assert -1 not in region and len(region) >= 3
        ring = np.asarray(region, dtype=int)
        ang = np.arctan2(coords[ring, 1] - pts[i, 1], coords[ring, 0] - pts[i, 0])
        rings.append(ring[np.argsort(ang)])
    return rings, coords


def relax_points_per_cell(points, iterations):
    """Lloyd iterations with full mirroring and one shoelace call per cell."""
    pts = np.asarray(points, dtype=float).copy()
    movements = np.empty(iterations)
    for it in range(iterations):
        rings, coords = clipped_cells_per_cell(pts)
        new = np.empty_like(pts)
        for i, ring in enumerate(rings):
            x, y = coords[ring, 0], coords[ring, 1]
            xn, yn = np.roll(x, -1), np.roll(y, -1)
            cross = x * yn - xn * y
            area = 0.5 * np.sum(cross)
            new[i] = (np.sum((x + xn) * cross) / (6.0 * area),
                      np.sum((y + yn) * cross) / (6.0 * area))
        movements[it] = np.max(np.hypot(new[:, 0] - pts[:, 0], new[:, 1] - pts[:, 1]))
        pts = new
    return pts, movements


def assemble_per_cell(mesh, k, coeffs, dofmap, mode="standard", quad_boost=2):
    """Reduced matrix, coupling block and load of ``vemlab.assembly.assemble``
    built from one ``np.repeat``/``np.tile`` index array per cell: the
    scatter the preallocated buffers replaced."""
    import scipy.sparse as sp

    from vemlab.local import dof_layout, local_system
    from vemlab.mesh import element_geometry

    n = dofmap.n_dofs
    rows, cols, vals = [], [], []
    rhs_full = np.zeros(n)
    for c in range(mesh.num_cells):
        geom = element_geometry(mesh, c)
        loc = local_system(geom, k, dof_layout(geom, k), coeffs, mode=mode,
                           quad_boost=quad_boost)
        g = dofmap.cell_dofs[c]
        rows.append(np.repeat(g, g.size))
        cols.append(np.tile(g, g.size))
        vals.append(loc.matrix.ravel())
        np.add.at(rhs_full, g, loc.f_loc)
    A = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n)).tocsr()
    ii, bb = dofmap.interior_dofs, dofmap.boundary_dofs
    A_rows = A[ii]
    return A_rows[:, ii].tocsr(), A_rows[:, bb].tocsr(), rhs_full[ii]


def error_norms_two_tables(mesh, k, projection, p_ex, grad_p_ex):
    """Absolute (L2, H1) errors of ``vemlab.postprocess.error_norms`` in its
    default mode, evaluating a separate degree-(k-1) monomial table for the
    projected gradient instead of slicing the degree-k one."""
    from vemlab.basis import ScaledMonomialBasis, polygon_quadrature
    from vemlab.mesh import element_geometry

    num_l2 = num_h1 = 0.0
    for c in range(mesh.num_cells):
        geom = element_geometry(mesh, c)
        rule = polygon_quadrature(geom, 2 * k + 4)
        x, y = rule.points[:, 0], rule.points[:, 1]
        w = rule.weights
        p_vals = np.asarray(p_ex(x, y), dtype=float)
        g_vals = np.asarray(grad_p_ex(x, y), dtype=float)
        ph = ScaledMonomialBasis(geom, k).eval(rule.points) @ projection.coeffs[c]
        Vm1 = ScaledMonomialBasis(geom, k - 1).eval(rule.points)
        gh = Vm1 @ projection.grad_coeffs[c]
        num_l2 += w @ (ph - p_vals) ** 2
        num_h1 += w @ np.sum((gh - g_vals) ** 2, axis=1)
    return np.sqrt(num_l2), np.sqrt(num_h1)
