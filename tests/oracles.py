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


def mesh_from_rings_union_find(rings, coords):
    """``vemlab.meshgen._mesh_from_rings`` with a dict union-find over the
    close pairs and one ring at a time: the weld the array passes
    replaced."""
    from scipy.spatial import cKDTree

    from vemlab.mesh import MeshError, make_mesh
    from vemlab.meshgen import _WELD_TOL

    used = np.unique(np.concatenate(rings))
    parent = {int(v): int(v) for v in used}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    tree = cKDTree(coords[used])
    for a, b in sorted(tree.query_pairs(_WELD_TOL)):
        ra, rb = find(int(used[a])), find(int(used[b]))
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    reps = sorted({find(int(v)) for v in used})
    new_id = {r: i for i, r in enumerate(reps)}
    vertices = coords[reps]
    cells = []
    for i, ring in enumerate(rings):
        mapped = [new_id[find(int(v))] for v in ring]
        ring_out = [v for j, v in enumerate(mapped) if v != mapped[j - 1]]
        if len(ring_out) < 3:
            raise MeshError(f"Voronoi cell {i} collapsed during welding")
        cells.append(ring_out)
    return make_mesh(vertices, cells)


def edge_table_dicts(rings):
    """Edge table of ``vemlab.mesh.make_mesh`` from Python dicts, one edge at
    a time in traversal order: ``(edge_vertices, edge_cells, cell_edges)``.
    The array passes replaced this construction."""
    from vemlab.mesh import MeshError

    edge_ids = {}
    edge_verts = []
    edge_cells = []
    directed_seen = {}
    cell_edges = []
    for ci, ring in enumerate(rings):
        ids = np.empty(ring.size, dtype=int)
        for j in range(ring.size):
            a, b = int(ring[j]), int(ring[(j + 1) % ring.size])
            if (a, b) in directed_seen:
                raise MeshError(
                    f"edge ({a}, {b}) traversed twice in the same direction "
                    f"by cells {directed_seen[(a, b)]} and {ci}")
            directed_seen[(a, b)] = ci
            key = (a, b) if a < b else (b, a)
            e = edge_ids.get(key)
            if e is None:
                e = len(edge_verts)
                edge_ids[key] = e
                edge_verts.append(key)
                edge_cells.append([ci])
            else:
                edge_cells[e].append(ci)
                if len(edge_cells[e]) > 2:
                    raise MeshError(
                        f"non-manifold edge {key}: shared by cells "
                        f"{edge_cells[e]}")
            ids[j] = e
        cell_edges.append(ids)
    return (np.array(edge_verts, dtype=int).reshape(-1, 2), edge_cells,
            cell_edges)


def square_mesh_per_cell(n):
    """Vertex table and rings of ``vemlab.meshgen.square_mesh(n)``, one
    cell at a time."""
    ii, jj = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
    vertices = np.column_stack([ii.ravel(order="F") / n, jj.ravel(order="F") / n])

    def vid(i, j):
        return j * (n + 1) + i

    cells = []
    for j in range(n):
        for i in range(n):
            cells.append([vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)])
    return vertices, cells


def concave_mesh_registry(n):
    """Vertex table and rings of ``vemlab.meshgen.concave_mesh(n)``, with a
    dict registry numbering the lattice points one vertex at a time."""
    from vemlab.meshgen import _ZIGZAG

    registry = {}
    vertices = []

    def vid(gx, gy):
        key = (gx, gy)
        v = registry.get(key)
        if v is None:
            v = len(vertices)
            registry[key] = v
            vertices.append((gx / (20.0 * n), gy / (20.0 * n)))
        return v

    zig = _ZIGZAG
    lower = [(0, 0), (20, 0), (20, 10), zig[3], zig[2], zig[1], zig[0], (0, 10)]
    upper = [(0, 10), zig[0], zig[1], zig[2], zig[3], (20, 10), (20, 20), (0, 20)]
    cells = []
    for j in range(n):
        for i in range(n):
            ox, oy = 20 * i, 20 * j
            for ring in (lower, upper):
                cells.append([vid(ox + lx, oy + ly) for lx, ly in ring])
    return np.array(vertices), cells


def ring_centroids(flat, starts, coords):
    """Area centroids of flat Voronoi rings: one shoelace pass, summed per ring.

    The ring-based centroids that Lloyd relaxation in ``vemlab.meshgen``
    used before it summed centroids over Delaunay triangles.
    """
    nxt = np.arange(1, len(flat) + 1)
    nxt[np.append(starts[1:], len(flat)) - 1] = starts  # wrap to the ring start
    x, y = coords[flat, 0], coords[flat, 1]
    xn, yn = x[nxt], y[nxt]
    cross = x * yn - xn * y
    six_area = 3.0 * np.add.reduceat(cross, starts)
    return np.column_stack([np.add.reduceat((x + xn) * cross, starts),
                            np.add.reduceat((y + yn) * cross, starts)]) / six_area[:, None]


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


def relax_points_qhull(points, iterations):
    """Lloyd iterations that rebuild the triangulation with qhull every time.

    The loop ``vemlab.meshgen.relax_points`` ran before it carried its
    banded triangulation between iterations and repaired it by edge flips:
    full mirroring first, then each iteration mirrors the band of twice the
    last reach, certifies the banded cells, and redoes a failed iteration
    with full mirroring.
    """
    from vemlab.mesh import MeshError
    from vemlab.meshgen import _delaunay_centroids

    pts = np.asarray(points, dtype=float).copy()
    movements = np.empty(iterations)
    band = None
    for it in range(iterations):
        try:
            new, reach, centres = _delaunay_centroids(pts, band)
        except MeshError:
            if band is None:
                raise
            centres = None
        if centres is None or not np.all((centres >= 0.0) & (centres <= 1.0)):
            new, reach, _ = _delaunay_centroids(pts)
        movements[it] = np.max(np.hypot(new[:, 0] - pts[:, 0], new[:, 1] - pts[:, 1]))
        band = 2.0 * reach
        pts = new
    return pts, movements


def opposite_half_edges(simplices):
    """Twin of every half-edge ``3 t + i`` (from corner i to corner i + 1 of
    triangle t), or -1 on the hull, matched through a dict of vertex pairs."""
    start = {}
    for t, tri in enumerate(simplices.tolist()):
        for i in range(3):
            start[tri[i], tri[(i + 1) % 3]] = 3 * t + i
    return np.array([start.get((b, a), -1) for (a, b) in start], dtype=np.intp)


def circumcircle_depth(points, simplices):
    """Largest ``(R - |p - o|) / R`` over every point p and triangle, where o
    and R are the triangle's circumcentre and radius: how far, relative to
    the radius, any point lies inside a circumcircle (<= 0 when empty)."""
    depth = -np.inf
    for tri in simplices:
        a, b, c = points[tri]
        # relative to a, so the circumcentre keeps the triangle's precision
        (bx, by), (cx, cy) = b - a, c - a
        d = 2.0 * (bx * cy - by * cx)
        bb, cc = bx * bx + by * by, cx * cx + cy * cy
        o = a + np.array([cy * bb - by * cc, bx * cc - cx * bb]) / d
        radius = math.hypot(*(a - o))
        dist = np.hypot(points[:, 0] - o[0], points[:, 1] - o[1])
        depth = max(depth, ((radius - dist) / radius).max())
    return depth


def in_circle_axis_sums(points, a, b, c, d):
    """``vemlab.meshgen._in_circle`` with fancy-index gathers and sums over
    the trailing (x, y) axis: the arithmetic the row ``take`` and the
    written-out sums replaced, operation for operation, so the two must
    agree bit for bit."""
    from vemlab import meshgen

    pd = points[d]
    ad, bd, cd = points[a] - pd, points[b] - pd, points[c] - pd
    lift = [(v * v).sum(axis=1) for v in (ad, bd, cd)]
    terms = [(v[:, 0] * w[:, 1], w[:, 0] * v[:, 1])
             for v, w in ((bd, cd), (cd, ad), (ad, bd))]
    det = sum(l * (p - q) for l, (p, q) in zip(lift, terms))
    bound = sum(l * (np.abs(p) + np.abs(q)) for l, (p, q) in zip(lift, terms))
    return det > meshgen._INCIRCLE_TIE * bound


def seed_circumcentres_axis_sums(pts, points, simplices):
    """``vemlab.meshgen._seed_circumcentres`` on (T, 3, 2) corner arrays,
    with fancy-index gathers and axis sums; returns the corners as that
    array instead of one (T, 3) array per coordinate."""
    from vemlab.mesh import MeshError
    from vemlab.meshgen import _snapped

    n = len(pts)
    simplices = simplices[(simplices < n).any(axis=1)]
    if ((simplices >= len(points) - 4).any()
            or np.bincount(simplices.ravel(), minlength=n)[:n].min() < 3):
        raise MeshError("unbounded Voronoi region; seed configuration degenerate")
    p = points[simplices]
    b, c = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    cross = b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0]
    bb, cc = (b * b).sum(axis=1), (c * c).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        centres = p[:, 0] + (np.column_stack([c[:, 1] * bb - b[:, 1] * cc,
                                              b[:, 0] * cc - c[:, 0] * bb])
                             / (2.0 * cross)[:, None])
    if not np.isfinite(centres).all():
        raise MeshError("unbounded Voronoi region; seed configuration degenerate")
    return simplices, p, _snapped(centres)


def cell_centroids_axis_sums(pts, points, simplices):
    """``vemlab.meshgen._cell_centroids`` on (T, 3, 2) corner arrays, with
    fancy-index corner shifts and axis sums: the same operations in the
    same order, so the two must agree bit for bit."""
    n = len(pts)
    simplices, p, centres = seed_circumcentres_axis_sums(pts, points, simplices)
    o = centres[:, None, :] - p
    m_next = 0.5 * (p[:, [1, 2, 0]] - p)
    m_prev = 0.5 * (p[:, [2, 0, 1]] - p)
    twice_1 = m_next[..., 0] * o[..., 1] - m_next[..., 1] * o[..., 0]
    twice_2 = o[..., 0] * m_prev[..., 1] - o[..., 1] * m_prev[..., 0]
    moments = (twice_1[..., None] * (m_next + o)
               + twice_2[..., None] * (o + m_prev)).reshape(-1, 2)
    owner, bins = simplices.ravel(), len(points)
    area3 = 3.0 * np.bincount(owner, (twice_1 + twice_2).ravel(), minlength=bins)[:n]
    centroids = pts + np.column_stack(
        [np.bincount(owner, moments[:, 0], minlength=bins)[:n],
         np.bincount(owner, moments[:, 1], minlength=bins)[:n]]) / area3[:, None]
    reach = np.sqrt((o * o).sum(axis=-1)[simplices < n].max())
    return centroids, reach, centres


def _local_systems(mesh, k, coeffs, mode):
    """``{cell: (local matrix, load)}`` of the element kernel, the matrix
    summed as ``vemlab.assembly.assemble`` sums it."""
    from vemlab.local import mesh_elements

    local = {}
    for out, _ in mesh_elements(mesh, k, coeffs, mode):
        forms = out.forms
        for i, c in enumerate(out.geometry.cells):
            local[c] = forms.Ah[i] + forms.Bh[i] + forms.Ch[i], forms.f_loc[i]
    return local


def assemble_per_cell(mesh, k, coeffs, dofmap, mode="standard", sliced=False):
    """Reduced matrix, coupling block and load of ``vemlab.assembly.assemble``
    built one cell at a time: each cell's internal moments condensed out
    by a one-cell solve, and the Schur complement scattered through one
    ``np.repeat``/``np.tile`` index array per cell, the scatter the
    preallocated buffers replaced.  Each cell's local matrix and load are
    the element kernel's.  The COO entries are converted to CSC in the
    interior-first numbering, as ``assemble`` converts them, so SciPy sums
    duplicate entries in the same order; with ``sliced=True`` they are
    converted to CSR in the global numbering and sliced to the interior
    rows and the interior or boundary columns instead, the construction
    ``assemble`` used before."""
    import scipy.sparse as sp

    from vemlab.assembly import interior_first

    local = _local_systems(mesh, k, coeffs, mode)
    n = dofmap.n_skeleton_dofs
    number = np.arange(n) if sliced else interior_first(dofmap)
    rows, cols, vals = [], [], []
    rhs_full = np.zeros(n)
    for c in range(mesh.num_cells):
        matrix, f_loc = local[c]
        g = dofmap.cell_dofs[c]
        ns = np.count_nonzero(g < n)
        g = g[:ns]
        Z = np.linalg.solve(matrix[ns:, ns:], np.concatenate(
            [matrix[ns:, :ns], f_loc[ns:, None]], axis=1))
        AZ = matrix[:ns, ns:] @ Z
        matrix = matrix[:ns, :ns] - AZ[:, :ns]
        f_loc = f_loc[:ns] - AZ[:, ns]
        rows.append(np.repeat(number[g], g.size))
        cols.append(np.tile(number[g], g.size))
        vals.append(matrix.ravel())
        np.add.at(rhs_full, g, f_loc)
    A = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n))
    ii, bb = dofmap.interior_dofs, dofmap.boundary_dofs
    if sliced:
        A_rows = A.tocsr()[ii]
        return A_rows[:, ii].tocsr(), A_rows[:, bb].tocsr(), rhs_full[ii]
    A = A.tocsc()
    return A[:ii.size, :ii.size], A[:ii.size, ii.size:].tocsr(), rhs_full[ii]


def full_system_per_cell(mesh, k, coeffs, dofmap, mode="standard"):
    """Uncondensed global matrix (CSR, every DoF, internal moments
    included) and load of the element kernel's local systems, each cell's
    whole local matrix scattered one cell at a time: the system
    ``vemlab.assembly.assemble`` condenses."""
    import scipy.sparse as sp

    local = _local_systems(mesh, k, coeffs, mode)
    n = dofmap.n_dofs
    rows, cols, vals = [], [], []
    rhs = np.zeros(n)
    for c in range(mesh.num_cells):
        matrix, f_loc = local[c]
        g = dofmap.cell_dofs[c]
        rows.append(np.repeat(g, g.size))
        cols.append(np.tile(g, g.size))
        vals.append(matrix.ravel())
        np.add.at(rhs, g, f_loc)
    A = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n))
    return A.tocsr(), rhs


def build_dofmap_per_cell(mesh, k):
    """``(cell_dofs, boundary_dofs, interior_dofs)`` of
    ``vemlab.assembly.build_dofmap`` numbered one cell at a time, with the
    boundary edges found from each edge's list of cells: the construction
    the array passes replaced."""
    from vemlab.basis import n_poly

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
    for e, cs in enumerate(edge_table_dicts(mesh.cells)[1]):
        if len(cs) == 1:
            fixed.extend(nv + e * (k - 1) + j for j in range(k - 1))
    boundary = np.array(sorted(fixed), dtype=np.intp)
    # the internal moments are condensed out: interior means vertex and
    # edge DoFs off the boundary
    return cell_dofs, boundary, np.setdiff1d(np.arange(nv + n_edge), boundary)


def bank_per_cell(bank):
    """Per-cell view of an ``ElementBank``: three lists indexed by cell, of
    each cell's geometry row, post-solve operator (its shape class's)
    and (T, 3, 2) triangles, as the bank kept them before it held the
    kernel's chunks."""
    from vemlab.mesh import take

    geoms, ops, tris = ([None] * bank.n_cells for _ in range(3))
    for geometry, triangles, operators, classes in bank.chunks:
        for i, c in enumerate(geometry.cells):
            geoms[c] = take(geometry, i)
            ops[c] = operators[classes[i]]
            tris[c] = triangles[i]
    return geoms, ops, tris


def entry_representatives(entries):
    """The cell that represents each row's shape class, for every
    ``ElementBank`` entry ``(geometry, triangles, operators, classes)`` of
    ``entries`` in turn (the cell itself when it has a class of its own):
    the representatives of a group of classes are the leading
    ``len(operators)`` cells of the first entry that carries its operators,
    in class order.  Yields one array per entry."""
    seen = None
    for geometry, _, operators, classes in entries:
        if operators is not seen:
            seen, heads = operators, geometry.cells[:len(operators)]
        yield heads[classes]


def bank_representatives(bank):
    """The cell that represents each cell's shape class in an
    ``ElementBank`` (the cell itself when it has a class of its own), as a
    list indexed by cell."""
    reps = [None] * bank.n_cells
    for (geometry, *_), chunk_reps in zip(
            bank.chunks, entry_representatives(bank.chunks)):
        for c, rep in zip(geometry.cells, chunk_reps):
            reps[c] = rep
    return reps


def monomial_values(geom, degree, points):
    """(n, n_poly(degree)) table of the scaled monomials of the one cell
    ``geom`` at ``points`` (n, 2), or one row at a point (2,): the
    ``vemlab.kernels.monomial_vandermonde`` call of
    ``vemlab.postprocess.SolutionProjection.cell_value``."""
    from vemlab import kernels
    from vemlab.basis import monomial_exponents

    return kernels.monomial_vandermonde(
        np.atleast_2d(points), geom.centroid, geom.diameter,
        monomial_exponents(degree))


def error_norms_two_tables(mesh, k, projection, p_ex, grad_p_ex):
    """Absolute (L2, H1) errors of ``vemlab.postprocess.error_norms`` in its
    default mode, evaluating a separate degree-(k-1) monomial table for the
    projected gradient instead of slicing the degree-k one."""
    from vemlab.basis import polygon_quadrature
    from vemlab.mesh import element_geometry

    num_l2 = num_h1 = 0.0
    for c in range(mesh.num_cells):
        geom = element_geometry(mesh, c)
        rule = polygon_quadrature(geom, 2 * k + 4)
        x, y = rule.points[:, 0], rule.points[:, 1]
        w = rule.weights
        p_vals = np.asarray(p_ex(x, y), dtype=float)
        g_vals = np.asarray(grad_p_ex(x, y), dtype=float)
        ph = monomial_values(geom, k, rule.points) @ projection.coeffs[c]
        Vm1 = monomial_values(geom, k - 1, rule.points)
        gh = Vm1 @ projection.grad_coeffs[c]
        num_l2 += w @ (ph - p_vals) ** 2
        num_h1 += w @ np.sum((gh - g_vals) ** 2, axis=1)
    return np.sqrt(num_l2), np.sqrt(num_h1)


def error_sums_per_cell(parts, relative=True):
    """(L2, H1) errors of ``vemlab.postprocess.error_norms`` from its
    (4, cells) table of squared cell errors and norms, added one cell at a
    time in Python: the accumulation its running sums replaced."""
    num_l2 = num_h1 = den_l2 = den_h1 = 0.0
    for a, b, c, d in parts.T.tolist():
        num_l2 += a
        num_h1 += b
        den_l2 += c
        den_h1 += d
    err_l2, err_h1 = np.sqrt(num_l2), np.sqrt(num_h1)
    if not relative:
        return err_l2, err_h1
    return (err_l2 / max(np.sqrt(den_l2), 1e-300),
            err_h1 / max(np.sqrt(den_h1), 1e-300))


def triangulate_per_cell(coords):
    """Centroid fan or ear clipping of one polygon, one ear at a time: the
    construction ``vemlab.basis.triangulate_stack`` vectorised across
    stacks of polygons."""
    from vemlab.mesh import MeshError

    coords = np.asarray(coords, dtype=float)
    n = len(coords)
    span = (coords.max(0) - coords.min(0)).max()
    area, centroid = _area_centroid_per_cell(coords)
    if area <= 1e-14 * span ** 2:
        raise MeshError("triangulation failed; polygon is degenerate")
    if n == 3:
        return coords[None, :, :]
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
    return _ear_clip_per_cell(coords)


def shape_classes_per_part(geometry, tris):
    """Shape classes of one triangle-count part of a stack, keyed on its
    triangles after triangulation by ``np.unique(axis=0)`` over the whole
    key: the per-part construction that ``vemlab.local.shape_classes``
    replaced by one hashed key per vertex-count stack, before
    triangulation.  Returns ``(reps, classes)``: the rows of the
    representatives, ascending, and the class of every row."""
    from vemlab.local import _CLASS_ULPS, _KEY_BITS

    n, nv = geometry.vertices.shape[:2]
    h = geometry.diameter
    corners = tris[:, :, 1:] if tris.shape[1] == nv else tris
    offsets = (np.concatenate([geometry.vertices, corners.reshape(n, -1, 2)],
                              axis=1) - geometry.vertices[:, :1])
    scale = 2.0 ** _KEY_BITS
    key = np.concatenate([
        np.rint(offsets[:, :nv] / h[:, None, None] * scale).reshape(n, -1),
        geometry.edge_forward, np.rint(h / h.max() * scale)[:, None]],
        axis=1).astype(np.int64)
    _, first, which = np.unique(key, axis=0, return_index=True,
                                return_inverse=True)
    rep = first[which.reshape(-1)]
    tol = _CLASS_ULPS * np.finfo(float).eps * np.abs(geometry.vertices).max()
    close = ((np.abs(offsets - offsets[rep]).max(axis=(1, 2)) <= tol)
             & (np.abs(h - h[rep]) <= tol))
    return np.unique(np.where(close, rep, np.arange(n)), return_inverse=True)


def _area_centroid_per_cell(coords):
    """Area and centroid of one polygon by the shoelace sums over its
    vertex offsets from its first vertex."""
    x, y = (coords - coords[0]).T
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    cross = x * yn - xn * y
    area = 0.5 * np.sum(cross)
    return area, coords[0] + np.array([np.sum((x + xn) * cross) / (6.0 * area),
                                       np.sum((y + yn) * cross) / (6.0 * area)])


def _ear_clip_per_cell(coords):
    from vemlab.mesh import MeshError

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


def locate_cell_per_cell(mesh, point):
    """``vemlab.postprocess.locate_cell`` without its bounding-box
    prefilter: every cell is tested, in index order."""
    from vemlab.postprocess import _contains

    p = np.asarray(point, dtype=float)
    span = np.ptp(mesh.vertices, axis=0).max()
    for c in range(mesh.num_cells):
        if _contains(mesh.vertices[mesh.cells[c]], p, 1e-12 * span):
            return c
    raise ValueError(f"point {tuple(p)} lies outside the mesh")


def element_geometry_per_cell(mesh, cell):
    """``vemlab.mesh.element_geometry`` from one cell's ring, with the
    one-polygon sums the stacked geometry replaced."""
    from vemlab.mesh import GeometryStack

    ring = mesh.cells[cell]
    coords = mesh.vertices[ring]
    area, centroid = _area_centroid_per_cell(coords)
    diff = coords[:, None, :] - coords[None, :, :]
    diameter = np.sqrt((diff ** 2).sum(-1).max())
    tang = np.roll(coords, -1, axis=0) - coords
    lengths = np.hypot(tang[:, 0], tang[:, 1])
    normals = np.column_stack([tang[:, 1], -tang[:, 0]]) / lengths[:, None]
    return GeometryStack(None, coords, area, centroid, diameter, lengths,
                         normals, ring < np.roll(ring, -1))


def _monomials_per_cell(geom, degree, pts):
    from vemlab.basis import monomial_exponents

    exps = monomial_exponents(degree)
    xi = (pts[:, 0] - geom.centroid[0]) / geom.diameter
    eta = (pts[:, 1] - geom.centroid[1]) / geom.diameter
    xp = np.ones((len(pts), degree + 1))
    yp = np.ones((len(pts), degree + 1))
    for j in range(1, degree + 1):
        xp[:, j] = xp[:, j - 1] * xi
        yp[:, j] = yp[:, j - 1] * eta
    ax, ay = exps[:, 0], exps[:, 1]
    values = xp[:, ax] * yp[:, ay]
    gx = ax * xp[:, np.maximum(ax - 1, 0)] * yp[:, ay] / geom.diameter
    gy = ay * xp[:, ax] * yp[:, np.maximum(ay - 1, 0)] / geom.diameter
    return values, gx, gy


def _derivative_map_per_cell(geom, degree, axis):
    from vemlab.basis import monomial_exponents, n_poly

    low = {tuple(int(v) for v in e): i
           for i, e in enumerate(monomial_exponents(degree - 1))} \
        if degree >= 1 else {}
    D = np.zeros((n_poly(degree - 1), n_poly(degree)))
    for i, (ax, ay) in enumerate(monomial_exponents(degree).tolist()):
        if axis == 0 and ax >= 1:
            D[low[(ax - 1, ay)], i] = ax / geom.diameter
        elif axis == 1 and ay >= 1:
            D[low[(ax, ay - 1)], i] = ay / geom.diameter
    return D


def _laplacian_map_per_cell(geom, degree):
    from vemlab.basis import monomial_exponents, n_poly

    low = {tuple(int(v) for v in e): i
           for i, e in enumerate(monomial_exponents(degree - 2))}
    L = np.zeros((n_poly(degree - 2), n_poly(degree)))
    h2 = geom.diameter ** 2
    for i, (ax, ay) in enumerate(monomial_exponents(degree).tolist()):
        if ax >= 2:
            L[low[(ax - 2, ay)], i] += ax * (ax - 1) / h2
        if ay >= 2:
            L[low[(ax, ay - 2)], i] += ay * (ay - 1) / h2
    return L


def quadrature_per_cell(geom, exactness):
    """Collapsed Gauss rule on ``triangulate_per_cell``'s triangles, mapped
    one triangle at a time: points (Q, 2) and weights (Q,)."""
    from vemlab.basis import _duffy_rule

    ref_pts, ref_w = _duffy_rule(exactness)
    pts, wts = [], []
    for a, b, c in triangulate_per_cell(geom.vertices):
        area2 = (b[0] - a[0]) * (c[1] - a[1]) - (c[0] - a[0]) * (b[1] - a[1])
        pts.append(a + np.outer(ref_pts[:, 0], b - a)
                   + np.outer(ref_pts[:, 1], c - a))
        wts.append(ref_w * area2)
    return np.vstack(pts), np.concatenate(wts)


def map_rule_axis_pairs(tris, exactness):
    """``vemlab.basis.map_rule`` on (..., T, 1, 2) corner arrays whose last
    axis holds both coordinates: the arithmetic its per-coordinate
    (..., T, R) arrays replaced, with the same operations in the same
    order."""
    from vemlab.basis import _duffy_rule

    ref_pts, ref_w = _duffy_rule(exactness)
    a, b, c = tris[..., 0, None, :], tris[..., 1, None, :], tris[..., 2, None, :]
    area2 = ((b[..., 0] - a[..., 0]) * (c[..., 1] - a[..., 1])
             - (c[..., 0] - a[..., 0]) * (b[..., 1] - a[..., 1]))
    pts = a + ref_pts[:, 0, None] * (b - a) + ref_pts[:, 1, None] * (c - a)
    wts = ref_w * area2
    lead = tris.shape[:-3]
    return pts.reshape(lead + (-1, 2)), wts.reshape(lead + (-1,))


def _edge_traces_per_cell(geom, k):
    """Per edge of one element, in ring order: its index, Gauss points from
    its start to its end vertex in the canonical direction, weights, and the
    trace table of the DoF basis on those points."""
    from vemlab.basis import _gauss, edge_reconstruction, n_poly

    nv = len(geom.vertices)
    nd = nv * k + n_poly(k - 2)
    R = edge_reconstruction(k)
    t_std, w_std = _gauss(k + 1)
    P = np.vander(t_std, k + 1, increasing=True)
    traces = []
    for e in range(nv):
        va, vb = e, (e + 1) % nv
        v_start, v_end = (va, vb) if geom.edge_forward[e] else (vb, va)
        data = np.zeros((k + 1, nd))
        data[0, v_start] = 1.0
        data[1, v_end] = 1.0
        for j in range(k - 1):
            data[2 + j, nv + e * (k - 1) + j] = 1.0
        a, b = geom.vertices[v_start], geom.vertices[v_end]
        pts = 0.5 * (a + b) + 0.5 * np.outer(t_std, b - a)
        traces.append((e, pts, w_std * geom.edge_lengths[e] / 2,
                       P @ (R @ data)))
    return traces


def projector_set_per_cell(geom, k, rule):
    """The projectors of one element, built edge by edge and DoF row by DoF
    row: the one-cell construction that ``vemlab.local._projectors``
    stacks.  ``rule`` is a (points, weights) pair; returns a dict of the
    ``ProjectorSet`` arrays, with the energy system matrix ``G`` and its
    right-hand side ``B``."""
    from vemlab.basis import _gauss, n_poly

    nv = len(geom.vertices)
    nk, nkm1, nkm2 = n_poly(k), n_poly(k - 1), n_poly(k - 2)
    nd = nv * k + nkm2
    first_int = nv * k
    area = geom.area
    perimeter = geom.edge_lengths.sum()
    points, w = rule
    rule_values = _monomials_per_cell(geom, k, points)[0]
    H = rule_values.T @ (w[:, None] * rule_values)
    H = 0.5 * (H + H.T)
    Hm1 = H[:nkm1, :nkm1]

    t_std, _ = _gauss(k + 1)
    traces = _edge_traces_per_cell(geom, k)
    edge_pts = np.vstack([pts for _, pts, _, _ in traces])
    V = _monomials_per_cell(geom, k, np.vstack([geom.vertices, edge_pts]))[0]
    V_edge = V[nv:].reshape(nv, k + 1, nk)

    D = np.zeros((nd, nk))
    D[:nv] = V[:nv]
    for e, _pts, wts, _vals in traces:
        for j in range(k - 1):
            D[nv + e * (k - 1) + j] = ((wts * t_std ** j) @ V_edge[e]
                                       / geom.edge_lengths[e])
    if nkm2:
        D[first_int:] = H[:nkm2] / area

    # the projected gradient's moments, and from them the energy
    # projector's right-hand side
    rx = np.zeros((nkm1, nd))
    ry = np.zeros((nkm1, nd))
    if nkm2:
        rx[:, first_int:] -= area * _derivative_map_per_cell(geom, k - 1, 0).T
        ry[:, first_int:] -= area * _derivative_map_per_cell(geom, k - 1, 1).T
    for e, _pts, wts, vals in traces:
        moment = V_edge[e][:, :nkm1].T @ (wts[:, None] * vals)
        rx += geom.edge_normals[e, 0] * moment
        ry += geom.edge_normals[e, 1] * moment

    Dx = _derivative_map_per_cell(geom, k, 0)
    Dy = _derivative_map_per_cell(geom, k, 1)
    G = Dx.T @ Hm1 @ Dx + Dy.T @ Hm1 @ Dy
    B = Dx.T @ rx + Dy.T @ ry
    bmean_mono = np.zeros(nk)
    bmean_dof = np.zeros(nd)
    for e, _pts, wts, vals in traces:
        bmean_mono += wts @ V_edge[e] / perimeter
        bmean_dof += wts @ vals / perimeter
    G[0] = bmean_mono
    B[0] = bmean_dof
    PiNabla = np.linalg.solve(B @ D, B)
    PiNabla += (np.eye(nk) - PiNabla @ D) @ PiNabla

    mu = np.zeros((nk, nd))
    if nkm2:
        mu[:nkm2, first_int:] = area * np.eye(nkm2)
    mu[nkm2:] = H[nkm2:] @ PiNabla
    Pi0k = np.linalg.solve(H, mu)
    Pi0k += (np.eye(nk) - Pi0k @ D) @ Pi0k
    Pi0km1 = np.linalg.solve(Hm1, mu[:nkm1])
    Pi0km1 += (np.eye(nkm1) - Pi0km1 @ D[:, :nkm1]) @ Pi0km1

    Pi0GradX = np.linalg.solve(Hm1, rx)
    Pi0GradY = np.linalg.solve(Hm1, ry)
    Pi0GradX += (Dx - Pi0GradX @ D) @ Pi0k
    Pi0GradY += (Dy - Pi0GradY @ D) @ Pi0k
    return dict(PiNabla=PiNabla, Pi0k=Pi0k, Pi0km1=Pi0km1, Pi0GradX=Pi0GradX,
                Pi0GradY=Pi0GradY, D=D, B=B, G=G, H=H, rule_values=rule_values)


def energy_rhs_flux_per_cell(geom, k):
    """The energy projector's right-hand side of one element by Green's
    formula on the monomials: their normal derivatives against the traces
    on every edge, minus their Laplacians against the internal moments,
    with the first row the boundary mean of the DoF basis.  The
    construction ``projector_set_per_cell``'s ``B`` replaced."""
    from vemlab.basis import n_poly

    nv = len(geom.vertices)
    nk, nkm2 = n_poly(k), n_poly(k - 2)
    first_int = nv * k
    B = np.zeros((nk, nv * k + nkm2))
    if nkm2:
        B[:, first_int:] -= geom.area * _laplacian_map_per_cell(geom, k).T
    perimeter = geom.edge_lengths.sum()
    bmean_dof = np.zeros(B.shape[1])
    for e, pts, wts, vals in _edge_traces_per_cell(geom, k):
        _, gx, gy = _monomials_per_cell(geom, k, pts)
        normal = geom.edge_normals[e]
        dn = gx * normal[0] + gy * normal[1]
        B += dn.T @ (wts[:, None] * vals)
        bmean_dof += wts @ vals / perimeter
    B[0] = bmean_dof
    return B


def local_system_per_cell(geom, k, coeffs, mode="standard", quad_boost=2):
    """Projectors and local forms of one element with one coefficient
    evaluation per cell: the construction that ``vemlab.local`` stacks
    (``_projectors``, ``_form_tables``, ``_local_forms``), with the forms
    as coefficient-weighted Grams of the orthonormalised degree-(k-1)
    monomials sandwiched between projectors, the Grams taken from the
    table of the basis products.
    Returns a dict of the ``ProjectorSet`` and ``LocalSystem`` arrays."""
    from vemlab.basis import n_poly

    points, w = rule = quadrature_per_cell(geom, 2 * k + quad_boost)
    out = projector_set_per_cell(geom, k, rule)
    m = n_poly(k - 1)
    kap = coeffs.kappa_at(points)
    b = coeffs.b_at(points)
    gam = coeffs.gamma_at(points)
    L = np.linalg.cholesky(out["H"][:m, :m])
    values = np.linalg.inv(L) @ out["rule_values"][:, :m].T
    wc = w * np.stack([kap[:, 0, 0], kap[:, 0, 1], kap[:, 1, 0], kap[:, 1, 1],
                       b[:, 0], b[:, 1], gam])
    # the seven Grams from one product with the table of the basis
    # products v_a v_b, a <= b, each filled in symmetrically
    a_idx, b_idx = np.triu_indices(m)
    pairs = wc @ (values[a_idx] * values[b_idx]).T
    grams = np.empty((7, m, m))
    grams[:, a_idx, b_idx] = pairs
    grams[:, b_idx, a_idx] = pairs
    K = np.block([[grams[0], grams[1]], [grams[2], grams[3]]])
    Kb = np.vstack([grams[4], grams[5]])
    P = L.T @ out["Pi0km1"]
    grad = np.vstack([L.T @ out["Pi0GradX"], L.T @ out["Pi0GradY"]])
    if mode == "grad_pinabla" and k > 1:
        grad_a = np.vstack([
            L.T @ (_derivative_map_per_cell(geom, k, 0) @ out["PiNabla"]),
            L.T @ (_derivative_map_per_cell(geom, k, 1) @ out["PiNabla"])])
    else:
        grad_a = grad
    Acons = grad_a.T @ (K @ grad_a)
    sigma = float(w @ (kap[:, 0, 0] + kap[:, 1, 1])) / (2 * geom.area)
    M = np.eye(len(out["D"])) - out["D"] @ out["PiNabla"]
    S = sigma * (M.T @ M)
    S = 0.5 * (S + S.T)
    Ah = Acons + S
    Ah = 0.5 * (Ah + Ah.T)
    Bh = -(grad.T @ (Kb @ P))
    Ch = P.T @ (grams[6] @ P)
    Ch = 0.5 * (Ch + Ch.T)
    f_loc = (P.T @ ((w * coeffs.f_at(points))[None] @ values.T).T)[:, 0]
    return dict(out, Ah=Ah, Bh=Bh, Ch=Ch, S=S, f_loc=f_loc)


def local_forms_point_tables(geom, k, proj, points, w, coeffs, mode="standard"):
    """``Ah``, ``Bh``, ``Ch`` and ``f_loc`` of one element from its
    projectors ``proj`` (a dict of ``ProjectorSet`` arrays) and the rule
    ``points``, ``w``, by tables of the projected basis functions on the
    quadrature points: the construction the Gram sandwich of
    ``vemlab.local`` replaced."""
    from vemlab.basis import n_poly

    if mode == "grad_pinabla" and k > 1:
        GxA = _derivative_map_per_cell(geom, k, 0) @ proj["PiNabla"]
        GyA = _derivative_map_per_cell(geom, k, 1) @ proj["PiNabla"]
    else:
        GxA, GyA = proj["Pi0GradX"], proj["Pi0GradY"]
    V = proj["rule_values"][:, :n_poly(k - 1)]
    VGxA, VGyA = V @ GxA, V @ GyA
    kap = coeffs.kappa_at(points)
    Acons = (VGxA.T @ ((w * kap[:, 0, 0])[:, None] * VGxA)
             + VGxA.T @ ((w * kap[:, 0, 1])[:, None] * VGyA)
             + VGyA.T @ ((w * kap[:, 1, 0])[:, None] * VGxA)
             + VGyA.T @ ((w * kap[:, 1, 1])[:, None] * VGyA))
    sigma = float(w @ (kap[:, 0, 0] + kap[:, 1, 1])) / (2 * geom.area)
    M = np.eye(len(proj["D"])) - proj["D"] @ proj["PiNabla"]
    S = sigma * (M.T @ M)
    S = 0.5 * (S + S.T)
    Ah = Acons + S
    Ah = 0.5 * (Ah + Ah.T)
    VP = V @ proj["Pi0km1"]
    VGx, VGy = V @ proj["Pi0GradX"], V @ proj["Pi0GradY"]
    b = coeffs.b_at(points)
    Bh = -(VGx.T @ ((w * b[:, 0])[:, None] * VP)
           + VGy.T @ ((w * b[:, 1])[:, None] * VP))
    gam = coeffs.gamma_at(points)
    Ch = VP.T @ ((w * gam)[:, None] * VP)
    Ch = 0.5 * (Ch + Ch.T)
    f_loc = VP.T @ (w * coeffs.f_at(points))
    return dict(Ah=Ah, Bh=Bh, Ch=Ch, f_loc=f_loc)


def edge_quadrature(endpoints, exactness):
    """Gauss-Legendre rule on the segment between two points: points (n, 2)
    and weights (n,) summing to its length, exact for polynomials of degree
    ``exactness`` along it."""
    from vemlab.basis import QuadratureRule, _gauss

    a, b = np.asarray(endpoints, dtype=float)
    t, w = _gauss(max(1, math.ceil((exactness + 1) / 2)))
    pts = a + np.outer((t + 1) / 2, b - a)
    length = float(np.hypot(*(b - a)))
    return QuadratureRule(pts, w * length / 2)


def interpolate_dofs_per_cell(geom, k, v, exactness=None):
    """``vemlab.local.interpolate_dofs`` with the cell's own polygon rule
    and monomial basis, and a Gauss sum per edge: the one-cell construction
    the stacked DoFs replaced.  Both rules are exact to degree
    ``exactness``, by default 2k + 4."""
    from vemlab.basis import _gauss, polygon_quadrature
    from vemlab.local import dof_layout

    layout = dof_layout(geom, k)
    ex = (2 * k + 4) if exactness is None else exactness
    d = np.zeros(layout.n_dofs)
    d[:layout.n_vertices] = v(geom.vertices[:, 0], geom.vertices[:, 1])
    if k >= 2:
        t, w = _gauss(math.ceil((ex + 1) / 2))
        nv = layout.n_vertices
        for e in range(nv):
            a, b = geom.vertices[e], geom.vertices[(e + 1) % nv]
            if not geom.edge_forward[e]:
                a, b = b, a
            # t runs from -1 at the edge's canonical start to +1 at its end
            pts = 0.5 * (a + b) + 0.5 * (t[:, None] * (b - a))
            vals = v(pts[:, 0], pts[:, 1])
            for j in range(k - 1):
                d[layout.edge_slot(e, j)] = np.sum(w / 2 * vals * t ** j)
        rule = polygon_quadrature(geom, ex)
        Vm = monomial_values(geom, k - 2, rule.points)
        vals = v(rule.points[:, 0], rule.points[:, 1])
        d[layout.n_vertices * k:] = (rule.weights * vals) @ Vm / geom.area
    return d


def interpolate_per_cell(mesh, k, v):
    """``vemlab.assembly.interpolate`` one cell at a time: every cell writes
    all of its DoFs, shared ones included, from
    :func:`interpolate_dofs_per_cell`."""
    from vemlab.assembly import build_dofmap
    from vemlab.mesh import element_geometry

    dofmap = build_dofmap(mesh, k)
    out = np.zeros(dofmap.n_dofs)
    for c in range(mesh.num_cells):
        out[dofmap.cell_dofs[c]] = interpolate_dofs_per_cell(
            element_geometry(mesh, c), k, v)
    return out
