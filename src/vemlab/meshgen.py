"""Mesh families on the unit square.

Four families: uniform squares, squares split into two non-convex polygons
by a zigzag polyline, clipped Voronoi diagrams of random seeds, and the same
after Lloyd relaxation (100 iterations approaches a centroidal tessellation).

Voronoi cells are clipped to the square by mirroring the seed set across all
four sides: the sides then appear as exact bisectors, every interior seed
gets a bounded region, and neighboring cells share vertex ids by
construction, so the clipped diagram is conforming without any per-cell
polygon stitching.

Lloyd iterations build no Voronoi ring: they run on the Delaunay
triangulation of the mirrored seeds, where each triangle adds its share of
area and first moment to the seeds at its corners.  Iterations after the
first mirror only the seeds in a band along each side and keep the result
only if every vertex of a seed's cell (the circumcentre of a triangle at
that seed) lies in the square, which certifies it equal to the fully
mirrored one.
"""

from dataclasses import dataclass
from itertools import chain

import numpy as np
from scipy.spatial import Delaunay, Voronoi, cKDTree

from .mesh import MeshError, first_seen, make_mesh
from .mesh import polygon_area_centroid  # noqa: F401  (perfbench/spans.py hook target)

#: interior points of the splitting polyline for the concave family, in
#: twentieths of the square side; endpoints are the side midpoints (0, 10)
#: and (20, 10).  The two halves are congruent (180-degree rotation) and
#: star-shaped with respect to a disk of positive radius.
_ZIGZAG = ((4, 7), (8, 13), (12, 7), (16, 13))

_WELD_TOL = 1e-10
_SNAP_TOL = 1e-12

FAMILIES = ("square", "concave", "lloyd0", "lloyd100", "voronoi")


@dataclass(frozen=True)
class GeneratorSpec:
    """Reproducible description of one generated mesh.

    ``target_cells`` counts squares for the square/concave families (the
    concave family produces two cells per square) and seeds for the Voronoi
    families.
    """

    family: str
    target_cells: int
    seed: int = 0
    lloyd_iterations: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.target_cells < 1:
            raise ValueError("target_cells must be positive")

    @property
    def iterations(self):
        if self.family == "lloyd0":
            return 0
        if self.family == "lloyd100":
            return 100
        return self.lloyd_iterations


def generate(spec):
    """Build the mesh described by ``spec``."""
    if spec.family in ("square", "concave"):
        n = int(round(np.sqrt(spec.target_cells)))
        if n * n != spec.target_cells:
            raise ValueError("square/concave families need a square cell count")
        return square_mesh(n) if spec.family == "square" else concave_mesh(n)
    return voronoi_mesh(spec)


def square_mesh(n_per_side):
    """n-by-n uniform square mesh of the unit square."""
    n = int(n_per_side)
    if n < 1:
        raise ValueError("n_per_side must be positive")
    ii, jj = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
    vertices = np.column_stack([ii.ravel(order="F") / n, jj.ravel(order="F") / n])
    # vertex (i, j) has id j (n + 1) + i; cells run along rows of squares
    corner = (np.arange(n)[:, None] * (n + 1) + np.arange(n)).reshape(-1, 1)
    return make_mesh(vertices, corner + np.array([0, 1, n + 2, n + 1]))


def concave_mesh(n_per_side):
    """Each of n*n squares split into two congruent non-convex octagons.

    The splitting polyline runs between the midpoints of the vertical sides
    with two valleys and two peaks, so both halves have a reflex corner but
    remain star-shaped.  Squares run along rows, the lower half first, and
    vertices are numbered in order of first appearance in the rings.
    """
    n = int(n_per_side)
    if n < 1:
        raise ValueError("n_per_side must be positive")
    zig = _ZIGZAG
    lower = [(0, 0), (20, 0), (20, 10), zig[3], zig[2], zig[1], zig[0], (0, 10)]
    upper = [(0, 10), zig[0], zig[1], zig[2], zig[3], (20, 10), (20, 20), (0, 20)]
    # lattice units of 1/(20n): every construction point is exact here
    jj, ii = np.divmod(np.arange(n * n), n)
    lattice = (np.array(lower + upper)
               + 20 * np.stack([ii, jj], axis=-1)[:, None]).reshape(-1, 2)
    ids, first = first_seen(lattice[:, 0] * (20 * n + 1) + lattice[:, 1])
    return make_mesh(lattice[first] / (20.0 * n), ids.reshape(2 * n * n, 8))


def voronoi_mesh(spec):
    """Voronoi diagram of random seed points, clipped to the unit square.

    Applies ``spec.iterations`` Lloyd iterations to the seeds first.
    Duplicate seed draws are retried with fresh randomness (at most 10
    times).
    """
    pts = _draw_seeds(spec)
    if spec.iterations:
        pts, _ = relax_points(pts, spec.iterations)
    return _tessellate(pts)


def lloyd_relax(seeds, iterations):
    """Mesh from Lloyd relaxation of explicit seed points.

    Each iteration replaces every seed by the area centroid of its clipped
    Voronoi cell; the tessellation of the final seeds is returned.
    """
    pts, _ = relax_points(np.asarray(seeds, dtype=float), iterations)
    return _tessellate(pts)


def relax_points(points, iterations):
    """Lloyd iterations on seed points.

    Returns the relaxed points and the per-iteration movement norms
    ``max_i |seed_i - centroid_i|``.  Every iteration works on the Delaunay
    triangulation (see :func:`_delaunay_centroids`); after the first only
    the seeds near a side are mirrored across it (see
    :func:`_banded_centroids`).
    """
    pts = np.asarray(points, dtype=float).copy()
    movements = np.empty(iterations)
    band = None
    for it in range(iterations):
        if band is None:
            new, reach, _ = _delaunay_centroids(pts)
        else:
            new, reach, _ = _banded_centroids(pts, band)
        movements[it] = np.max(np.hypot(new[:, 0] - pts[:, 0], new[:, 1] - pts[:, 1]))
        # next band: twice the largest seed-to-vertex distance
        band = 2.0 * reach
        pts = new
    return pts, movements


def _draw_seeds(spec):
    # PCG64 named explicitly, so seeds stay reproducible if NumPy's default
    # bit generator changes
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    for attempt in range(10):
        pts = rng.uniform(0.0, 1.0, size=(spec.target_cells, 2))
        if len(np.unique(pts, axis=0)) == spec.target_cells:
            return pts
    raise MeshError("could not draw distinct seed points")


def _tessellate(pts):
    rings, coords = _clipped_cells(pts)
    return _mesh_from_rings(rings, coords)


def _clipped_cells(pts):
    """Rings (vertex-id arrays) and coordinates of square-clipped Voronoi cells."""
    flat, starts, coords = _voronoi_rings(pts)
    return np.split(flat, starts[1:]), coords


def _mirrored(pts, band=None):
    """The seeds, then their images across x = 0, x = 1, y = 0 and y = 1.

    With a ``band``, only the seeds closer than ``band`` to a side are
    mirrored across it.
    """
    images = (pts * (-1.0, 1.0),               # across x = 0
              pts * (-1.0, 1.0) + (2.0, 0.0),  # across x = 1
              pts * (1.0, -1.0),               # across y = 0
              pts * (1.0, -1.0) + (0.0, 2.0))  # across y = 1
    if band is None:
        return np.vstack((pts,) + images)
    dist = (pts[:, 0], 1.0 - pts[:, 0], pts[:, 1], 1.0 - pts[:, 1])
    return np.vstack([pts] + [im[d < band] for im, d in zip(images, dist)])


def _voronoi_rings(pts):
    """Counterclockwise square-clipped Voronoi rings of all seeds, flat.

    Returns ``(flat, starts, coords)``: the ring of seed i is
    ``flat[starts[i]:starts[i + 1]]``, indexing the vertex table ``coords``.
    """
    n = len(pts)
    if n == 1:
        # qhull needs a 2-d point cloud; the single-seed diagram is the square
        return (np.arange(4), np.zeros(1, dtype=np.intp),
                np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    vor = Voronoi(_mirrored(pts))
    coords = _snapped(vor.vertices.copy())
    regions = [vor.regions[r] for r in vor.point_region[:n]]
    sizes = np.fromiter(map(len, regions), dtype=np.intp, count=n)
    flat = np.fromiter(chain.from_iterable(regions), dtype=np.intp,
                       count=sizes.sum())
    if sizes.min() < 3 or flat.min() < 0:
        raise MeshError("unbounded Voronoi region; seed configuration degenerate")
    # counterclockwise angular order around each seed (cells are convex)
    owner = np.repeat(np.arange(n), sizes)
    rel = coords[flat] - pts[owner]
    order = np.lexsort((np.arctan2(rel[:, 1], rel[:, 0]), owner))
    return flat[order], np.cumsum(sizes) - sizes, coords


def _snapped(coords):
    """Snap coordinates within ``_SNAP_TOL`` of a side of the square onto it."""
    coords[np.abs(coords) < _SNAP_TOL] = 0.0
    coords[np.abs(coords - 1.0) < _SNAP_TOL] = 1.0
    return coords


def _delaunay_centroids(pts, band=None):
    """Area centroids of the seeds' Voronoi cells, from the Delaunay triangles.

    The seeds are mirrored as in :func:`_mirrored`; without a ``band`` the
    cells are the clipped cells.  Returns ``(centroids, reach, centres)``:
    ``centres`` are the circumcentres of the triangles incident to a seed,
    which are the vertices of the seeds' cells, and ``reach`` is the largest
    distance from a seed to one of its cell's vertices.

    A corner ``a`` of a counterclockwise triangle ``(a, b, c)`` with
    circumcentre ``o`` owns the signed triangles ``(a, m_ab, o)`` and
    ``(a, o, m_ca)`` (``m`` are edge midpoints), and these tile a's cell.
    Signed areas keep obtuse triangles exact, and a cocircular pair of
    triangles adds nothing whichever diagonal qhull picks.
    """
    n = len(pts)
    if n == 1:
        corners = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        reach = np.sqrt(((corners - pts[0]) ** 2).sum(axis=1).max())
        return np.array([[0.5, 0.5]]), reach, corners
    tri = Delaunay(_mirrored(pts, band))
    simplices = tri.simplices
    if ((tri.convex_hull < n).any()
            or np.bincount(simplices.ravel(), minlength=n)[:n].min() < 3):
        raise MeshError("unbounded Voronoi region; seed configuration degenerate")
    simplices = simplices[(simplices < n).any(axis=1)]
    p = tri.points[simplices]                     # (T, 3, 2)
    b, c = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    cross = b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0]
    bb, cc = (b * b).sum(axis=1), (c * c).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        centres = p[:, 0] + (np.column_stack([c[:, 1] * bb - b[:, 1] * cc,
                                              b[:, 0] * cc - c[:, 0] * bb])
                             / (2.0 * cross)[:, None])
    if not np.isfinite(centres).all():
        raise MeshError("unbounded Voronoi region; seed configuration degenerate")
    _snapped(centres)
    # counterclockwise corners (qhull guarantees no orientation)
    cw = cross < 0.0
    simplices[cw] = simplices[cw, ::-1]
    p[cw] = p[cw, ::-1]
    # per corner, relative to it: circumcentre, midpoints of the edges
    # leaving and entering it, and twice the areas of its two triangles
    o = centres[:, None, :] - p
    m_next = 0.5 * (p[:, [1, 2, 0]] - p)
    m_prev = 0.5 * (p[:, [2, 0, 1]] - p)
    twice_1 = m_next[..., 0] * o[..., 1] - m_next[..., 1] * o[..., 0]
    twice_2 = o[..., 0] * m_prev[..., 1] - o[..., 1] * m_prev[..., 0]
    moments = (twice_1[..., None] * (m_next + o)
               + twice_2[..., None] * (o + m_prev)).reshape(-1, 2)
    # sum per corner point; the bins of mirror points are dropped
    owner, bins = simplices.ravel(), len(tri.points)
    area3 = 3.0 * np.bincount(owner, (twice_1 + twice_2).ravel(), minlength=bins)[:n]
    centroids = pts + np.column_stack(
        [np.bincount(owner, moments[:, 0], minlength=bins)[:n],
         np.bincount(owner, moments[:, 1], minlength=bins)[:n]]) / area3[:, None]
    reach = np.sqrt((o * o).sum(axis=-1)[simplices < n].max())
    return centroids, reach, centres


def _banded_centroids(pts, band):
    """Clipped-cell centroids from band mirroring, certified; full otherwise.

    The certificate is exact.  For a point p of the square, a seed g and
    its mirror g' across a side, |p - g'| >= |p - g|: no mirror is nearer
    to a point of the square than the seed it copies.  So every subset of
    mirrors gives each seed the same cell inside the square, and a cell
    whose vertices all lie in the square is the clipped cell.
    """
    try:
        banded = _delaunay_centroids(pts, band)
    except MeshError:
        return _delaunay_centroids(pts)
    centres = banded[2]
    if np.all((centres >= 0.0) & (centres <= 1.0)):
        return banded
    return _delaunay_centroids(pts)


def _mesh_from_rings(rings, coords):
    """Weld near-duplicate vertices, compact ids, and validate.

    Vertices closer than ``_WELD_TOL`` are joined transitively; each group
    takes the id of its lowest vertex, and the groups are numbered in that
    order.  Consecutive repeats left in a ring by the weld are dropped.
    """
    sizes = np.array([len(ring) for ring in rings])
    flat = np.concatenate(rings)
    used, local = np.unique(flat, return_inverse=True)
    # min-label propagation over the close pairs, with pointer jumping:
    # each label ends at the lowest index of its group
    label = np.arange(len(used))
    pairs = cKDTree(coords[used]).query_pairs(_WELD_TOL, output_type="ndarray")
    while len(pairs):
        low = np.minimum(label[pairs[:, 0]], label[pairs[:, 1]])
        new = label.copy()
        np.minimum.at(new, pairs[:, 0], low)
        np.minimum.at(new, pairs[:, 1], low)
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    reps = np.unique(label)
    mapped = np.searchsorted(reps, label)[local]
    # drop each vertex equal to its predecessor in its ring
    starts = np.cumsum(sizes) - sizes
    prev = np.arange(-1, len(flat) - 1)
    prev[starts] = starts + sizes - 1
    keep = mapped != mapped[prev]
    kept = np.add.reduceat(keep, starts)
    if (kept < 3).any():
        raise MeshError(f"Voronoi cell {np.argmax(kept < 3)} collapsed during "
                        "welding")
    return make_mesh(coords[used[reps]],
                     np.split(mapped[keep], np.cumsum(kept)[:-1]))
