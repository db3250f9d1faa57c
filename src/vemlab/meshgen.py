"""Mesh families on the unit square.

Four families: uniform squares, squares split into two non-convex polygons
by a zigzag polyline, clipped Voronoi diagrams of random seeds, and the same
after Lloyd relaxation (100 iterations approaches a centroidal tessellation).

Voronoi cells are clipped to the square by mirroring the seed set across all
four sides: the sides then appear as exact bisectors, every interior seed
gets a bounded region, and neighboring cells share vertex ids by
construction, so the clipped diagram is conforming without any per-cell
polygon stitching.  Lloyd iterations after the first mirror only the seeds
in a band along each side and keep the diagram only if every cell lies in
the square, which certifies it equal to the fully mirrored one.
"""

from dataclasses import dataclass
from itertools import chain

import numpy as np
from scipy.spatial import Voronoi, cKDTree

from .mesh import MeshError, make_mesh
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
    families.  ``rng`` pins the generator algorithm by name so runs stay
    reproducible across library versions.
    """

    family: str
    target_cells: int
    seed: int = 0
    lloyd_iterations: int = 0
    rng: str = "pcg64"

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.target_cells < 1:
            raise ValueError("target_cells must be positive")
        if self.rng != "pcg64":
            raise ValueError(f"unsupported rng {self.rng!r}")

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

    def vid(i, j):
        return j * (n + 1) + i

    cells = []
    for j in range(n):
        for i in range(n):
            cells.append([vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)])
    return make_mesh(vertices, cells)


def concave_mesh(n_per_side):
    """Each of n*n squares split into two congruent non-convex octagons.

    The splitting polyline runs between the midpoints of the vertical sides
    with two valleys and two peaks, so both halves have a reflex corner but
    remain star-shaped.
    """
    n = int(n_per_side)
    if n < 1:
        raise ValueError("n_per_side must be positive")
    registry = {}
    vertices = []

    def vid(gx, gy):
        # lattice units of 1/(20n): every construction point is exact here
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
    return make_mesh(np.array(vertices), cells)


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
    ``max_i |seed_i - centroid_i|``.  After the first iteration only the
    seeds near a side are mirrored across it (see :func:`_banded_rings`).
    """
    pts = np.asarray(points, dtype=float).copy()
    movements = np.empty(iterations)
    band = None
    for it in range(iterations):
        if band is None:
            flat, starts, coords = _voronoi_rings(pts)
        else:
            flat, starts, coords = _banded_rings(pts, band)
        new = _centroids(flat, starts, coords)
        movements[it] = np.max(np.hypot(new[:, 0] - pts[:, 0], new[:, 1] - pts[:, 1]))
        # next band: twice the largest seed-to-vertex distance
        owner_pts = np.repeat(pts, np.diff(starts, append=len(flat)), axis=0)
        band = 2.0 * np.sqrt(((coords[flat] - owner_pts) ** 2).sum(axis=1).max())
        pts = new
    return pts, movements


def _draw_seeds(spec):
    rng = np.random.default_rng(spec.seed)
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


def _voronoi_rings(pts, band=None):
    """Counterclockwise Voronoi rings of all seeds in one flat array.

    Returns ``(flat, starts, coords)``: the ring of seed i is
    ``flat[starts[i]:starts[i + 1]]``, indexing the vertex table ``coords``.
    Without a ``band`` every seed is mirrored and the rings are the cells
    clipped to the square.
    """
    n = len(pts)
    if n == 1:
        # qhull needs a 2-d point cloud; the single-seed diagram is the square
        return (np.arange(4), np.zeros(1, dtype=np.intp),
                np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    vor = Voronoi(_mirrored(pts, band))
    coords = vor.vertices.copy()
    coords[np.abs(coords) < _SNAP_TOL] = 0.0
    coords[np.abs(coords - 1.0) < _SNAP_TOL] = 1.0
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


def _banded_rings(pts, band):
    """Clipped rings from band mirroring, certified; full mirroring otherwise.

    The certificate is exact.  For a point p of the square, a seed g and
    its mirror g' across a side, |p - g'| >= |p - g|: no mirror is nearer
    to a point of the square than the seed it copies.  So every subset of
    mirrors gives each seed the same cell inside the square, and a cell
    that lies entirely in the square is the clipped cell.
    """
    try:
        flat, starts, coords = _voronoi_rings(pts, band)
    except MeshError:
        return _voronoi_rings(pts)
    used = coords[flat]
    if np.all((used >= 0.0) & (used <= 1.0)):
        return flat, starts, coords
    return _voronoi_rings(pts)


def _centroids(flat, starts, coords):
    """Area centroids of the flat rings: one shoelace pass, summed per ring."""
    nxt = np.arange(1, len(flat) + 1)
    nxt[np.append(starts[1:], len(flat)) - 1] = starts  # wrap to the ring start
    x, y = coords[flat, 0], coords[flat, 1]
    xn, yn = x[nxt], y[nxt]
    cross = x * yn - xn * y
    six_area = 3.0 * np.add.reduceat(cross, starts)
    return np.column_stack([np.add.reduceat((x + xn) * cross, starts),
                            np.add.reduceat((y + yn) * cross, starts)]) / six_area[:, None]


def _mesh_from_rings(rings, coords):
    """Weld near-duplicate vertices, compact ids, and validate."""
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
