"""Mesh families on the unit square.

Four families: uniform squares, squares split into two non-convex polygons
by a zigzag polyline, clipped Voronoi diagrams of random seeds, and the same
after Lloyd relaxation (100 iterations approaches a centroidal tessellation).

Voronoi cells are clipped to the square by mirroring the seed set across all
four sides: the sides then appear as exact bisectors and every interior seed
gets a bounded region.  A seed's cell is the polygon of the circumcentres of
its triangles in the Delaunay triangulation of the mirrored seeds, so
neighbouring cells share vertices by construction and the clipped
tessellation is conforming without any per-cell polygon stitching; the weld
merges the equal circumcentres of cocircular triangles.

One loop, :func:`relax_points`, runs ``iterations + 1`` triangulations:
the Lloyd iterations build no ring (each triangle adds its share of area
and first moment to the seeds at its corners), and the last triangulation
gives the final cells.

Every triangulation first mirrors only the seeds in a band along each
side: ``_BAND_SPACINGS`` seed spacings wide for the first one, twice the
last iteration's reach after that.  The result is kept only if every
vertex of a seed's cell lies in the square, which certifies it equal to
the fully mirrored one; otherwise every seed is mirrored.  One ladder,
:func:`_certified_cells`, serves the Lloyd iterations and the final mesh.

Every triangulation is of the mirrored seeds plus a frame of four points
around them, so its hull is the frame's square.  A certified banded qhull
build is carried into the next iteration with its mirror membership, its
counterclockwise triangles, their opposite half-edges and the frame.  After
the seeds move, the mirrors are recomputed and Lawson's edge flips, in
vectorised rounds of independent illegal edges, make the triangulation
Delaunay again; since the frame keeps the hull fixed, no illegal edge left
means Delaunay.  A move that leaves a triangle not strictly
counterclockwise is repaired in two halves, to its midpoint and then to
its end, each halved again the same way down to ``_HALVING_DEPTH``
levels.  qhull reruns (with a fresh band) only when that fails too, when
the flips reach a round cap, or when the repaired cells fail the
certificate.  The final cells' triangulation is carried from the last
iteration as well, so a Lloyd mesh usually takes one qhull build, its
first iteration's.
"""

from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import Delaunay, cKDTree
from scipy.spatial import Voronoi  # noqa: F401  (perfbench/spans.py hook target)

from .mesh import MeshError, _entries, _flat_mesh, check_count, first_seen
from .mesh import polygon_area_centroid  # noqa: F401  (perfbench/spans.py hook target)

#: interior points of the splitting polyline for the concave family, in
#: twentieths of the square side; endpoints are the side midpoints (0, 10)
#: and (20, 10).  The two halves are congruent (180-degree rotation) and
#: star-shaped with respect to a disk of positive radius.
_ZIGZAG = ((4, 7), (8, 13), (12, 7), (16, 13))

_WELD_TOL = 1e-10
_SNAP_TOL = 1e-12
#: the cell of a single seed; the general path rounds its corners
_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])

#: width of the frame around the mirrored seeds, in widths of their
#: bounding box; a wider frame makes thinner triangles at the hull, which
#: invert under smaller moves and send the repair back to qhull
_FRAME_SCALE = 2.0
_FRAME = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
#: half-width of the band of seeds mirrored across each side by the first
#: triangulation of :func:`relax_points`, in seed spacings 1 / sqrt(n); a
#: build whose cells fail the certificate (see :func:`_certified_cells`)
#: mirrors every seed.  Random seed sets (lloyd0, seeds 0-39, 0-9 at
#: n = 4,096) certified, and qhull's input at 4 spacings against full
#: mirroring:
#:
#:   n        2 spacings  3 spacings  4 spacings  points at 4 (full)
#:   25       37/40       40/40       40/40         109 (129)
#:   100      34/40       40/40       40/40         265 (504)
#:   400      32/40       40/40       40/40         721 (2,004)
#:   1,600    30/40       40/40       40/40       2,249 (8,004)
#:   4,096     9/10       10/10       10/10       5,116 (20,484)
#:
#: 4 keeps a margin over 3, the narrowest band that certified every set.
_BAND_SPACINGS = 4.0
#: flip rounds after which a repair gives up and qhull rebuilds
_MAX_FLIP_ROUNDS = 32
#: times a move that inverts a triangle may be halved before qhull
#: rebuilds (see :func:`_repaired`).  qhull builds per lloyd100 mesh at
#: seeds 0, 1 and 2, flip repairs per mesh at 1,600 seeds, and the mean
#: over the three seeds of the best of five ``generate`` CPU times (one
#: CPU of a 2-vCPU VM; times spread by about 10 % between runs):
#:
#:   depth          1,600 seeds                  6,400 seeds
#:   no carry*      7 6 5   99 repairs   200 ms  8 10 9   930 ms
#:   0              6 5 4   100          206 ms  7 9 8    858 ms
#:   1              3 3 3   104          171 ms  4 7 5    822 ms
#:   2              3 2 3   106-108      168 ms  3 4 4    814 ms
#:   3              2 2 2   107-119      200 ms  3 2 4    781 ms
#:   4              1 1 1   112-120      155 ms  2 2 1    755 ms
#:   5              1 1 1   112-120      157 ms  2 1 1    738 ms
#:   6              1 1 1   112-120      167 ms  1 1 1    793 ms
#:
#: (* no halving, and a fresh qhull build for the final mesh.)  4 is the
#: shallowest depth at one build per 1,600-seed mesh; a move that no depth
#: repairs (two seeds swapping places) tries up to 2^(depth + 1) - 1
#: repairs before qhull rebuilds.
_HALVING_DEPTH = 4
#: in-circle values below this fraction of their magnitude bound are ties
_INCIRCLE_TIE = 1e-13
# corner i + 1 and i + 2 of a triangle, and the steps from half-edge
# 3 t + i to the next and previous half-edges of its triangle
_NEXT, _PREV = np.array([1, 2, 0]), np.array([2, 0, 1])
_STEP_NEXT, _STEP_PREV = _NEXT - np.arange(3), _PREV - np.arange(3)

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
        check_count("target_cells", self.target_cells, 1)
        check_count("seed", self.seed)
        check_count("lloyd_iterations", self.lloyd_iterations)
        if self.lloyd_iterations and self.family != "voronoi":
            raise ValueError("lloyd_iterations applies to the voronoi family "
                             f"only, not {self.family!r}")

    @property
    def iterations(self):
        return 100 if self.family == "lloyd100" else self.lloyd_iterations


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
    check_count("n_per_side", n_per_side, 1)
    n = n_per_side
    ii, jj = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
    vertices = np.column_stack([ii.ravel(order="F") / n, jj.ravel(order="F") / n])
    # vertex (i, j) has id j (n + 1) + i; cells run along rows of squares
    corner = (np.arange(n)[:, None] * (n + 1) + np.arange(n)).reshape(-1, 1)
    return _flat_mesh(vertices,
                      (corner + np.array([0, 1, n + 2, n + 1])).ravel(),
                      np.arange(0, 4 * n * n + 1, 4))


def concave_mesh(n_per_side):
    """Each of n*n squares split into two congruent non-convex octagons.

    The splitting polyline runs between the midpoints of the vertical sides
    with two valleys and two peaks, so both halves have a reflex corner but
    remain star-shaped.  Squares run along rows, the lower half first, and
    vertices are numbered in order of first appearance in the rings.
    """
    check_count("n_per_side", n_per_side, 1)
    n = n_per_side
    zig = _ZIGZAG
    lower = [(0, 0), (20, 0), (20, 10), zig[3], zig[2], zig[1], zig[0], (0, 10)]
    upper = [(0, 10), zig[0], zig[1], zig[2], zig[3], (20, 10), (20, 20), (0, 20)]
    # lattice units of 1/(20n): every construction point is exact here
    jj, ii = np.divmod(np.arange(n * n), n)
    lattice = (np.array(lower + upper)
               + 20 * np.stack([ii, jj], axis=-1)[:, None]).reshape(-1, 2)
    ids, first = first_seen(lattice[:, 0] * (20 * n + 1) + lattice[:, 1])
    return _flat_mesh(lattice[first] / (20.0 * n), ids,
                      np.arange(0, 16 * n * n + 1, 8))


def voronoi_mesh(spec):
    """Voronoi diagram of random seed points, clipped to the unit square.

    Applies ``spec.iterations`` Lloyd iterations to the seeds first.
    Duplicate seed draws are retried with fresh randomness (at most 10
    times).
    """
    return _mesh_from_rings(*relax_points(_draw_seeds(spec), spec.iterations)[2])


def lloyd_relax(seeds, iterations):
    """Mesh from Lloyd relaxation of explicit seed points.

    Each iteration replaces every seed by the area centroid of its clipped
    Voronoi cell; the tessellation of the final seeds is returned.  Seeds
    are an (n, 2) array of distinct points of the open unit square: qhull
    would drop a repeated one, and a seed on a side is its own mirror
    image, so mirroring cannot clip its cell.  The clipping also assumes
    that no mirror image of a seed is nearer to the square than the seed.
    """
    check_count("iterations", iterations)
    seeds = _entries(seeds, "seeds", "iuf")
    closed = np.all((seeds >= 0.0) & (seeds <= 1.0), axis=1)
    bad = np.flatnonzero(~np.all((seeds > 0.0) & (seeds < 1.0), axis=1))
    if bad.size:
        j = bad[0]
        where = "lies on a side of" if closed[j] else "is not a point of"
        raise MeshError(f"seed {j} at {tuple(seeds[j].tolist())} {where} the "
                        "unit square")
    _, first, which = np.unique(seeds, axis=0, return_index=True,
                                return_inverse=True)
    owner = first[which.ravel()]
    repeats = np.flatnonzero(owner != np.arange(len(seeds)))
    if repeats.size:
        j = repeats[0]
        raise MeshError(f"seeds {owner[j]} and {j} coincide at "
                        f"{tuple(seeds[j].tolist())}")
    return _mesh_from_rings(*relax_points(seeds, iterations)[2])


def relax_points(points, iterations):
    """Lloyd iterations on seed points, and the clipped cells they end at.

    Returns the relaxed points, the per-iteration movement norms
    ``max_i |seed_i - centroid_i|``, and the relaxed points' cells as
    ``(flat, sizes, coords)``: every cell's vertex ids, cell after cell,
    the cells' vertex counts and the vertex coordinates.

    Runs ``iterations + 1`` triangulations through
    :func:`_certified_cells`, each carried into the next: the first
    ``iterations`` give the centroids (:func:`_cell_centroids`), the last
    the final cells (:func:`_seed_circumcentres`).  A triangulation mirrors
    only the seeds near a side across it: within ``_BAND_SPACINGS`` seed
    spacings in the first, then within twice the last iteration's reach.
    The carried triangulation is repaired by flips, and a move that
    inverts one of its triangles is halved first (:func:`_repaired`).  A
    seed's cell is the circumcentres of its triangles, in counterclockwise
    angular order around it (cells are convex); cocircular triangles give
    repeated vertices, which :func:`_mesh_from_rings` welds.  One seed's
    cell is the square.
    """
    pts = np.asarray(points, dtype=float).copy()
    n = len(pts)
    if not n:
        raise MeshError("Lloyd relaxation needs at least one seed; the seed "
                        "array is empty")
    movements = np.empty(iterations)
    band, carried = _BAND_SPACINGS / np.sqrt(n), None
    for it in range(iterations):
        if n == 1:
            new = np.array([[0.5, 0.5]])
        else:
            (new, reach, _), carried = _certified_cells(_cell_centroids, pts,
                                                        band, carried)
            # next band: twice the largest seed-to-vertex distance
            band = 2.0 * reach
        movements[it] = np.max(np.hypot(new[:, 0] - pts[:, 0], new[:, 1] - pts[:, 1]))
        pts = new
    if n == 1:
        return pts, movements, (np.arange(4), np.array([4]), _SQUARE.copy())
    (simplices, _, centres), _ = _certified_cells(_seed_circumcentres, pts,
                                                  band, carried)
    owner = simplices.ravel()
    at_seed = owner < n
    ids, owner = np.repeat(np.arange(len(simplices)), 3)[at_seed], owner[at_seed]
    rel = centres[ids] - pts[owner]
    order = np.lexsort((np.arctan2(rel[:, 1], rel[:, 0]), owner))
    return pts, movements, (ids[order], np.bincount(owner, minlength=n), centres)


def _draw_seeds(spec):
    # PCG64 named explicitly, so seeds stay reproducible if NumPy's default
    # bit generator changes
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    for attempt in range(10):
        pts = rng.uniform(0.0, 1.0, size=(spec.target_cells, 2))
        if len(np.unique(pts, axis=0)) == spec.target_cells:
            return pts
    raise MeshError("could not draw distinct seed points")


def _members(pts, band=None):
    """Per side (x = 0, x = 1, y = 0, y = 1), the seeds mirrored across it."""
    if band is None:
        return (np.arange(len(pts)),) * 4
    dist = (pts[:, 0], 1.0 - pts[:, 0], pts[:, 1], 1.0 - pts[:, 1])
    return tuple(np.flatnonzero(d < band) for d in dist)


def _mirror(pts, members):
    """The seeds, then the images of ``members`` across each side."""
    x0, x1, y0, y1 = (pts.take(m, axis=0) for m in members)
    return np.vstack([pts,
                      x0 * (-1.0, 1.0),               # across x = 0
                      x1 * (-1.0, 1.0) + (2.0, 0.0),  # across x = 1
                      y0 * (1.0, -1.0),               # across y = 0
                      y1 * (1.0, -1.0) + (0.0, 2.0)])  # across y = 1


def _snapped(coords):
    """Snap coordinates within ``_SNAP_TOL`` of a side of the square onto it."""
    coords[np.abs(coords) < _SNAP_TOL] = 0.0
    coords[np.abs(coords - 1.0) < _SNAP_TOL] = 1.0
    return coords


@dataclass(frozen=True)
class _Triangulation:
    """Counterclockwise Delaunay triangulation of mirrored seeds in a frame.

    ``points`` are the seeds, then their images across each side of the
    square (``members`` lists, per side as :func:`_members` does, the
    seeds mirrored across it), then the four frame points, whose square
    is the hull.  Half-edge ``3 t + i`` runs from ``simplices[t, i]``
    to ``simplices[t, (i + 1) % 3]``, and ``opposite`` holds the half-edge
    running the other way, or -1 on the hull; it is ``None`` when qhull
    left a point out of every triangle (a duplicate), since flips cannot
    repair such a triangulation.
    """

    points: np.ndarray
    members: tuple
    simplices: np.ndarray
    opposite: np.ndarray


def _delaunay(pts, band=None):
    """qhull's Delaunay triangulation of the mirrored seeds and a frame.

    The frame is a square ``_FRAME_SCALE`` times as wide as the mirrored
    points' bounding box, around it; being the hull, it stays fixed while
    the points inside move, so a repaired triangulation needs no hull check.
    """
    members = _members(pts, band)
    mirrored = _mirror(pts, members)
    lo, hi = mirrored.min(axis=0), mirrored.max(axis=0)
    frame = 0.5 * (lo + hi) + 0.5 * _FRAME_SCALE * (hi - lo).max() * _FRAME
    points = np.vstack([mirrored, frame])
    tri = Delaunay(points)
    # counterclockwise (qhull guarantees no orientation): swap corners 1
    # and 2, and the neighbours opposite them; one column at a time
    x, y = points[:, 0].take(tri.simplices), points[:, 1].take(tri.simplices)
    cw = ((x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0])
          - (y[:, 1] - y[:, 0]) * (x[:, 2] - x[:, 0])) < 0.0
    s0, s1, s2 = tri.simplices.T
    n0, n1, n2 = tri.neighbors.T
    s1, s2 = np.where(cw, s2, s1), np.where(cw, s1, s2)
    n1, n2 = np.where(cw, n2, n1), np.where(cw, n1, n2)
    opposite = None
    if not len(tri.coplanar):
        # half-edge (t, i) borders the neighbour opposite corner i + 2, and
        # its twin there starts at corner i + 1 (at slot 0 unless found at
        # slot 1 or 2)
        opposite = np.column_stack([
            np.where(across >= 0, 3 * across + (s1.take(across) == start)
                     + 2 * (s2.take(across) == start), -1)
            for across, start in ((n2, s1), (n0, s2), (n1, s0))]).ravel()
    return _Triangulation(points, members, np.column_stack([s0, s1, s2]),
                          opposite)


def _flip_repaired(tri, pts):
    """``tri`` with the seeds moved to ``pts``, made Delaunay again by flips.

    The mirrored points are recomputed with ``tri``'s membership and frame.
    Lawson's flips run in vectorised rounds, each flipping an independent
    set of illegal edges (every triangle keeps its lowest illegal edge);
    the first round tests every edge, later rounds only the edges of the
    triangles just flipped and the illegal edges left waiting.  In-circle
    near-ties (``_INCIRCLE_TIE`` of the predicate's magnitude bound) count
    as legal: a cocircular pair adds nothing to the centroids whichever
    diagonal is used.  Once no edge is
    illegal the triangulation is Delaunay (Lawson's lemma; the frame fixes
    the hull).  Returns ``None`` when qhull must rebuild instead: a triangle
    is not strictly counterclockwise (an inverting move, or NaN), or the
    rounds reach ``_MAX_FLIP_ROUNDS``.
    """
    points = np.vstack([_mirror(pts, tri.members), tri.points[-4:]])
    simplices, opposite = tri.simplices.copy(), tri.opposite.copy()
    # NaN fails the comparison
    if not np.all(_twice_area(points.take(simplices, axis=0)) > 0.0):
        return None
    half = np.arange(opposite.size)
    edges = half[opposite > half]       # every interior edge, once
    for _ in range(_MAX_FLIP_ROUNDS):
        flat = simplices.ravel()
        twins = opposite[edges]
        illegal = _in_circle(points, flat.take(edges), flat.take(_next(edges)),
                             flat.take(_prev(edges)), flat.take(_prev(twins)))
        edges, twins = edges[illegal], twins[illegal]
        if not len(edges):
            return _Triangulation(points, tri.members, simplices, opposite)
        t, u = edges // 3, twins // 3
        lowest = np.full(len(simplices), half.size)
        np.minimum.at(lowest, t, edges)
        np.minimum.at(lowest, u, edges)
        pick = (lowest[t] == edges) & (lowest[u] == edges)
        # an illegal edge left unflipped stays a candidate; if one of its
        # triangles flips, it is an outer edge of that quad below
        flipped = np.zeros(len(simplices), dtype=bool)
        flipped[t[pick]] = flipped[u[pick]] = True
        waiting = edges[~(pick | flipped[t] | flipped[u])]
        h, g, t, u = edges[pick], twins[pick], t[pick], u[pick]
        # (a, b, c) and (b, a, d) become (a, d, c) and (d, b, c)
        a, b, c, d = (flat.take(h), flat.take(_next(h)), flat.take(_prev(h)),
                      flat.take(_prev(g)))
        # the quad's outer half-edges, old and new: ad, ca, db, bc
        old = np.concatenate([_next(g), _prev(h), _prev(g), _next(h)])
        new = np.concatenate([3 * t, 3 * t + 2, 3 * u, 3 * u + 1])
        across = opposite[old]
        simplices[t] = np.column_stack([a, d, c])
        simplices[u] = np.column_stack([d, b, c])
        # an outer twin in another flipped quad has moved with it
        moved = half.copy()
        moved[old] = new
        across = np.where(across >= 0, moved[across], -1)
        opposite[new] = across
        inner = across >= 0
        opposite[across[inner]] = new[inner]
        opposite[3 * t + 1] = 3 * u + 2
        opposite[3 * u + 2] = 3 * t + 1
        quads = simplices.take(np.concatenate([t, u]), axis=0)
        if not np.all(_twice_area(points.take(quads, axis=0)) > 0.0):
            return None
        edges = new[inner]
        edges = np.union1d(waiting, np.minimum(edges, opposite[edges]))
    return None


def _repaired(tri, pts, depth=_HALVING_DEPTH):
    """``tri`` repaired by :func:`_flip_repaired` for the seeds moved to
    ``pts``.  When that fails (the move inverts a triangle, or the flips
    reach their round cap), the move is split at its midpoint: ``tri`` is
    repaired to the midpoint, and that repair on to ``pts``, each half
    split again the same way while ``depth`` lasts.  ``None`` if a half
    still fails."""
    out = _flip_repaired(tri, pts)
    if out is None and depth:
        mid = 0.5 * (tri.points[:len(pts)] + pts)
        half = _repaired(tri, mid, depth - 1)
        out = None if half is None else _repaired(half, pts, depth - 1)
    return out


def _next(h):
    """The half-edge after ``h`` in its triangle."""
    return h + _STEP_NEXT[h % 3]


def _prev(h):
    """The half-edge before ``h`` in its triangle."""
    return h + _STEP_PREV[h % 3]


def _twice_area(p):
    """Twice the signed areas of triangles ``p`` (..., 3, 2)."""
    bx, by = p[..., 1, 0] - p[..., 0, 0], p[..., 1, 1] - p[..., 0, 1]
    cx, cy = p[..., 2, 0] - p[..., 0, 0], p[..., 2, 1] - p[..., 0, 1]
    return bx * cy - by * cx


def _in_circle(points, a, b, c, d):
    """Whether ``d`` lies inside the circumcircle of counterclockwise (a, b, c).

    Values within ``_INCIRCLE_TIE`` of the determinant's magnitude bound
    (the sum of the absolute values of its terms) count as ties, outside.
    """
    pd = points.take(d, axis=0)
    ad, bd, cd = (points.take(i, axis=0) - pd for i in (a, b, c))
    lift = [v[:, 0] * v[:, 0] + v[:, 1] * v[:, 1] for v in (ad, bd, cd)]
    terms = [(v[:, 0] * w[:, 1], w[:, 0] * v[:, 1])
             for v, w in ((bd, cd), (cd, ad), (ad, bd))]
    det = sum(l * (p - q) for l, (p, q) in zip(lift, terms))
    bound = sum(l * (np.abs(p) + np.abs(q)) for l, (p, q) in zip(lift, terms))
    return det > _INCIRCLE_TIE * bound


def _seed_circumcentres(pts, points, simplices):
    """The triangles at a seed, their corners and their snapped circumcentres.

    ``points`` are the seeds, their mirror images and the four frame
    points, last.  Returns ``(simplices, (x, y), centres)`` for the rows
    of ``simplices`` with a seed corner: ``x`` and ``y`` (T, 3) are the
    corners' coordinates, ``centres`` (T, 2) the circumcentres.  A seed
    that touches the frame, or has fewer than three triangles, has an
    unbounded region.

    The arithmetic runs on one coordinate at a time: NumPy's loops over a
    trailing axis of length 2 cost several times the arithmetic itself.
    """
    n = len(pts)
    lowest = np.minimum(np.minimum(simplices[:, 0], simplices[:, 1]), simplices[:, 2])
    simplices = simplices.compress(lowest < n, axis=0)
    if ((simplices >= len(points) - 4).any()
            or np.bincount(simplices.ravel(), minlength=n)[:n].min() < 3):
        raise MeshError("unbounded Voronoi region; seed configuration degenerate")
    x, y = points[:, 0].take(simplices), points[:, 1].take(simplices)
    bx, by = x[:, 1] - x[:, 0], y[:, 1] - y[:, 0]
    cx, cy = x[:, 2] - x[:, 0], y[:, 2] - y[:, 0]
    cross = bx * cy - by * cx
    bb, cc = bx * bx + by * by, cx * cx + cy * cy
    with np.errstate(divide="ignore", invalid="ignore"):
        twice = 2.0 * cross
        centres = np.column_stack([x[:, 0] + (cy * bb - by * cc) / twice,
                                   y[:, 0] + (bx * cc - cx * bb) / twice])
    if not np.isfinite(centres).all():
        raise MeshError("unbounded Voronoi region; seed configuration degenerate")
    return simplices, (x, y), _snapped(centres)


def _cell_centroids(pts, points, simplices):
    """Centroids of the seeds' Voronoi cells from counterclockwise triangles.

    ``points`` are the seeds, their mirror images and the four frame
    points, last.  Returns ``(centroids, reach, centres)``: ``centres`` are
    the circumcentres of the triangles incident to a seed, which are the
    vertices of the seeds' cells (see :func:`_seed_circumcentres`), and
    ``reach`` is the largest distance from a seed to one of its cell's
    vertices.

    A corner ``a`` of a counterclockwise triangle ``(a, b, c)`` with
    circumcentre ``o`` owns the signed triangles ``(a, m_ab, o)`` and
    ``(a, o, m_ca)`` (``m`` are edge midpoints), and these tile a's cell.
    Signed areas keep obtuse triangles exact, and a cocircular pair of
    triangles adds nothing whichever diagonal is used.
    """
    n = len(pts)
    simplices, (x, y), centres = _seed_circumcentres(pts, points, simplices)
    # per corner (T, 3), relative to it: circumcentre o, midpoints of the
    # edges leaving (m) and entering (l) it, and twice the areas of its two
    # triangles
    ox, oy = centres[:, :1] - x, centres[:, 1:] - y
    mx, my = 0.5 * (x[:, _NEXT] - x), 0.5 * (y[:, _NEXT] - y)
    lx, ly = 0.5 * (x[:, _PREV] - x), 0.5 * (y[:, _PREV] - y)
    twice_1 = mx * oy - my * ox
    twice_2 = ox * ly - oy * lx
    # sum per corner point; the bins of mirror points are dropped
    owner, bins = simplices.ravel(), len(points)

    def per_seed(values):
        return np.bincount(owner, values.ravel(), minlength=bins)[:n]

    area3 = 3.0 * per_seed(twice_1 + twice_2)
    centroids = np.column_stack(
        [pts[:, 0] + per_seed(twice_1 * (mx + ox) + twice_2 * (ox + lx)) / area3,
         pts[:, 1] + per_seed(twice_1 * (my + oy) + twice_2 * (oy + ly)) / area3])
    reach = np.sqrt((ox * ox + oy * oy)[simplices < n].max())
    return centroids, reach, centres


def _certified_cells(cells, pts, band, carried=None):
    """``cells(pts, points, simplices)`` on the first triangulation whose
    cells pass the certificate: the ``carried`` one repaired by flips,
    with a move that inverts a triangle halved (:func:`_repaired`), then
    qhull's with this ``band``, then qhull's with every seed mirrored,
    which needs none.

    ``cells`` is :func:`_cell_centroids` or :func:`_seed_circumcentres`,
    whose last return value is the cells' vertices; ``pts`` holds two
    seeds or more.  Returns what ``cells`` returned and the certified
    triangulation to carry into the next Lloyd iteration or the final
    mesh, or ``None`` after full mirroring or a build that left a point
    out.

    The certificate is exact.  For a point p of the square, a seed g and
    its mirror g' across a side, |p - g'| >= |p - g|: no mirror is nearer
    to a point of the square than the seed it copies.  So every subset of
    mirrors gives each seed the same cell inside the square, and a cell
    whose vertices all lie in the square is the clipped cell.  (A frame
    point nearer than every seed to part of the square would border a
    seed's cell, which :func:`_seed_circumcentres` refuses.)
    """
    if carried is not None:
        tri = _repaired(carried, pts)
        found = None if tri is None else _certified(cells, pts, tri)
        if found is not None:
            return found, tri
    tri = _delaunay(pts, band)
    found = _certified(cells, pts, tri)
    if found is not None:
        return found, tri if tri.opposite is not None else None
    tri = _delaunay(pts)
    return cells(pts, tri.points, tri.simplices), None


def _certified(cells, pts, tri):
    """``cells(pts, tri.points, tri.simplices)`` if the cell vertices it
    returns last lie in the square, else None."""
    try:
        found = cells(pts, tri.points, tri.simplices)
    except MeshError:
        return None
    centres = found[-1]
    return found if np.all((centres >= 0.0) & (centres <= 1.0)) else None


def _mesh_from_rings(flat, sizes, coords):
    """Weld near-duplicate vertices of flat rings of ``sizes`` vertices,
    compact ids, and validate.

    Vertices closer than ``_WELD_TOL`` are joined transitively; each group
    takes the coordinates of its lowest vertex, and the groups are numbered
    in that order (``connected_components`` numbers them so).  Consecutive
    repeats left in a ring by the weld are dropped.
    """
    used, local = np.unique(flat, return_inverse=True)
    n = len(used)
    pairs = cKDTree(coords[used]).query_pairs(_WELD_TOL, output_type="ndarray")
    _, label = connected_components(
        coo_matrix((np.ones(len(pairs)), pairs.T), shape=(n, n)),
        directed=False)
    reps = np.unique(label, return_index=True)[1]
    mapped = label.astype(int)[local]
    # drop each vertex equal to its predecessor in its ring
    starts = np.cumsum(sizes) - sizes
    prev = np.arange(-1, len(flat) - 1)
    prev[starts] = starts + sizes - 1
    keep = mapped != mapped[prev]
    kept = np.add.reduceat(keep, starts)
    if (kept < 3).any():
        raise MeshError(f"Voronoi cell {np.argmax(kept < 3)} collapsed during "
                        "welding")
    return _flat_mesh(coords[used[reps]], mapped[keep], np.cumsum([0, *kept]))
