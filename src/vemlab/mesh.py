"""Polygonal meshes of the unit square: storage, validation, geometry.

A mesh is a flat vertex table plus counterclockwise vertex rings, one per
cell.  Edge adjacency is derived, never stored.  The on-disk format is JSON
with "vertices", "cells" and optional "boundary_vertices" keys.
"""

import json
from dataclasses import dataclass, field, fields, replace

import numpy as np


class MeshError(ValueError):
    """Raised for structurally invalid meshes or degenerate cells."""


@dataclass
class PolyMesh:
    """Conforming polygonal mesh.

    Attributes
    ----------
    vertices : (N, 2) float array
    cells : list of int arrays, CCW vertex rings
    boundary_vertices : (N,) bool array
    edge_vertices : (E, 2) int array, canonical (low, high) vertex pairs
    cell_edges : list of int arrays, edge ids in ring order per cell
    """

    vertices: np.ndarray
    cells: list
    boundary_vertices: np.ndarray
    edge_vertices: np.ndarray = field(repr=False)
    cell_edges: list = field(repr=False)

    @property
    def num_vertices(self):
        return self.vertices.shape[0]

    @property
    def num_cells(self):
        return len(self.cells)

    @property
    def num_edges(self):
        return self.edge_vertices.shape[0]

    def boundary_edges(self):
        """Indices of edges incident to exactly one cell."""
        counts = np.bincount(np.concatenate(self.cell_edges),
                             minlength=self.num_edges)
        return np.flatnonzero(counts == 1)


@dataclass
class RegularityReport:
    """Shape-regularity diagnostics; informative, never a gate."""

    rho: np.ndarray            # per cell: kernel disk radius / diameter
    edge_ratio: np.ndarray     # per cell: min edge length / diameter
    min_rho: float
    min_edge_ratio: float
    non_star_cells: np.ndarray  # cells whose visibility kernel has no interior


def polygon_area_centroid(coords):
    """Signed area and area centroid of a polygon given by its ring."""
    x, y = coords[:, 0], coords[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    cross = x * yn - xn * y
    area = 0.5 * np.sum(cross)
    cx = np.sum((x + xn) * cross) / (6.0 * area)
    cy = np.sum((y + yn) * cross) / (6.0 * area)
    return area, np.array([cx, cy])


def _diameters(coords):
    diff = coords[:, :, None, :] - coords[:, None, :, :]
    return np.sqrt((diff ** 2).sum(-1).max(axis=(-2, -1)))


def make_mesh(vertices, cells, boundary_vertices=None):
    """Validate raw arrays and assemble a :class:`PolyMesh`.

    Raises :class:`MeshError` for an empty cell list, coordinates that are
    not numbers, vertex ids that are not integers, short or repeating
    rings, non-CCW cells, and edges traversed twice in the same direction,
    which indicates inconsistent orientation or an edge shared by more
    than two cells.
    """
    vertices = _entries(vertices, "vertex table", "iuf")
    vertices = vertices.astype(float, copy=False)
    if vertices.ndim != 2 or vertices.shape[1] != 2:
        raise MeshError("vertex table must have shape (N, 2)")
    if not np.all(np.isfinite(vertices)):
        raise MeshError("vertex table contains non-finite coordinates")
    n_vert = vertices.shape[0]

    try:
        cells = iter(cells)
    except TypeError as exc:
        raise MeshError("cells must be a list of vertex rings") from exc
    rings = [_entries(cell, f"cell {i}").astype(int, copy=False)
             for i, cell in enumerate(cells)]
    if not rings:
        raise MeshError("the cell list is empty: a mesh needs at least one cell")
    _check_rings(vertices, rings)

    mesh = PolyMesh(vertices, rings, np.zeros(n_vert, dtype=bool),
                    *_edge_table(rings, n_vert))
    mesh.boundary_vertices[mesh.edge_vertices[mesh.boundary_edges()]] = True

    if boundary_vertices is not None:
        ids = _entries(boundary_vertices, "boundary_vertices").astype(int)
        if np.any((ids < 0) | (ids >= n_vert)):
            raise MeshError("boundary_vertices references a vertex id out of "
                            "range")
        flags = np.zeros(n_vert, dtype=bool)
        flags[ids] = True
        if not np.array_equal(flags, mesh.boundary_vertices):
            raise MeshError("boundary_vertices inconsistent with edge incidence")
    return mesh


def _entries(values, what, kinds="iu"):
    """``values`` as an array; :class:`MeshError` naming ``what`` when it is
    ragged or holds an entry that is not an integer (not a number when
    ``kinds`` is "iuf"); a boolean is neither."""
    try:
        out = np.asarray(values)
    except ValueError as exc:
        raise MeshError(f"{what} is ragged") from exc
    if out.size and (out.dtype.kind not in kinds or isinstance(values, list)
                     and any(isinstance(v, bool) for v in values)):
        kind = "an integer" if kinds == "iu" else "a number"
        raise MeshError(f"{what} holds an entry that is not {kind}")
    return out


def first_seen(keys):
    """Number the distinct values of ``keys`` in order of first appearance:
    the number of every entry, and where each number first appears."""
    _, first, which = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return rank[which], first[order]


def _edge_table(rings, n_vert):
    """Edges of valid rings: canonical (low, high) vertex pairs numbered in
    order of first appearance, and each cell's edge ids in ring order.

    Directed edges must be unique: a shared edge is traversed once per
    direction by its two cells.  The first edge traversed twice in the same
    direction raises :class:`MeshError`; this also catches every edge shared
    by more than two cells, as the third of them repeats a direction.
    """
    sizes = np.array([ring.size for ring in rings])
    ends = np.cumsum(sizes)
    starts = ends - sizes
    a = np.concatenate(rings)
    nxt = np.arange(1, ends[-1] + 1)
    nxt[ends - 1] = starts  # wrap to the ring start
    b = a[nxt]
    owner = np.repeat(np.arange(len(rings)), sizes)
    _, first, which = np.unique(a * n_vert + b, return_index=True,
                                return_inverse=True)
    again = np.flatnonzero(first[which] != np.arange(a.size))
    if again.size:
        p = again[0]
        raise MeshError(
            f"edge ({a[p]}, {b[p]}) traversed twice in the same direction "
            f"by cells {owner[first[which[p]]]} and {owner[p]}")
    low, high = np.minimum(a, b), np.maximum(a, b)
    edge, first = first_seen(low * n_vert + high)
    edge_vertices = np.column_stack([low, high])[first]
    cell_edges = [edge[lo:hi] for lo, hi in zip(starts.tolist(), ends.tolist())]
    return edge_vertices, cell_edges


def _check_rings(vertices, rings):
    """Raise :class:`MeshError` naming the first invalid ring.

    A ring is checked for length, repeated ids, ids out of range and
    orientation, in that order; each check runs once over all rings.
    """
    n_cells, n_vert = len(rings), vertices.shape[0]
    sizes = np.array([ring.size for ring in rings])
    short = (sizes < 3) | np.array([ring.ndim != 1 for ring in rings])
    flat = np.concatenate([ring.reshape(-1) for ring in rings])
    owner = np.repeat(np.arange(n_cells), sizes)
    order = np.lexsort((flat, owner))
    twice = (np.diff(owner[order]) == 0) & (np.diff(flat[order]) == 0)
    repeats = np.zeros(n_cells, dtype=bool)
    repeats[owner[order][1:][twice]] = True
    outside = np.zeros(n_cells, dtype=bool)
    outside[owner[(flat < 0) | (flat >= n_vert)]] = True
    bad = short | repeats | outside
    first = int(np.argmax(bad)) if bad.any() else n_cells
    if first:
        # shoelace areas of the rings before the first malformed one
        ends = np.cumsum(sizes[:first])
        starts = ends - sizes[:first]
        nxt = np.arange(1, ends[-1] + 1)
        nxt[ends - 1] = starts  # wrap to the ring start
        x, y = vertices[flat[:ends[-1]]].T
        area = 0.5 * np.add.reduceat(x * y[nxt] - x[nxt] * y, starts)
        clockwise = np.flatnonzero(area <= 0.0)
        if clockwise.size:
            raise MeshError(f"cell {clockwise[0]} is not counterclockwise (or degenerate)")
    if first < n_cells:
        if short[first]:
            raise MeshError(f"cell {first} has fewer than 3 vertices")
        if repeats[first]:
            raise MeshError(f"cell {first} repeats a vertex id")
        raise MeshError(f"cell {first} references a vertex id out of range")


def load_mesh(path):
    """Read a mesh from a JSON file and validate it."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise MeshError(f"cannot read mesh file {path}: {exc}") from exc
    try:
        vertices = data["vertices"]
        cells = data["cells"]
    except (TypeError, KeyError) as exc:
        raise MeshError(f"mesh file {path} lacks required key: {exc}") from exc
    return make_mesh(vertices, cells, data.get("boundary_vertices"))


def save_mesh(mesh, path):
    """Write a mesh as JSON; coordinates survive a round trip bit-exactly."""
    doc = {
        "vertices": [[float(x), float(y)] for x, y in mesh.vertices],
        "cells": [ring.tolist() for ring in mesh.cells],
        "boundary_vertices": np.flatnonzero(mesh.boundary_vertices).tolist(),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def polygon_geometry(coords, forward=None):
    """Geometry of a standalone CCW polygon (no mesh context): row 0 of its
    :class:`GeometryStack`.

    Without mesh context every edge is taken in ring direction
    (``forward=True``) unless explicit flags are given.
    """
    coords = np.asarray(coords, dtype=float)
    if forward is None:
        forward = np.ones(coords.shape[0], dtype=bool)
    geometry = stack_geometry(coords[None], np.asarray(forward)[None])
    if not geometry.area[0] > 0.0:
        raise MeshError("polygon is degenerate or not counterclockwise")
    if np.any(np.all(coords == np.roll(coords, -1, axis=0), axis=1)):
        raise MeshError("polygon has a zero-length edge")
    return take(geometry, 0)


def element_geometry(mesh, cell):
    """Geometry of mesh cell ``cell`` with canonical edge orientations."""
    ring = mesh.cells[cell]
    forward = ring < np.roll(ring, -1)
    return polygon_geometry(mesh.vertices[ring], forward)


@dataclass(frozen=True)
class GeometryStack:
    """Geometry of cells that share a vertex count, one row per cell.

    Row ``i`` is the geometry of cell ``cells[i]`` (``cells`` is ``None``
    for polygons without a mesh); one cell's geometry is a row,
    ``take(stack, i)``, whose arrays have no cell axis.  Edge ``j`` runs
    from ``vertices[j]`` to ``vertices[(j+1) % n]``; normals are outward
    unit vectors.  ``edge_forward[j]`` records whether that ring direction
    agrees with the canonical (ascending global vertex id) edge
    orientation used for edge moment degrees of freedom.
    """

    cells: np.ndarray
    vertices: np.ndarray
    area: np.ndarray
    centroid: np.ndarray
    diameter: np.ndarray
    edge_lengths: np.ndarray
    edge_normals: np.ndarray
    edge_forward: np.ndarray

    def __len__(self):
        return self.vertices.shape[0]

    def label(self, i):
        """How error messages name row ``i``."""
        return "element" if self.cells is None else f"cell {self.cells[i]}"


def take(record, rows):
    """``record``, a stacked record (a :class:`GeometryStack`, or a
    ``ProjectorSet``, ``LocalSystem`` or ``QuadratureRule``), with each of
    its array fields indexed by ``rows``: a row gives that row, a slice or
    an index array a stack of those rows, and ``None`` a stack of one."""
    return replace(record, **{
        f.name: getattr(record, f.name)[rows] for f in fields(record)
        if f.type is np.ndarray and getattr(record, f.name) is not None})


def _row_sum(a):
    # NumPy sums each row of a C-contiguous array exactly as it sums that
    # row on its own, so stacked and per-cell geometry agree bit for bit.
    return np.ascontiguousarray(a).sum(axis=-1)


def stack_geometry(coords, forward, cells=None):
    """Geometry of a stack of CCW rings ``coords`` of shape (C, n, 2).

    ``forward`` (C, n) holds the canonical edge orientations.  Nothing is
    validated here (a degenerate ring gets non-finite entries);
    :func:`polygon_geometry` and the triangulation reject such rings.

    The area and centroid sums run over the vertex offsets from the first
    vertex, so translates whose offsets agree get the same area and the
    same centroid offset, wherever they lie.
    """
    coords = np.asarray(coords, dtype=float)
    offsets = coords - coords[..., :1, :]
    x, y = offsets[..., 0], offsets[..., 1]
    xn, yn = np.roll(x, -1, axis=-1), np.roll(y, -1, axis=-1)
    cross = x * yn - xn * y
    area = 0.5 * _row_sum(cross)
    tang = np.roll(coords, -1, axis=-2) - coords
    lengths = np.hypot(tang[..., 0], tang[..., 1])
    with np.errstate(divide="ignore", invalid="ignore"):
        centroid = coords[..., 0, :] + np.stack(
            [_row_sum((x + xn) * cross) / (6.0 * area),
             _row_sum((y + yn) * cross) / (6.0 * area)], axis=-1)
        normals = (np.stack([tang[..., 1], -tang[..., 0]], axis=-1)
                   / lengths[..., None])
    return GeometryStack(cells, coords, area, centroid, _diameters(coords),
                         lengths, normals, np.asarray(forward, dtype=bool))


def _by_size(ragged):
    """Per row length, ascending: the row ids and their (C, n) rows, of a
    per-cell list of 1-D arrays such as ``mesh.cells``."""
    return _by_count(np.concatenate(ragged),
                     np.array([row.size for row in ragged]))


def _by_count(flat, sizes):
    """Per row length, ascending: the row ids and their (C, n) rows, of
    rows of lengths ``sizes`` concatenated in ``flat``."""
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    for n in np.unique(sizes):
        rows = np.flatnonzero(sizes == n)
        yield rows, flat[offsets[rows][:, None] + np.arange(n)]


def geometry_stacks(mesh):
    """Yield one :class:`GeometryStack` per vertex count, in ascending
    count; each is built when the caller asks for it."""
    for cells, rings in _by_size(mesh.cells):
        forward = rings < np.roll(rings, -1, axis=1)
        yield stack_geometry(mesh.vertices[rings], forward, cells)


def max_diameter(mesh):
    """Largest cell diameter (the mesh size h), equal to the largest
    :func:`element_geometry` diameter bit for bit."""
    return max(float(_diameters(mesh.vertices[rings]).max())
               for _, rings in _by_size(mesh.cells))


def _kernel_chebyshev(coords):
    """Radius of the largest disk centered at the Chebyshev center of the
    visibility kernel (intersection of all edge half-planes).

    Returns 0.0 when the kernel has empty interior.
    """
    from scipy.optimize import linprog

    tang = np.roll(coords, -1, axis=0) - coords
    lengths = np.hypot(tang[:, 0], tang[:, 1])
    normals = np.column_stack([tang[:, 1], -tang[:, 0]]) / lengths[:, None]
    # disk {c, r} inside half-plane n.(x - p) <= 0  <=>  n.c + r <= n.p
    a_ub = np.column_stack([normals, np.ones(len(coords))])
    b_ub = np.sum(normals * coords, axis=1)
    lo = coords.min(axis=0)
    hi = coords.max(axis=0)
    res = linprog(c=[0.0, 0.0, -1.0], A_ub=a_ub, b_ub=b_ub,
                  bounds=[(lo[0], hi[0]), (lo[1], hi[1]), (None, None)],
                  method="highs")
    if not res.success:
        return 0.0
    return max(float(res.x[2]), 0.0)


def regularity_report(mesh):
    """Shape diagnostics for every cell (star-shapedness, edge ratios)."""
    n = mesh.num_cells
    rho = np.empty(n)
    edge_ratio = np.empty(n)
    for ci in range(n):
        geom = element_geometry(mesh, ci)
        rho[ci] = _kernel_chebyshev(geom.vertices) / geom.diameter
        edge_ratio[ci] = geom.edge_lengths.min() / geom.diameter
    non_star = np.flatnonzero(rho <= 1e-12)
    return RegularityReport(rho, edge_ratio, float(rho.min()),
                            float(edge_ratio.min()), non_star)
