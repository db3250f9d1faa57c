"""Polygonal meshes of the unit square: storage, validation, geometry.

A mesh is a vertex table plus the counterclockwise vertex ring of every
cell, stored flat, cell after cell, with the offsets where each starts.
Edges are derived from the rings.  The on-disk format is JSON
with "vertices", "cells" and optional "boundary_vertices" keys.
"""

import json
import reprlib
from dataclasses import dataclass, field, fields, replace
from itertools import combinations, islice
from math import comb
from numbers import Integral

import numpy as np


class MeshError(ValueError):
    """Raised for structurally invalid meshes or degenerate cells."""


def check_count(name, value, low=0):
    """Raise a ``ValueError`` naming ``name`` unless ``value`` is an integer
    (not a boolean) of at least ``low``."""
    if not isinstance(value, Integral) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")


@dataclass
class PolyMesh:
    """Conforming polygonal mesh, its rings stored flat as
    :class:`vemlab.assembly.DofMap` stores its DoFs.

    Attributes
    ----------
    vertices : (N, 2) float array
    rings : int array, every cell's CCW vertex ids, cell after cell; cell
        ``c``'s are ``rings[offsets[c]:offsets[c + 1]]`` (:meth:`ring`)
    offsets : (n_cells + 1,) int array
    boundary_vertices : (N,) bool array
    edge_vertices : (E, 2) int array, canonical (low, high) vertex pairs
    cell_edges : int array, each cell's edge ids in ring order, on offsets
    """

    vertices: np.ndarray
    rings: np.ndarray
    offsets: np.ndarray = field(repr=False)
    boundary_vertices: np.ndarray
    edge_vertices: np.ndarray = field(repr=False)
    cell_edges: np.ndarray = field(repr=False)

    @property
    def num_vertices(self):
        return self.vertices.shape[0]

    @property
    def num_cells(self):
        return self.offsets.size - 1

    @property
    def num_edges(self):
        return self.edge_vertices.shape[0]

    def ring(self, c):
        """Cell ``c``'s vertex ids, counterclockwise.  A ``c`` that is not
        an integer (not a boolean) with 0 <= c < ``num_cells`` raises a
        ``ValueError`` naming the cell."""
        check_count("cell", c)
        if c >= self.num_cells:
            raise ValueError(f"cell must be < {self.num_cells}, got {c}")
        return self.rings[self.offsets[c]:self.offsets[c + 1]]

    def ring_stacks(self):
        """Per vertex count n, ascending: the ids of the cells of n
        vertices and their (C, n) vertex and edge ids."""
        sizes = np.diff(self.offsets)
        for n in np.unique(sizes):
            cells = np.flatnonzero(sizes == n)
            slots = self.offsets[cells, None] + np.arange(n)
            yield cells, self.rings[slots], self.cell_edges[slots]

    def boundary_edges(self):
        """Indices of edges incident to exactly one cell."""
        counts = np.bincount(self.cell_edges, minlength=self.num_edges)
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
    """Signed area and area centroid of a polygon given by its ring: row 0
    of :func:`stack_geometry`."""
    geom = stack_geometry(np.asarray(coords, dtype=float)[None],
                          np.ones((1, len(coords)), dtype=bool))
    return geom.area[0], geom.centroid[0]


def _diameters(coords):
    """Largest vertex-to-vertex distance of each (..., n, 2) ring, one
    vertex against the ring at a time, so the temporaries are (..., n)."""
    x, y = coords[..., 0], coords[..., 1]
    d2 = np.zeros(x.shape[:-1])
    dx, dy = np.empty_like(x), np.empty_like(y)
    for i in range(x.shape[-1]):
        np.subtract(x, x[..., i, None], out=dx)
        np.subtract(y, y[..., i, None], out=dy)
        dx *= dx
        dy *= dy
        dx += dy
        np.maximum(d2, dx.max(axis=-1), out=d2)
    return np.sqrt(d2)


def make_mesh(vertices, cells, boundary_vertices=None):
    """Validate raw arrays and assemble a :class:`PolyMesh`.

    ``cells`` is a list of vertex rings, which is flattened once.  Raises
    :class:`MeshError` for an empty cell list, coordinates that are not
    numbers, vertex ids that are not integers, a ring or a
    ``boundary_vertices`` that is not a flat list of them, short or
    repeating rings, non-CCW cells, edges traversed twice in the same
    direction, which indicates inconsistent orientation or an edge shared
    by more than two cells, and a vertex that no cell uses.
    """
    try:
        cells = iter(cells)
    except TypeError as exc:
        raise MeshError("cells must be a list of vertex rings") from exc
    rings = [_entries(cell, f"cell {i}") for i, cell in enumerate(cells)]
    if not rings:
        raise MeshError("the cell list is empty: a mesh needs at least one cell")
    mesh = _flat_mesh(vertices, np.concatenate(rings),
                      np.cumsum([0, *map(len, rings)]))

    if boundary_vertices is not None:
        ids = _entries(boundary_vertices, "boundary_vertices")
        if np.any((ids < 0) | (ids >= mesh.num_vertices)):
            raise MeshError("boundary_vertices references a vertex id out of "
                            "range")
        if not np.array_equal(np.unique(ids),
                              np.flatnonzero(mesh.boundary_vertices)):
            raise MeshError("boundary_vertices inconsistent with edge incidence")
    return mesh


def _flat_mesh(vertices, rings, offsets):
    """:func:`make_mesh` of a vertex table and flat rings, cell ``c``'s
    vertex ids being ``rings[offsets[c]:offsets[c + 1]]``."""
    vertices = _entries(vertices, "vertex table", "iuf")
    if not np.all(np.isfinite(vertices)):
        raise MeshError("vertex table contains non-finite coordinates")
    n_vert = vertices.shape[0]
    _check_rings(vertices, rings, offsets)

    mesh = PolyMesh(vertices, rings, offsets, np.zeros(n_vert, dtype=bool),
                    *_edge_table(rings, offsets, n_vert))
    used = np.zeros(n_vert, dtype=bool)
    used[mesh.edge_vertices] = True
    if not used.all():
        raise MeshError(f"vertex {np.argmin(used)} is used by no cell")
    mesh.boundary_vertices[mesh.edge_vertices[mesh.boundary_edges()]] = True
    return mesh


def _entries(values, what, kinds="iu"):
    """``values`` as a flat int array of vertex ids (an (n, 2) float array
    of points when ``kinds`` is "iuf"); :class:`MeshError` naming ``what``
    when it is ragged, holds an entry that is not an integer (not a
    number), a boolean at any depth being neither, or has another shape."""
    try:
        out = np.asarray(values)
    except ValueError as exc:
        raise MeshError(f"{what} is ragged") from exc
    if out.size and (out.dtype.kind not in kinds or _holds_bool(values)):
        kind = "an integer" if kinds == "iu" else "a number"
        raise MeshError(f"{what} holds an entry that is not {kind}")
    if kinds == "iu" and out.ndim != 1:
        raise MeshError(f"{what} is not a flat list of vertex ids")
    if kinds == "iuf" and (out.ndim != 2 or out.shape[1] != 2):
        raise MeshError(f"{what} must be an (n, 2) array of points, got "
                        f"shape {out.shape}")
    return out.astype(int if kinds == "iu" else float, copy=False)


def _real(values, name, what, shape=None):
    """``values`` as a finite float array; a ``ValueError`` starting with
    ``name`` when it is ragged, is not ``what``: real numbers (no boolean at
    any depth, no string) of ``shape`` (-1: any length; ``None``: any), or
    is not finite, naming its first such entry."""
    try:
        arr = np.asarray(values)
    except ValueError as exc:
        raise ValueError(f"{name} is ragged") from exc
    real = arr.dtype.kind in "iuf" and not _holds_bool(values)
    if not real or shape is not None and (arr.ndim != len(shape) or any(
            n not in (-1, m) for n, m in zip(shape, arr.shape))):
        got = (reprlib.repr(values) if not isinstance(values, np.ndarray)
               else f"shape {arr.shape}" if real else f"dtype {arr.dtype}")
        raise ValueError(f"{name} must be {what}, got {got}")
    bad = np.argwhere(~np.isfinite(arr))
    if len(bad):
        raise ValueError(f"{name}{bad[0].tolist() if arr.ndim else ''} is "
                         "not finite")
    return arr.astype(float)


def _holds_bool(values):
    """Whether ``values``, a number or a nested sequence of them, is or
    holds a boolean at any depth."""
    if isinstance(values, np.ndarray):
        return values.dtype.kind == "b"
    if isinstance(values, (list, tuple)):
        return any(map(_holds_bool, values))
    return isinstance(values, (bool, np.bool_))


def first_seen(keys):
    """Number the distinct values of ``keys`` in order of first appearance:
    the number of every entry, and where each number first appears."""
    _, first, which = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return rank[which], first[order]


def _edge_table(rings, offsets, n_vert):
    """Edges of valid flat rings: canonical (low, high) vertex pairs
    numbered in order of first appearance, and the edge id of every ring
    slot.

    Directed edges must be unique: a shared edge is traversed once per
    direction by its two cells.  The first edge traversed twice in the same
    direction raises :class:`MeshError`; this also catches every edge shared
    by more than two cells, as the third of them repeats a direction.
    """
    nxt = np.arange(1, rings.size + 1)
    nxt[offsets[1:] - 1] = offsets[:-1]  # wrap to the ring start
    a, b = rings, rings[nxt]
    _, first, which = np.unique(a * n_vert + b, return_index=True,
                                return_inverse=True)
    again = np.flatnonzero(first[which] != np.arange(a.size))
    if again.size:
        p = again[0]
        cells = np.searchsorted(offsets, [first[which[p]], p], side="right") - 1
        raise MeshError(
            f"edge ({a[p]}, {b[p]}) traversed twice in the same direction "
            f"by cells {cells[0]} and {cells[1]}")
    low, high = np.minimum(a, b), np.maximum(a, b)
    edge, first = first_seen(low * n_vert + high)
    return np.column_stack([low, high])[first], edge


def _check_rings(vertices, rings, offsets):
    """Raise :class:`MeshError` naming the first invalid flat ring.

    A ring is checked for length, repeated ids, ids out of range and
    orientation, in that order; each check runs once over all rings.
    """
    n_cells, n_vert = offsets.size - 1, vertices.shape[0]
    short = np.diff(offsets) < 3
    owner = np.repeat(np.arange(n_cells), np.diff(offsets))
    order = np.lexsort((rings, owner))
    twice = (np.diff(owner[order]) == 0) & (np.diff(rings[order]) == 0)
    repeats = np.bincount(owner[order][1:][twice], minlength=n_cells) > 0
    outside = np.bincount(owner[(rings < 0) | (rings >= n_vert)],
                          minlength=n_cells) > 0
    bad = short | repeats | outside
    first = int(np.argmax(bad)) if bad.any() else n_cells
    if first:
        # shoelace areas of the rings before the first malformed one
        nxt = np.arange(1, offsets[first] + 1)
        nxt[offsets[1:first + 1] - 1] = offsets[:first]  # wrap to ring starts
        x, y = vertices[rings[:offsets[first]]].T
        area = 0.5 * np.add.reduceat(x * y[nxt] - x[nxt] * y, offsets[:first])
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
    if not isinstance(data, dict):
        raise MeshError(f'mesh file {path} is not a JSON object with '
                        f'"vertices" and "cells"')
    try:
        vertices = data["vertices"]
        cells = data["cells"]
    except KeyError as exc:
        raise MeshError(f"mesh file {path} lacks required key: {exc}") from exc
    return make_mesh(vertices, cells, data.get("boundary_vertices"))


def save_mesh(mesh, path):
    """Write a mesh as JSON; coordinates survive a round trip bit-exactly."""
    rings, offsets = mesh.rings.tolist(), mesh.offsets.tolist()
    doc = {
        "vertices": [[float(x), float(y)] for x, y in mesh.vertices],
        "cells": [rings[lo:hi] for lo, hi in zip(offsets, offsets[1:])],
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
    coords = _entries(coords, "coords", "iuf")
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
    ring = mesh.ring(cell)
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


def geometry_stacks(mesh):
    """Yield one :class:`GeometryStack` per vertex count, in ascending
    count; each is built when the caller asks for it."""
    for cells, rings, _ in mesh.ring_stacks():
        forward = rings < np.roll(rings, -1, axis=1)
        yield stack_geometry(mesh.vertices[rings], forward, cells)


def max_diameter(mesh):
    """Largest cell diameter (the mesh size h), equal to the largest
    :func:`element_geometry` diameter bit for bit."""
    return max(float(_diameters(mesh.vertices[rings]).max())
               for _, rings, _ in mesh.ring_stacks())


#: bytes of working memory for one block of (cell, edge triple) pairs, of
#: which each takes about 16 n + 320 bytes on n-gons (by tracemalloc)
_KERNEL_BYTES = 1 << 24


def regularity_report(mesh):
    """Shape diagnostics for every cell: rho, the radius of the largest disk
    in its visibility kernel (0 when the kernel has no interior), and its
    shortest edge, each over its diameter.  A disk (c, r) lies in the kernel
    when n_i.c + r <= n_i.p_i on every edge i, and the largest one touches
    three edges: each vertex-count stack solves every triple of edges, in
    blocks of (cell, triple) pairs that fit in ``_KERNEL_BYTES``."""
    rho, edge_ratio = np.empty(mesh.num_cells), np.empty(mesh.num_cells)
    for g in geometry_stacks(mesh):
        c, n = g.edge_lengths.shape
        a = np.dstack([g.edge_normals, np.ones((c, n))])
        b = np.sum(g.edge_normals * g.vertices, axis=2)
        tol = -1e-12 * np.abs(g.vertices).max(axis=(1, 2))[:, None, None]
        pairs = max(1, _KERNEL_BYTES // (16 * n + 320))
        size = min(pairs, comb(n, 3))
        step = pairs // size  # cells per block
        r, triples = np.zeros(c), combinations(range(n), 3)
        while (t := np.array(list(islice(triples, size)))).size:
            for i in (slice(lo, lo + step) for lo in range(0, c, step)):
                m = a[i, t]
                ok = np.abs(np.linalg.det(m)) > 1e-12  # the normals are unit
                x = np.linalg.solve(np.where(ok[..., None, None], m, np.eye(3)),
                                    b[i, t, None])[..., 0]
                fits = ok & np.all(b[i, None] - x @ np.swapaxes(a[i], 1, 2)
                                   >= tol[i], axis=2)
                r[i] = np.maximum(r[i], np.where(fits, x[..., 2], 0).max(axis=1))
        rho[g.cells] = r / g.diameter
        edge_ratio[g.cells] = g.edge_lengths.min(axis=1) / g.diameter
    non_star = np.flatnonzero(rho <= 1e-12)
    return RegularityReport(rho, edge_ratio, float(rho.min()),
                            float(edge_ratio.min()), non_star)
