"""Polygonal meshes of the unit square: storage, validation, geometry.

A mesh is a flat vertex table plus counterclockwise vertex rings, one per
cell.  Edge adjacency is derived, never stored.  The on-disk format is JSON
with "vertices", "cells" and optional "boundary_vertices" keys.
"""

import json
from dataclasses import dataclass, field

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
    edge_cells : list of lists, cells incident to each edge (1 or 2)
    cell_edges : list of int arrays, edge ids in ring order per cell
    """

    vertices: np.ndarray
    cells: list
    boundary_vertices: np.ndarray
    edge_vertices: np.ndarray = field(repr=False)
    edge_cells: list = field(repr=False)
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
        return np.array([e for e, cs in enumerate(self.edge_cells) if len(cs) == 1], dtype=int)

    @property
    def boundary_edge_list(self):
        """(cell, local edge) pairs lying on the domain boundary."""
        out = []
        for ci, ids in enumerate(self.cell_edges):
            for le, e in enumerate(ids):
                if len(self.edge_cells[e]) == 1:
                    out.append((ci, le))
        return out


@dataclass
class ElementGeometry:
    """Derived geometry of one polygonal cell.

    Edge ``i`` runs from ``vertices[i]`` to ``vertices[(i+1) % n]``; normals
    are outward unit vectors.  ``edge_forward[i]`` records whether that ring
    direction agrees with the canonical (ascending global vertex id) edge
    orientation used for edge moment degrees of freedom.
    """

    vertices: np.ndarray
    area: float
    centroid: np.ndarray
    diameter: float
    edge_lengths: np.ndarray
    edge_normals: np.ndarray
    edge_forward: np.ndarray

    @property
    def num_vertices(self):
        return self.vertices.shape[0]


@dataclass
class RegularityReport:
    """Shape-regularity diagnostics; informative, never a gate."""

    rho: np.ndarray            # per cell: kernel disk radius / diameter
    edge_ratio: np.ndarray     # per cell: min edge length / diameter
    min_rho: float
    min_edge_ratio: float
    non_star_cells: np.ndarray  # cells whose visibility kernel has no interior


def _signed_area(coords):
    x, y = coords[:, 0], coords[:, 1]
    return 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)


def polygon_area_centroid(coords):
    """Signed area and area centroid of a polygon given by its ring."""
    x, y = coords[:, 0], coords[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    cross = x * yn - xn * y
    area = 0.5 * np.sum(cross)
    cx = np.sum((x + xn) * cross) / (6.0 * area)
    cy = np.sum((y + yn) * cross) / (6.0 * area)
    return area, np.array([cx, cy])


def polygon_diameter(coords):
    """Largest distance between two vertices of a polygon."""
    return float(_diameters(np.asarray(coords)[None])[0])


def _diameters(coords):
    diff = coords[:, :, None, :] - coords[:, None, :, :]
    return np.sqrt((diff ** 2).sum(-1).max(axis=(-2, -1)))


def make_mesh(vertices, cells, boundary_vertices=None):
    """Validate raw arrays and assemble a :class:`PolyMesh`.

    Raises :class:`MeshError` for short or repeating rings, non-CCW cells,
    and edges shared by more than two cells (or traversed twice in the same
    direction, which indicates inconsistent orientation).
    """
    vertices = np.asarray(vertices, dtype=float)
    if vertices.ndim != 2 or vertices.shape[1] != 2:
        raise MeshError("vertex table must have shape (N, 2)")
    if not np.all(np.isfinite(vertices)):
        raise MeshError("vertex table contains non-finite coordinates")
    n_vert = vertices.shape[0]

    rings = []
    for ci, cell in enumerate(cells):
        ring = np.asarray(cell, dtype=int)
        if ring.ndim != 1 or ring.size < 3:
            raise MeshError(f"cell {ci} has fewer than 3 vertices")
        if len(set(ring.tolist())) != ring.size:
            raise MeshError(f"cell {ci} repeats a vertex id")
        if ring.min() < 0 or ring.max() >= n_vert:
            raise MeshError(f"cell {ci} references a vertex id out of range")
        if _signed_area(vertices[ring]) <= 0.0:
            raise MeshError(f"cell {ci} is not counterclockwise (or degenerate)")
        rings.append(ring)

    # Derive the edge table.  Directed edges must be unique: a shared edge is
    # traversed once per direction by its two incident cells.
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
                    f"by cells {directed_seen[(a, b)]} and {ci}"
                )
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
                        f"non-manifold edge {key}: shared by cells {edge_cells[e]}"
                    )
            ids[j] = e
        cell_edges.append(ids)

    derived = np.zeros(n_vert, dtype=bool)
    for e, cs in enumerate(edge_cells):
        if len(cs) == 1:
            derived[list(edge_verts[e])] = True

    if boundary_vertices is not None:
        flags = np.zeros(n_vert, dtype=bool)
        flags[np.asarray(boundary_vertices, dtype=int)] = True
        if not np.array_equal(flags, derived):
            raise MeshError("boundary_vertices inconsistent with edge incidence")
    edge_vertices = np.array(edge_verts, dtype=int).reshape(-1, 2)
    return PolyMesh(vertices, rings, derived, edge_vertices, edge_cells, cell_edges)


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
    """Geometry of a standalone CCW polygon (no mesh context).

    Without mesh context every edge is taken in ring direction
    (``forward=True``) unless explicit flags are given.
    """
    coords = np.asarray(coords, dtype=float)
    if not _signed_area(coords) > 0.0:
        raise MeshError("polygon is degenerate or not counterclockwise")
    if np.any(np.all(coords == np.roll(coords, -1, axis=0), axis=1)):
        raise MeshError("polygon has a zero-length edge")
    if forward is None:
        forward = np.ones(coords.shape[0], dtype=bool)
    return stack_geometry(coords[None], np.asarray(forward)[None]).element(0)


def element_geometry(mesh, cell):
    """Geometry of mesh cell ``cell`` with canonical edge orientations."""
    ring = mesh.cells[cell]
    forward = ring < np.roll(ring, -1)
    return polygon_geometry(mesh.vertices[ring], forward)


@dataclass(frozen=True)
class GeometryStack:
    """Geometry of cells that share a vertex count, one row per cell.

    Row ``i`` holds what :class:`ElementGeometry` holds for cell
    ``cells[i]`` (``cells`` is ``None`` for polygons without a mesh), with
    the same arithmetic, so ``element(i)`` equals the per-cell geometry bit
    for bit.
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

    def element(self, i):
        return ElementGeometry(self.vertices[i], float(self.area[i]),
                               self.centroid[i], float(self.diameter[i]),
                               self.edge_lengths[i], self.edge_normals[i],
                               self.edge_forward[i])

    def take(self, rows):
        """The stack of the given rows."""
        return GeometryStack(
            None if self.cells is None else self.cells[rows],
            *(getattr(self, f)[rows] for f in (
                "vertices", "area", "centroid", "diameter", "edge_lengths",
                "edge_normals", "edge_forward")))


def _row_sum(a):
    # NumPy sums each row of a C-contiguous array exactly as it sums that
    # row on its own, so stacked and per-cell geometry agree bit for bit.
    return np.ascontiguousarray(a).sum(axis=-1)


def stack_geometry(coords, forward, cells=None):
    """Geometry of a stack of CCW rings ``coords`` of shape (C, n, 2).

    ``forward`` (C, n) holds the canonical edge orientations.  Nothing is
    validated here (a degenerate ring gets non-finite entries);
    :func:`polygon_geometry` and the triangulation reject such rings.
    """
    coords = np.asarray(coords, dtype=float)
    x, y = coords[..., 0], coords[..., 1]
    xn, yn = np.roll(x, -1, axis=-1), np.roll(y, -1, axis=-1)
    cross = x * yn - xn * y
    area = 0.5 * _row_sum(cross)
    tang = np.roll(coords, -1, axis=-2) - coords
    lengths = np.hypot(tang[..., 0], tang[..., 1])
    with np.errstate(divide="ignore", invalid="ignore"):
        centroid = np.stack([_row_sum((x + xn) * cross) / (6.0 * area),
                             _row_sum((y + yn) * cross) / (6.0 * area)],
                            axis=-1)
        normals = (np.stack([tang[..., 1], -tang[..., 0]], axis=-1)
                   / lengths[..., None])
    return GeometryStack(cells, coords, area, centroid, _diameters(coords),
                         lengths, normals, np.asarray(forward, dtype=bool))


def geometry_stacks(mesh):
    """One :class:`GeometryStack` per vertex count, in ascending count."""
    sizes = np.array([ring.size for ring in mesh.cells])
    flat = np.concatenate(mesh.cells)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    stacks = []
    for n in np.unique(sizes):
        cells = np.flatnonzero(sizes == n)
        rings = flat[offsets[cells][:, None] + np.arange(n)]
        forward = rings < np.roll(rings, -1, axis=1)
        stacks.append(stack_geometry(mesh.vertices[rings], forward, cells))
    return stacks


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
