"""Element-local machinery: degrees of freedom, projectors, local forms.

A degree-k element on an n_V-gon carries n_V vertex values, (k-1) moments
per edge against scaled arclength powers (divided by |e|), and the internal
moments against scaled monomials of degree <= k-2 (divided by |E|), in that
order (:func:`element_layout`).  All projectors are built from those data
alone: boundary terms use the per-edge polynomial trace reconstruction,
interior terms read the internal moments directly.

The projectors (:class:`ProjectorSet`) and local forms
(:class:`LocalSystem`) of a whole stack of cells that share a vertex count
are built in stacked NumPy calls, one leading row per class or cell, and an
:class:`ElementStack` holds one of each.  :func:`_stack_elements` runs
them on one stack in memory-bounded chunks, building the projectors once
per shape class (:func:`shape_classes`: translates of each other; any other
cell is a class of one); :func:`mesh_elements` runs it on a mesh, and the
one-element functions (a polygon and k) take row 0 of a stack of one.
Interpolation runs on :func:`skeleton_dofs`.
"""

from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .basis import (QuadratureRule, _duffy_rule, _gauss, edge_reconstruction,
                    gram, map_rule, monomial_derivatives, monomial_values,
                    n_poly, star_shaped, triangulate_stack)
from .basis import polygon_quadrature  # noqa: F401  (perfbench/spans.py hook target)
from .mesh import (GeometryStack, _real, _row_sum, check_count,
                   geometry_stacks, take)


@dataclass(frozen=True)
class DofLayout:
    """Slot bookkeeping for one element: vertex, edge, internal blocks."""

    k: int
    n_vertices: int
    n_per_edge: int
    n_internal: int
    n_dofs: int

    def vertex_slot(self, v):
        return v

    def edge_slot(self, e, j):
        return self.n_vertices + e * self.n_per_edge + j


@lru_cache(maxsize=None)
def element_layout(nv, k):
    """The :class:`DofLayout` of the degree-``k`` element on an ``nv``-gon."""
    return DofLayout(k=k, n_vertices=nv, n_per_edge=k - 1,
                     n_internal=n_poly(k - 2), n_dofs=nv * k + n_poly(k - 2))


def dof_layout(geom, k):
    check_degree(k)
    return element_layout(geom.vertices.shape[0], k)


@dataclass
class ProjectorSet:
    """Projector matrices mapping local DoF vectors to polynomial coefficients.

    ``PiNabla`` and ``Pi0k`` map onto degree-k coefficients, ``Pi0km1`` and
    the gradient pair onto degree-(k-1) coefficients.  ``D`` holds the DoFs
    of the monomials (one row per DoF) and ``H`` their mass matrix.
    ``rule_values`` is the table of ``basis.monomial_values`` on the points
    of the quadrature rule that built ``H``.  In an :class:`ElementStack`
    every array has a leading row per shape class; :func:`projector_set`
    gives one element's.
    """

    k: int
    PiNabla: np.ndarray
    Pi0k: np.ndarray
    Pi0km1: np.ndarray
    Pi0GradX: np.ndarray
    Pi0GradY: np.ndarray
    D: np.ndarray
    H: np.ndarray
    rule_values: np.ndarray


@dataclass(frozen=True)
class ElementBank:
    """What post-processing needs of each cell of ``mesh``, kept from one
    degree-``k`` build.

    ``chunks`` holds the :class:`ElementStack` of each chunk of
    :func:`mesh_elements` with ``projectors`` and ``forms`` set to ``None``.
    The chunks of a group share its ``operators`` object and come in a
    row, and its representatives lead its first chunk, in class order.
    The bank keeps no index from cell to chunk.
    """

    mesh: object = field(repr=False)
    k: int
    chunks: tuple


@dataclass
class LocalSystem:
    """Local discrete forms: Ah includes the stabilization S.

    In an :class:`ElementStack` every array has a leading row per cell;
    :func:`local_system` gives one element's.
    """

    Ah: np.ndarray
    Bh: np.ndarray
    Ch: np.ndarray
    S: np.ndarray
    f_loc: np.ndarray

    @property
    def matrix(self):
        return self.Ah + self.Bh + self.Ch


@dataclass(frozen=True)
class Coefficients:
    """Problem data: diffusion tensor, advection field, reaction, source.

    Every callable takes coordinate arrays (x, y) and returns values
    broadcastable to (n, ...): kappa to (n, 2, 2), b to (n, 2), gamma and
    f to (n,).
    """

    kappa: callable
    b: callable
    gamma: callable
    f: callable

    @staticmethod
    def constant(kappa=1.0, b=(0.0, 0.0), gamma=0.0, f=0.0):
        kap = _real(kappa, "constant kappa", "real")
        kap = kap * np.eye(2) if kap.ndim == 0 else kap
        if kap.shape != (2, 2):
            raise ValueError("constant kappa must be a scalar or 2x2, got "
                             f"shape {kap.shape}")
        for what, bad in _not_spd(kap).items():
            if bad:
                raise ValueError(f"constant kappa is not {what}")
        bvec = _real(b, "constant b", "real")
        if bvec.shape not in ((), (2,)):
            raise ValueError("constant b must be a scalar or a 2-vector, "
                             f"got shape {bvec.shape}")
        g, s = (float(_real(value, f"constant {name}", "a real scalar", ()))
                for name, value in (("gamma", gamma), ("f", f)))
        return Coefficients(
            kappa=lambda x, y: kap,
            b=lambda x, y: bvec,
            gamma=lambda x, y: np.full(np.shape(x), g),
            f=lambda x, y: np.full(np.shape(x), s))

    def kappa_at(self, pts):
        return _at("kappa", self.kappa, pts, (2, 2))

    def b_at(self, pts):
        return _at("b", self.b, pts, (2,))

    def gamma_at(self, pts):
        return _at("gamma", self.gamma, pts, ())

    def f_at(self, pts):
        return _at("f", self.f, pts, ())


def _at(name, fn, pts, shape=()):
    """The values of the function ``name``, ``fn(x, y)``, at ``pts``
    (..., 2), broadcast to ``pts.shape[:-1] + shape``; a ValueError names
    it if they do not."""
    arr = np.asarray(fn(pts[..., 0], pts[..., 1]), dtype=float)
    shape = pts.shape[:-1] + shape
    try:
        return np.broadcast_to(arr, shape)
    except ValueError:
        raise ValueError(f"{name} returned shape {arr.shape} at "
                         f"{pts[..., 0].size} points, expected {shape}"
                         ) from None


@dataclass
class ElementStack:
    """What :func:`mesh_elements` yields for a chunk of cells.

    ``triangles`` (C, T, 3, 2) are what each cell's rule was mapped onto.
    ``projectors`` has one row per shape class: cell i takes row
    ``classes[i]``, and so of ``operators``, their ``[Pi0k; Pi0GradX;
    Pi0GradY]`` stacked by rows.  ``forms`` has one row per cell, and is
    ``None`` when no coefficients were given.
    """

    k: int
    geometry: GeometryStack
    triangles: np.ndarray
    classes: np.ndarray
    projectors: ProjectorSet = None
    forms: LocalSystem = None
    operators: np.ndarray = None


def _t(a):
    return np.swapaxes(a, -1, -2)


@lru_cache(maxsize=None)
def _trace_tables(nv, k):
    """Trace tables of the DoF basis on the Gauss points of every edge.

    Entry [e, forward, q, i] is the trace polynomial of local basis function
    i at Gauss point q of edge e.  The trace on an edge is the unique P_k(e)
    polynomial matching the two endpoint values and the k - 1 edge moments;
    the scaled arclength t runs from -1 to +1 in the direction of ascending
    global vertex index, so the table depends on whether the ring direction
    (``forward``) agrees with it.
    """
    layout = element_layout(nv, k)
    t, _ = _gauss(k + 1)
    # column c: the trace of edge data c (start value, end value, moments)
    traces = np.vander(t, k + 1, increasing=True) @ edge_reconstruction(k)
    # the slots of those data on edge e, which starts at e + 1 when the
    # ring runs against the canonical direction (forward = 0)
    e = np.arange(nv)
    start = layout.vertex_slot(np.column_stack([(e + 1) % nv, e]))
    slots = np.concatenate([
        start[..., None], start[:, ::-1, None],
        np.broadcast_to(layout.edge_slot(e[:, None, None], np.arange(k - 1)),
                        (nv, 2, k - 1))], axis=2)
    out = np.zeros((nv, 2, k + 1, layout.n_dofs))
    out[e[:, None, None], np.arange(2)[:, None], :, slots] = _t(traces)
    out.flags.writeable = False
    return out


def _linalg(fn, what, geometry, *arrays,
            cause="element geometry is degenerate"):
    """``fn`` (a stacked ``np.linalg`` routine) on ``arrays``; when it fails,
    the error names the first cell of the stack it fails on, and ``cause``."""
    try:
        return fn(*arrays)
    except np.linalg.LinAlgError as exc:
        for i in range(len(arrays[0])):
            try:
                fn(*(a[i] for a in arrays))
            except np.linalg.LinAlgError:
                raise np.linalg.LinAlgError(
                    f"{geometry.label(i)}: {what} system is singular; "
                    f"{cause}") from exc
        raise


def _check_finite(geometry, **fields):
    """Raise ValueError naming the first cell and field that is not finite
    at a quadrature point (each array has shape (C, Q, ...))."""
    for name, values in fields.items():
        bad = ~np.isfinite(values).reshape(len(values), -1).all(axis=1)
        if bad.any():
            raise ValueError(f"{geometry.label(np.argmax(bad))}: {name} is "
                             "not finite at a quadrature point")


def _not_spd(kap):
    """Where the 2x2 matrices ``kap`` (..., 2, 2) are not symmetric, and
    where not positive definite, keyed by what they are not."""
    (k00, k01), (k10, k11) = np.moveaxis(kap, (-2, -1), (0, 1))
    return {"symmetric": abs(k01 - k10) > 1e-12 * (abs(k00) + abs(k11)),
            "positive definite": ~((k00 > 0) & (k00 * k11 - k01 * k10 > 0))}


def _check_kappa(kap, geometry):
    """Raise ValueError unless kappa is symmetric positive definite at every
    quadrature point of the stack (kap has shape (C, Q, 2, 2))."""
    for what, bad in _not_spd(kap).items():
        if bad.any():
            i = np.flatnonzero(bad.any(axis=1))[0]
            raise ValueError(f"{geometry.label(i)}: kappa is not {what} at a "
                             "quadrature point")


#: The consistency-term variants of the diffusion form.
MODES = ("standard", "grad_pinabla")


def check_mode(mode):
    """Raise ValueError unless ``mode`` is one of :data:`MODES`."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")


def check_degree(k):
    """Raise ValueError unless ``k`` is an integer, not a boolean, >= 1."""
    check_count("k", k, 1)


def rule_degree(k):
    """Degree of the quadrature rule of every degree-k element.

    The mass matrix of the degree-k monomials has degree 2k, and the
    coefficients of the local forms get two degrees more: 2k + 2.
    """
    return 2 * k + 2


def smooth_rule_degree(k):
    """Degree of the rule that integrates a smooth function against the
    degree-k space: the internal moments of interpolation and the error
    norms, 2k + 4, two degrees above :func:`rule_degree`.
    """
    return 2 * k + 4


def _projectors(geometry, k, rule):
    """The :class:`ProjectorSet` of a stack of cells, each a class of its
    own, on ``rule`` (points (C, Q, 2), weights (C, Q)).  Each cell takes a
    one-cell call's arithmetic in stacked ``matmul`` and ``linalg.solve``
    calls, so stacking does not change a cell's bits."""
    n_cells, nv = geometry.vertices.shape[:2]
    nk, nkm1, nkm2 = n_poly(k), n_poly(k - 1), n_poly(k - 2)
    nd = element_layout(nv, k).n_dofs
    first_int = nd - nkm2
    area = geometry.area[:, None, None]
    lengths, normals = geometry.edge_lengths, geometry.edge_normals
    perimeter = _row_sum(lengths)[:, None]

    rule_values = monomial_values(geometry, rule.points, k)
    H = gram(rule_values, rule.weights)
    Hm1 = H[:, :nkm1, :nkm1]

    # Gauss points of every edge, from its start to its end vertex in the
    # canonical direction; one value table on the vertices and every edge
    # point.
    t_std, w_std = _gauss(k + 1)
    forward = geometry.edge_forward
    ring = geometry.vertices
    ahead = np.roll(ring, -1, axis=1)
    start = np.where(forward[..., None], ring, ahead)[:, :, None, :]
    end = np.where(forward[..., None], ahead, ring)[:, :, None, :]
    edge_pts = (0.5 * (start + end) + 0.5 * (t_std[:, None] * (end - start))
                ).reshape(n_cells, nv * (k + 1), 2)
    wts = w_std * lengths[..., None] / 2
    traces = _trace_tables(nv, k)[np.arange(nv), forward.astype(np.intp)]
    V = monomial_values(geometry, np.concatenate([ring, edge_pts], axis=1), k)
    V_edge = V[:, nv:].reshape(n_cells, nv, k + 1, nk)

    # DoFs of the monomials, one row per DoF.  Each per-edge product below
    # is batched over (cell, edge[, moment]) with the shapes of a one-edge
    # product, so it keeps that product's bits.
    D = np.zeros((n_cells, nd, nk))
    D[:, :nv] = V[:, :nv]
    powers = np.array([t_std ** j for j in range(k - 1)]).reshape(k - 1, k + 1)
    moment_rows = ((wts[:, :, None, :] * powers)[..., None, :]
                   @ V_edge[:, :, None])[..., 0, :]
    D[:, nv:first_int] = (moment_rows / lengths[:, :, None, None]).reshape(
        n_cells, nv * (k - 1), nk)
    # the internal-moment DoF basis is the computational basis
    D[:, first_int:] = H[:, :nkm2] / area

    # Moments (m, d v / dx) and (m, d v / dy), m in P_{k-1}, by parts:
    # interior term from the internal moments (the derivative of a P_{k-1}
    # monomial stays within degree k-2), boundary term from the trace
    # reconstruction.  They are the projected gradient's right-hand side,
    # and the energy projector's too: the gradient of a P_k monomial lies in
    # (P_{k-1})^2, so (grad m, grad v) = Dx^T rx + Dy^T ry, whose first row
    # the boundary-mean closure replaces.
    Dx, Dy = monomial_derivatives(geometry, k)
    rx = np.zeros((n_cells, nkm1, nd))
    ry = np.zeros((n_cells, nkm1, nd))
    # the internal-moment DoF basis is the computational basis
    for r, d in zip((rx, ry), monomial_derivatives(geometry, k - 1)):
        r[:, :, first_int:] -= area * _t(d)
    nx, ny = normals[..., 0, None, None], normals[..., 1, None, None]
    moment = _t(V_edge[..., :nkm1]) @ (wts[..., None] * traces)
    mean_dof = (wts[:, :, None, :] @ traces)[:, :, 0] / perimeter[:, None]
    # sums over the edges, in ring order
    rx += (nx * moment).sum(axis=1)
    ry += (ny * moment).sum(axis=1)
    B = _t(Dx) @ rx + _t(Dy) @ ry
    B[:, 0] = mean_dof.sum(axis=1)
    # B @ D is the energy matrix G (the monomials' gradient Gram with its
    # first row replaced by their boundary means) up to quadrature roundoff.
    # Solving against it makes the polynomial-consistency identity hold to
    # solver precision; the Newton polish then squares the remaining
    # idempotence defect, which matters on sliver cells where the monomial
    # Gram is badly conditioned.
    PiNabla = _linalg(np.linalg.solve, "energy projector", geometry,
                      B @ D, B)
    PiNabla += (np.eye(nk) - PiNabla @ D) @ PiNabla

    # L2 projectors: exact moments up to k-2, energy-projected above.
    mu = np.zeros((n_cells, nk, nd))
    # the internal-moment DoF basis is the computational basis
    mu[:, :nkm2, first_int:] = area * np.eye(nkm2)
    mu[:, nkm2:] = H[:, nkm2:] @ PiNabla
    Pi0k = _linalg(np.linalg.solve, "L2 projector mass", geometry, H, mu)
    Pi0k += (np.eye(nk) - Pi0k @ D) @ Pi0k
    # the three systems of the degree-(k-1) mass matrix in one solve
    Pi0km1, Pi0GradX, Pi0GradY = np.split(_linalg(
        np.linalg.solve, "L2 projector mass", geometry, Hm1,
        np.concatenate([mu[:, :nkm1], rx, ry], axis=2)), 3, axis=2)
    Pi0km1 += (np.eye(nkm1) - Pi0km1 @ D[:, :, :nkm1]) @ Pi0km1
    Pi0GradX += (Dx - Pi0GradX @ D) @ Pi0k
    Pi0GradY += (Dy - Pi0GradY @ D) @ Pi0k

    return ProjectorSet(k=k, PiNabla=PiNabla, Pi0k=Pi0k, Pi0km1=Pi0km1,
                        Pi0GradX=Pi0GradX, Pi0GradY=Pi0GradY, D=D, H=H,
                        rule_values=rule_values)


def _form_tables(geometry, proj, mode):
    """What the local forms take of each row of the :class:`ProjectorSet`
    ``proj``, built on ``geometry``, with neither coefficients nor rule
    weights: ``(values, products, P, grad, grad_a, MtM)``.

    The Grams are taken in the monomials orthonormalised by the Cholesky
    factor L of their mass matrix (values L^-1 m on the rule points,
    coefficients L^T c).  Grams of the raw monomials would square the mass
    matrix's condition number in the roundoff of the forms (2e-12 to 3e-11
    of the max-norm on lloyd0 cells at k = 4, against 3e-14 this way).
    ``products`` holds the products v_a v_b of those values on the rule
    points, a <= b in row-major order (:func:`_pairs`).  ``P`` and ``grad`` are the degree-(k-1) L2 projector and projected
    gradient in that basis, ``grad_a`` the gradient the diffusion form
    takes in ``mode``, and ``MtM`` the stabilisation's (I - D PiNabla)^T
    (I - D PiNabla).  For k = 1 the gradient of the energy projection that
    mode ``grad_pinabla`` takes is the projected gradient identically, so
    both modes take the standard path.
    """
    k = proj.k
    nd = proj.D.shape[1]
    m = n_poly(k - 1)
    L = _linalg(np.linalg.cholesky, "L2 projector mass", geometry,
                proj.H[:, :m, :m])
    Lt = _t(L)
    values = np.linalg.inv(L) @ _t(proj.rule_values[:, :, :m])  # (C, m, Q)
    # row by row of the pairs, so no (C, m(m+1)/2, Q) temporary is formed
    products = np.empty((len(values), m * (m + 1) // 2, values.shape[2]))
    start = 0
    for a in range(m):
        products[:, start:start + m - a] = values[:, a, None] * values[:, a:]
        start += m - a
    P = Lt @ proj.Pi0km1
    grad = np.concatenate([Lt @ proj.Pi0GradX, Lt @ proj.Pi0GradY], axis=1)
    if mode == "grad_pinabla" and k > 1:
        Dx, Dy = monomial_derivatives(geometry, k)
        grad_a = np.concatenate([Lt @ (Dx @ proj.PiNabla),
                                 Lt @ (Dy @ proj.PiNabla)], axis=1)
    else:
        grad_a = grad
    M = np.eye(nd) - proj.D @ proj.PiNabla
    return values, products, P, grad, grad_a, _t(M) @ M


@lru_cache(maxsize=None)
def _pairs(m):
    """The position of every entry of an (m, m) symmetric matrix among its
    entries a <= b, taken in row-major order."""
    a, b = np.triu_indices(m)
    index = np.empty((m, m), dtype=np.intp)
    index[a, b] = index[b, a] = np.arange(a.size)
    return index


def _class_products(weights, table, classes):
    """``weights`` (C, J, Q) times each cell's class row of ``table``
    (R, N, Q), transposed: (C, J, N), one (J, Q) by (Q, N) product per
    cell, so a cell's bits do not depend on the other cells of the chunk.
    Where the chunk's cells share classes, each class row is read in place
    rather than copied for every cell."""
    present = np.unique(classes)
    if present.size == classes.size:
        return weights @ _t(table[classes])
    out = np.empty(weights.shape[:2] + table.shape[1:2])
    for r in present:
        cells = classes == r
        out[cells] = weights[cells] @ _t(table[r])
    return out


def _local_forms(out, rule, coeffs, tables):
    """The :class:`LocalSystem` of the cells of the :class:`ElementStack`
    ``out``.

    Entry [i, j] of each matrix is the form evaluated with trial function j
    and test function i.  The coefficients are evaluated once on every
    quadrature point of the stack and checked there.  Every form pairs
    degree-(k-1) projections, so each is a coefficient-weighted Gram of a
    basis of P_{k-1} sandwiched between projector matrices.  The seven
    coefficient weights of each cell, times the transposed table of its
    class's basis products, give all seven Grams in one product per cell,
    and no table of quadrature points by DoFs is formed.  ``tables`` holds
    :func:`_form_tables` per class row of ``out.projectors``, and each cell
    pairs its own coefficients, at its own rule points, with its class's
    tables.
    """
    k, geometry = out.k, out.geometry
    m = n_poly(k - 1)
    w, pts = rule.weights, rule.points
    n_cells = len(w)
    kap, b = coeffs.kappa_at(pts), coeffs.b_at(pts)
    gam, f = coeffs.gamma_at(pts), coeffs.f_at(pts)
    _check_finite(geometry, kappa=kap, b=b, gamma=gam, f=f)
    _check_kappa(kap, geometry)

    # grams[:, j, p] = sum_q w c_j v_a v_b for the weights c_j = kappa00,
    # kappa01, kappa10, kappa11, b0, b1, gamma and the pairs p = (a, b)
    wc = w[:, None] * np.stack(
        [kap[..., 0, 0], kap[..., 0, 1], kap[..., 1, 0], kap[..., 1, 1],
         b[..., 0], b[..., 1], gam], axis=1)
    grams = _class_products(wc, tables[1], out.classes)[..., _pairs(m)]
    # [[K00, K01], [K10, K11]] and [Kb0; Kb1]
    K = grams[:, :4].reshape(n_cells, 2, 2, m, m).transpose(
        0, 1, 3, 2, 4).reshape(n_cells, 2 * m, 2 * m)
    Kb = grams[:, 4:6].reshape(n_cells, 2 * m, m)
    Kg = grams[:, 6]
    P, grad, grad_a, MtM = (t[out.classes] for t in tables[2:])

    Acons = _t(grad_a) @ (K @ grad_a)
    kap_trace = w[:, None, :] @ (kap[..., 0, 0] + kap[..., 1, 1])[..., None]
    sigma = kap_trace[:, 0, 0] / (2 * geometry.area)
    S = sigma[:, None, None] * MtM
    S = 0.5 * (S + _t(S))
    Ah = Acons + S
    Ah = 0.5 * (Ah + _t(Ah))

    # Advection couples the projected trial function to the projected
    # gradient of the test function (row index), hence non-symmetric.
    Bh = -(_t(grad) @ (Kb @ P))

    Ch = _t(P) @ (Kg @ P)
    Ch = 0.5 * (Ch + _t(Ch))

    f_basis = _class_products((w * f)[:, None], tables[0], out.classes)
    f_loc = (_t(P) @ _t(f_basis))[..., 0]
    return LocalSystem(Ah=Ah, Bh=Bh, Ch=Ch, S=S, f_loc=f_loc)


#: Working memory one stacked call may use, counted by :func:`cell_bytes`.
#: Stacks are cut into chunks of cells that fit, so the peak memory does not
#: grow with the mesh; on the small k = 1, 2 meshes a larger budget shows up
#: in the peak RSS, because freed chunk arrays stay in the heap.  Element
#: work (assembly to error norms) of the benchmark workloads, medians over
#: repeats alternating the budget in one process (2-vCPU VM, seed 0), at
#: 1 / 2 / 3 / 4 / 6 MiB: sweep_k2 0.570 / 0.489 / 0.439 / 0.428 / 0.429 s
#: (146 / 82 / 61 / 52 / 42 kernel calls), lloyd_k1 0.216 / 0.195 / 0.190 /
#: 0.187 / 0.185 s, concave_k4 1.57 / 1.56 / 1.56 / 1.35 / 1.40 s (8-cell
#: chunks up to 3 MiB); sweep_k2 peak RSS after 10 runs 93.9 / 94.1 / 96.2 /
#: 97.5 / 98.8 MB.  Above 3 MiB sweep_k2 gains no more and its peak grows.
_CHUNK_BYTES = 3 * 2 ** 20
#: A chunk never has fewer cells: each stacked call pays about 1 ms of
#: fixed NumPy overhead however many cells it holds.  For cells heavier
#: than ``_CHUNK_BYTES / _MIN_CHUNK_CELLS`` (about 131 KB) the floor
#: overrides the budget, so such chunks take more than 3 MiB; the k = 4
#: concave cells (8 vertices, 216 points) count 470 KB each.  concave_k4
#: without mesh generation, medians of 12 repeats alternating the floor in
#: one process (2-vCPU VM, seed 0), at 8 / 16 / 24 / 32 / 48 cells:
#: 1.57 / 1.37 / 1.31 / 1.31 / 1.37 s (225 / 113 / 75 / 57 / 38 kernel
#: calls); in a shorter pass 64 cells (29 calls) read 1.41 s against
#: 1.36 s at 32.  24 is the smallest floor on the plateau.  sweep_k2 (61
#: calls) and lloyd_k1 (13) keep their chunks at any floor up to 32.
_MIN_CHUNK_CELLS = 24


def cell_bytes(nv, n_points, k):
    """Working memory one chunk of :func:`_stack_elements` takes per cell
    of ``nv`` vertices and ``n_points`` quadrature points, in bytes.

    Counts what :func:`_projectors`, :func:`_form_tables` and
    :func:`_local_forms` allocate when every cell is a class of its own:
    the rule's monomial table (width n_poly(k)); the orthonormalised values
    (width m = n_poly(k - 1)); the table of their products and its rows
    taken for each cell's class (width m (m + 1) each); the coefficients,
    their evaluation and checks and their seven weights (about 30 values
    per point); and about 16 (n_dofs, n_dofs) matrices.
    """
    nd = element_layout(nv, k).n_dofs
    m = n_poly(k - 1)
    per_point = n_poly(k) + m + m * (m + 1) + 30
    return 8 * (n_points * per_point + 16 * nd ** 2)


#: A cell joins the shape class of its key only when each of its vertex
#: offsets from its first vertex, and its diameter, differ from its
#: representative's by at most this many ulps of the stack's largest
#: coordinate magnitude.  The translates of the lattice families deviate
#: by at most 0.49 ulp of 1 (concave 30 x 30 and 40 x 40, square 5 x 5 to
#: 100 x 100): on concave 30 x 30 that is 3.3e-15 of the cell diameter,
#: against a bound of 1.9e-14 of it.
_CLASS_ULPS = 4
#: Resolution of the class key: offsets in units of the diameter, rounded
#: to 2^-30.  Only the explicit check above merges cells; a key that rounds
#: apart splits a class, which costs time, not accuracy.
_KEY_BITS = 30
#: Odd multipliers that hash a class key row to one integer (wrapping
#: uint64 arithmetic).  Cells whose keys differ never merge, as the keys
#: themselves are compared; a collision only splits a class.
_KEY_HASH = np.uint64(0x9E3779B97F4A7C15)


def shape_classes(geometry):
    """Cells of a stack that are translates of each other, up to roundoff.

    ``geometry`` is a :class:`GeometryStack` of cells that share a vertex
    count.  The scaled monomials (x - x_E)/h_E are translation-invariant,
    so translates share their projectors, mass matrices and monomial
    tables on corresponding rule points.  A cell's key is its vertex
    offsets from its first vertex in units of its diameter, its
    ``edge_forward`` pattern (a flipped edge changes the sign of its odd
    edge moments), its diameter and its :func:`star_shaped` flag (so a
    class shares one triangulation), hashed to one integer.  The first
    cell of each hash represents it, and a cell joins that class only when
    its whole key equals the representative's and it passes the check of
    ``_CLASS_ULPS`` (a fan's apex is the centroid, which the vertices
    determine).  A cell that fails either is a class of its own.

    Returns the row of each cell's representative; a representative is
    its own.
    """
    star = star_shaped(geometry)
    n = len(geometry)
    h = geometry.diameter
    offsets = geometry.vertices - geometry.vertices[:, :1]
    scale = 2.0 ** _KEY_BITS
    key = np.concatenate([
        np.rint(offsets[:, 1:] / h[:, None, None] * scale).reshape(n, -1),
        geometry.edge_forward, star[:, None],
        np.rint(h / h.max() * scale)[:, None]], axis=1).astype(np.int64)
    multipliers = _KEY_HASH * (2 * np.arange(key.shape[1], dtype=np.uint64)
                               + 1)
    hashed = (key.view(np.uint64) * multipliers).sum(axis=1)
    _, first, which = np.unique(hashed, return_index=True,
                                return_inverse=True)
    rep = first[which]
    tol = _CLASS_ULPS * np.finfo(float).eps * np.abs(geometry.vertices).max()
    close = ((key == key[rep]).all(axis=1)
             & (np.abs(offsets - offsets[rep]).max(axis=(1, 2)) <= tol)
             & (np.abs(h - h[rep]) <= tol))
    return np.where(close, rep, np.arange(n))


def mesh_elements(mesh, k, coeffs=None, mode="standard"):
    """Projectors and, given coefficients, local forms of every cell of
    ``mesh``: the :class:`ElementStack` chunks of :func:`_stack_elements`
    on each of its vertex-count stacks (:func:`geometry_stacks`)."""
    check_degree(k)
    check_mode(mode)
    for geometry in geometry_stacks(mesh):
        chunks = _stack_elements(geometry, k, coeffs, mode)
        # the stack goes once its parts are taken, not when its chunks end
        del geometry
        yield from chunks


def element_bank(mesh, k):
    """The :class:`ElementBank` that :func:`vemlab.assembly.assemble` keeps
    on ``SparseSystem.bank``, bit for bit, built without local forms."""
    return ElementBank(mesh, k, tuple(replace(out, projectors=None, forms=None)
                                      for out in mesh_elements(mesh, k)))


def _stack_elements(geometry, k, coeffs, mode):
    """Projectors and, given coefficients, local forms of the cells of the
    :class:`GeometryStack` ``geometry``, which share a vertex count.

    The cells fall into shape classes (:func:`shape_classes`) before they
    are triangulated, so only the representatives are ear-clipped.  Cells
    are stacked by triangle count, a class within one part, and each
    cell's rule, of degree :func:`rule_degree`, is mapped onto its
    triangles.  The classes of a part are taken ``step``
    representatives at a time: each such group's projectors, form tables
    and post-solve operators are built once, and then its member cells, the
    representatives first and in class order, come ``step`` at a time, each
    with its own forms; the chunks of the group share its operators.
    ``step`` is what fits ``_CHUNK_BYTES`` of working memory, at least
    ``_MIN_CHUNK_CELLS`` cells: for cells heavier than their quotient the
    floor overrides the budget.  Yields an :class:`ElementStack` per
    chunk.
    """
    degree = rule_degree(k)
    nv = geometry.vertices.shape[1]
    rep_of = shape_classes(geometry)
    # every part's rows taken at once, so the stack itself can go
    parts = [(take(geometry, rows), tris, rep_of[rows] == rows,
              np.unique(rep_of[rows], return_inverse=True)[1])
             for rows, tris in triangulate_stack(geometry, rep_of)]
    del geometry
    while parts:
        # off the list, so each part is held only once it is reordered
        sub, tris, is_rep, classes = parts.pop(0)
        n_points = tris.shape[1] * _duffy_rule(degree)[1].size
        step = max(_MIN_CHUNK_CELLS,
                   _CHUNK_BYTES // cell_bytes(nv, n_points, k))
        n_classes = int(np.count_nonzero(is_rep))
        # each group's representatives first, then its other members: the
        # representatives' rows are then a view of the members'
        group = classes // step
        order = np.lexsort((~is_rep, group))
        stack = take(sub, order)
        del sub
        tris, classes = tris[order], classes[order]
        bounds = np.cumsum(np.bincount(group)).tolist()
        for lo, start, stop in zip(range(0, n_classes, step),
                                   [0] + bounds, bounds):
            n = min(step, n_classes - lo)
            head = slice(start, start + n)
            for a in range(start, stop, step):
                part = slice(a, min(a + step, stop))
                rule = QuadratureRule(*map_rule(tris[part], degree))
                if a == start:
                    # the group's n representatives lead its first chunk,
                    # and so do their rules; the last group's form tables
                    # go before these are built
                    tables = None
                    reps_geometry = take(stack, head)
                    projectors = _projectors(reps_geometry, k,
                                             take(rule, slice(n)))
                    tables = (None if coeffs is None else _form_tables(
                        reps_geometry, projectors, mode))
                    operators = np.concatenate(
                        [projectors.Pi0k, projectors.Pi0GradX,
                         projectors.Pi0GradY], axis=1)
                out = ElementStack(k=k, geometry=take(stack, part),
                                   triangles=tris[part],
                                   classes=classes[part] - lo,
                                   projectors=projectors,
                                   operators=operators)
                if coeffs is not None:
                    out.forms = _local_forms(out, rule, coeffs, tables)
                yield out


def _one_element(geom, k, coeffs=None, mode="standard"):
    """The one chunk :func:`_stack_elements` yields for the one cell
    ``geom``, a :class:`GeometryStack` row, as a stack of one."""
    check_degree(k)
    check_mode(mode)
    (out,) = _stack_elements(take(geom, None), k, coeffs, mode)
    return out


def projector_set(geom, k):
    """All projector matrices for one element, as :func:`mesh_elements`
    builds them."""
    return take(_one_element(geom, k).projectors, 0)


def local_system(geom, k, coeffs, mode="standard"):
    """Local stiffness/advection/reaction matrices and load vector of one
    element, as :func:`mesh_elements` builds them."""
    return take(_one_element(geom, k, coeffs, mode).forms, 0)


def _as_function(v, name):
    """``v`` if it is callable, else the function of (x, y) constant at
    ``v``; a ``v`` that is not a finite real scalar raises ValueError
    naming it ``name``."""
    return v if callable(v) else (
        lambda x, y, c=_real(v, name, "callable or a real scalar", ()): c)


def skeleton_dofs(v, vertices, edges, k, name="v"):
    """Vertex and edge DoFs of a smooth function ``v(x, y)``: its values at
    ``vertices`` (N, 2) and its moments ``(1/|e|) int_e v t^j ds``, j < k - 1,
    on ``edges`` (E, 2, 2), from their canonical start (t = -1) to their end
    (t = +1), by a rule exact to :func:`smooth_rule_degree`; (N,), (E, k - 1).
    A ``v`` that does not give one value per point raises a ValueError
    naming it ``name``; one not finite gives DoFs not finite, unwarned.
    """
    values = _at(name, v, vertices)
    if k == 1:
        return values, np.empty((len(edges), 0))
    start, end = edges[:, :1], edges[:, 1:]
    t, w_std = _gauss(smooth_rule_degree(k) // 2 + 1)
    pts = 0.5 * (start + end) + 0.5 * (t[:, None] * (end - start))
    vals = _at(name, v, pts)
    # weights w_std / 2 * |e| sum to |e|
    with np.errstate(invalid="ignore"):
        return values, np.stack([np.sum(w_std / 2 * vals * t ** j, axis=-1)
                                 for j in range(k - 1)], axis=-1)


def internal_moments(geometry, k, v):
    """Internal DoFs ``(1/|E|) int_E v m_a``, |a| <= k - 2, of ``v(x, y)``
    on every cell of the :class:`GeometryStack` ``geometry``, with each
    cell's rule of degree :func:`smooth_rule_degree`; (C, n_poly(k - 2)).
    A ``v`` not finite in a cell gives it moments not finite, unwarned."""
    out = np.empty((len(geometry), n_poly(k - 2)))
    for rows, tris in triangulate_stack(geometry):
        pts, wts = map_rule(tris, smooth_rule_degree(k))
        V = monomial_values(take(geometry, rows), pts, k - 2)
        weighted = wts * _at("v", v, pts)
        with np.errstate(invalid="ignore"):
            out[rows] = ((weighted[:, None] @ V)[:, 0]
                         / geometry.area[rows, None])
    return out


def interpolate_dofs(geom, k, v):
    """DoF vector of a smooth function, or of a real constant, on the one
    cell ``geom``, a :class:`GeometryStack` row: :func:`skeleton_dofs`,
    then the :func:`internal_moments`.  A DoF that is not finite raises
    ``ValueError`` naming ``v``, the element and the DoF's local slot."""
    check_degree(k)
    v = _as_function(v, "v")
    edges = np.stack([geom.vertices, np.roll(geom.vertices, -1, axis=0)], 1)
    edges[~geom.edge_forward] = edges[~geom.edge_forward, ::-1]
    values, moments = skeleton_dofs(v, geom.vertices, edges, k)
    internal = internal_moments(take(geom, None), k, v)
    dofs = np.concatenate([values, moments.ravel(), internal[0]])
    if not np.isfinite(dofs).all():
        raise ValueError("element: v is not finite at local DoF "
                         f"{np.argmax(~np.isfinite(dofs))}")
    return dofs
