"""Element-local machinery: degrees of freedom, projectors, local forms.

A degree-k element on an n_V-gon carries n_V vertex values, (k-1) moments
per edge against scaled arclength powers (divided by |e|), and the internal
moments against scaled monomials of degree <= k-2 (divided by |E|), in that
order.  All projectors are assembled from those data alone: boundary terms
use the per-edge polynomial trace reconstruction, interior terms read the
internal moments directly.
"""

from dataclasses import dataclass

import numpy as np

from .basis import (ScaledMonomialBasis, _gauss, edge_reconstruction,
                    mass_matrix, n_poly, polygon_quadrature)


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

    def internal_slot(self, m):
        return self.n_vertices * self.k + m


def dof_layout(geom, k):
    if k < 1:
        raise ValueError(f"polynomial degree must be >= 1, got {k}")
    nv = geom.vertices.shape[0]
    return DofLayout(k=k, n_vertices=nv, n_per_edge=k - 1,
                     n_internal=n_poly(k - 2), n_dofs=nv * k + n_poly(k - 2))


@dataclass
class ProjectorSet:
    """Projector matrices mapping local DoF vectors to polynomial coefficients.

    ``PiNabla`` and ``Pi0k`` map onto degree-k coefficients, ``Pi0km1`` and
    the gradient pair onto degree-(k-1) coefficients.  ``D`` holds the DoFs
    of the monomials (one row per DoF), and ``B``/``G`` are the energy
    projector's right-hand side and system matrix, kept for verification:
    ``G == B @ D`` is an identity.  ``rule_values`` is the monomial table on
    the points of the quadrature rule that built ``H``.
    """

    k: int
    layout: DofLayout
    basis: ScaledMonomialBasis
    PiNabla: np.ndarray
    Pi0k: np.ndarray
    Pi0km1: np.ndarray
    Pi0GradX: np.ndarray
    Pi0GradY: np.ndarray
    D: np.ndarray
    B: np.ndarray
    G: np.ndarray
    H: np.ndarray
    rule_values: np.ndarray


@dataclass(frozen=True)
class ElementBank:
    """What post-processing needs of each cell, kept from one build.

    ``geometries[c]`` is cell ``c``'s ``ElementGeometry`` and
    ``operators[c]`` its :func:`post_solve_operator`, which maps the cell's
    DoF vector to all of its polynomial snapshots in one product.
    """

    k: int
    geometries: tuple
    operators: tuple

    def snapshots(self, u, cell_dofs):
        """L2 projection, projected gradient and energy projection of the
        global DoF vector ``u`` on every cell: arrays of shape
        (cells, n_poly(k)), (cells, n_poly(k - 1), 2) and (cells, n_poly(k)).
        """
        snaps = np.array([op @ u[g] for op, g in zip(self.operators, cell_dofs)])
        nk, nkm1 = n_poly(self.k), n_poly(self.k - 1)
        pi0, gx, gy, energy = np.split(
            snaps, [nk, nk + nkm1, nk + 2 * nkm1], axis=1)
        return pi0, np.stack([gx, gy], axis=-1), energy


def post_solve_operator(proj):
    """``[Pi0k; Pi0GradX; Pi0GradY; PiNabla]``: the projectors of one element
    that act on a solution, stacked by rows."""
    return np.concatenate([proj.Pi0k, proj.Pi0GradX, proj.Pi0GradY,
                           proj.PiNabla])


@dataclass
class LocalSystem:
    """Local discrete forms: Ah includes the stabilization S."""

    Ah: np.ndarray
    Bh: np.ndarray
    Ch: np.ndarray
    S: np.ndarray
    f_loc: np.ndarray
    mode: str
    projectors: ProjectorSet

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
        kap = np.asarray(kappa, dtype=float)
        if kap.ndim == 0:
            kap = float(kap) * np.eye(2)
        if kap.shape != (2, 2) or not np.allclose(kap, kap.T):
            raise ValueError("constant kappa must be a scalar or symmetric 2x2")
        bvec = np.asarray(b, dtype=float)
        return Coefficients(
            kappa=lambda x, y: kap,
            b=lambda x, y: bvec,
            gamma=lambda x, y, g=float(gamma): np.full(np.shape(x), g),
            f=lambda x, y, s=float(f): np.full(np.shape(x), s))

    def kappa_at(self, pts):
        arr = np.asarray(self.kappa(pts[:, 0], pts[:, 1]), dtype=float)
        return np.broadcast_to(arr, (pts.shape[0], 2, 2))

    def b_at(self, pts):
        arr = np.asarray(self.b(pts[:, 0], pts[:, 1]), dtype=float)
        return np.broadcast_to(arr, (pts.shape[0], 2))

    def gamma_at(self, pts):
        arr = np.asarray(self.gamma(pts[:, 0], pts[:, 1]), dtype=float)
        return np.broadcast_to(arr, (pts.shape[0],))

    def f_at(self, pts):
        arr = np.asarray(self.f(pts[:, 0], pts[:, 1]), dtype=float)
        return np.broadcast_to(arr, (pts.shape[0],))


def _edge_traces(geom, layout, n_gauss):
    """Gauss data on each edge plus the trace table of the DoF basis.

    Yields (edge index, points, weights, values) where values[q, i] is the
    trace polynomial of local basis function i at quadrature point q.  The
    trace on an edge is the unique P_k(e) polynomial matching the two
    endpoint values and the k-1 edge moments; the scaled arclength t runs
    from -1 to +1 in the direction of ascending global vertex index
    (geom.edge_forward), matching the edge-moment DoF definition.
    """
    k = layout.k
    nv = layout.n_vertices
    R = edge_reconstruction(k)
    t, w_std = _gauss(n_gauss)
    P = np.vander(t, k + 1, increasing=True)
    for e in range(nv):
        va, vb = e, (e + 1) % nv
        v_start, v_end = (va, vb) if geom.edge_forward[e] else (vb, va)
        data = np.zeros((k + 1, layout.n_dofs))
        data[0, layout.vertex_slot(v_start)] = 1.0
        data[1, layout.vertex_slot(v_end)] = 1.0
        for j in range(k - 1):
            data[2 + j, layout.edge_slot(e, j)] = 1.0
        vals = P @ (R @ data)
        a, b = geom.vertices[v_start], geom.vertices[v_end]
        pts = 0.5 * (a + b) + 0.5 * np.outer(t, b - a)
        yield e, pts, w_std * geom.edge_lengths[e] / 2, vals


def _solve(A, rhs, what):
    try:
        return np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"{what} system is singular; element geometry is degenerate") from exc


def projector_set(geom, k, layout=None, rule=None):
    """All projector matrices for one element, sharing one quadrature rule."""
    layout = layout if layout is not None else dof_layout(geom, k)
    basis = ScaledMonomialBasis(geom, k)
    nk = basis.dim
    nkm1 = n_poly(k - 1)
    nkm2 = n_poly(k - 2)
    nd = layout.n_dofs
    area = geom.area
    perimeter = geom.edge_lengths.sum()
    if rule is None:
        rule = polygon_quadrature(geom, 2 * k)
    rule_values = basis.eval(rule.points)
    H = mass_matrix(basis, rule=rule, values=rule_values)
    Hm1 = H[:nkm1, :nkm1]
    traces = list(_edge_traces(geom, layout, k + 1))
    t_std, _ = _gauss(k + 1)

    # One value table on the vertices and every edge Gauss point, one
    # gradient table on the edge points; the edge loops below slice them.
    nv = layout.n_vertices
    edge_pts = np.vstack([pts for _, pts, _, _ in traces])
    V = basis.eval(np.vstack([geom.vertices, edge_pts]))
    V_edge = V[nv:].reshape(nv, k + 1, nk)
    gx_edge, gy_edge = (g.reshape(nv, k + 1, nk) for g in basis.grad(edge_pts))

    # DoFs of the monomials, one row per DoF.
    D = np.zeros((nd, nk))
    D[:nv] = V[:nv]
    for e, _pts, wts, _vals in traces:
        for j in range(k - 1):
            D[layout.edge_slot(e, j)] = (wts * t_std ** j) @ V_edge[e] / geom.edge_lengths[e]
    if nkm2:
        D[layout.n_vertices * k:] = H[:nkm2] / area

    # Energy projector: gradient conditions plus the boundary-mean closure.
    Dx = basis.derivative_map(0)
    Dy = basis.derivative_map(1)
    G = Dx.T @ Hm1 @ Dx + Dy.T @ Hm1 @ Dy
    B = np.zeros((nk, nd))
    if nkm2:
        B[:, layout.n_vertices * k:] -= area * basis.laplacian_map().T
    bmean_mono = np.zeros(nk)
    bmean_dof = np.zeros(nd)
    for e, _pts, wts, vals in traces:
        normal = geom.edge_normals[e]
        dn = gx_edge[e] * normal[0] + gy_edge[e] * normal[1]
        B += dn.T @ (wts[:, None] * vals)
        bmean_mono += wts @ V_edge[e] / perimeter
        bmean_dof += wts @ vals / perimeter
    G[0] = bmean_mono
    B[0] = bmean_dof
    # Solving against B @ D (equal to G up to quadrature roundoff) makes the
    # polynomial-consistency identity hold to solver precision; the Newton
    # polish then squares the remaining idempotence defect, which matters on
    # sliver cells where the monomial Gram is badly conditioned.
    PiNabla = _solve(B @ D, B, "energy projector")
    PiNabla += (np.eye(nk) - PiNabla @ D) @ PiNabla

    # L2 projectors: exact moments up to k-2, energy-projected above.
    mu = np.zeros((nk, nd))
    if nkm2:
        mu[:nkm2, layout.n_vertices * k:] = area * np.eye(nkm2)
    mu[nkm2:] = H[nkm2:] @ PiNabla
    Pi0k = _solve(H, mu, "L2 projector mass")
    Pi0k += (np.eye(nk) - Pi0k @ D) @ Pi0k
    Pi0km1 = _solve(Hm1, mu[:nkm1], "L2 projector mass")
    Pi0km1 += (np.eye(nkm1) - Pi0km1 @ D[:, :nkm1]) @ Pi0km1

    # Gradient projector by parts: interior term from internal moments
    # (the derivative of a P_{k-1} monomial stays within degree k-2),
    # boundary term from the trace reconstruction.
    rx = np.zeros((nkm1, nd))
    ry = np.zeros((nkm1, nd))
    if nkm2:
        lower = ScaledMonomialBasis(geom, k - 1)
        rx[:, layout.n_vertices * k:] -= area * lower.derivative_map(0).T
        ry[:, layout.n_vertices * k:] -= area * lower.derivative_map(1).T
    for e, _pts, wts, vals in traces:
        Vm1 = V_edge[e][:, :nkm1]
        moment = Vm1.T @ (wts[:, None] * vals)
        rx += geom.edge_normals[e, 0] * moment
        ry += geom.edge_normals[e, 1] * moment
    Pi0GradX = _solve(Hm1, rx, "gradient projector mass")
    Pi0GradY = _solve(Hm1, ry, "gradient projector mass")
    Pi0GradX += (Dx - Pi0GradX @ D) @ Pi0k
    Pi0GradY += (Dy - Pi0GradY @ D) @ Pi0k

    return ProjectorSet(k=k, layout=layout, basis=basis, PiNabla=PiNabla,
                        Pi0k=Pi0k, Pi0km1=Pi0km1, Pi0GradX=Pi0GradX,
                        Pi0GradY=Pi0GradY, D=D, B=B, G=G, H=H,
                        rule_values=rule_values)


def local_system(geom, k, layout, coeffs, mode="standard", quad_boost=2):
    """Local stiffness/advection/reaction matrices and load vector.

    Entry [i, j] of each matrix is the form evaluated with trial function j
    and test function i.  In mode ``grad_pinabla`` the diffusion consistency
    term uses the gradient of the energy projection instead of the projected
    gradient; for k=1 the two constructions agree identically, so the
    standard path is shared.
    """
    if mode not in ("standard", "grad_pinabla"):
        raise ValueError(f"unknown mode {mode!r}")
    layout = layout if layout is not None else dof_layout(geom, k)
    rule = polygon_quadrature(geom, 2 * k + quad_boost)
    proj = projector_set(geom, k, layout, rule=rule)
    nkm1 = n_poly(k - 1)

    if mode == "grad_pinabla" and k > 1:
        GxA = proj.basis.derivative_map(0) @ proj.PiNabla
        GyA = proj.basis.derivative_map(1) @ proj.PiNabla
    else:
        GxA, GyA = proj.Pi0GradX, proj.Pi0GradY

    w = rule.weights
    V = proj.rule_values[:, :nkm1]
    VGxA, VGyA = V @ GxA, V @ GyA
    kap = coeffs.kappa_at(rule.points)
    Acons = (VGxA.T @ ((w * kap[:, 0, 0])[:, None] * VGxA)
             + VGxA.T @ ((w * kap[:, 0, 1])[:, None] * VGyA)
             + VGyA.T @ ((w * kap[:, 1, 0])[:, None] * VGxA)
             + VGyA.T @ ((w * kap[:, 1, 1])[:, None] * VGyA))

    sigma = float(w @ (kap[:, 0, 0] + kap[:, 1, 1])) / (2 * geom.area)
    M = np.eye(layout.n_dofs) - proj.D @ proj.PiNabla
    S = sigma * (M.T @ M)
    S = 0.5 * (S + S.T)
    Ah = Acons + S
    Ah = 0.5 * (Ah + Ah.T)

    # Advection couples the projected trial function to the projected
    # gradient of the test function (row index), hence non-symmetric.
    VP = V @ proj.Pi0km1
    VGx, VGy = V @ proj.Pi0GradX, V @ proj.Pi0GradY
    b = coeffs.b_at(rule.points)
    Bh = -(VGx.T @ ((w * b[:, 0])[:, None] * VP)
           + VGy.T @ ((w * b[:, 1])[:, None] * VP))

    gam = coeffs.gamma_at(rule.points)
    Ch = VP.T @ ((w * gam)[:, None] * VP)
    Ch = 0.5 * (Ch + Ch.T)

    f_loc = VP.T @ (w * coeffs.f_at(rule.points))

    return LocalSystem(Ah=Ah, Bh=Bh, Ch=Ch, S=S, f_loc=f_loc, mode=mode,
                       projectors=proj)


def interpolate_dofs(geom, k, v, layout=None, exactness=None):
    """DoF vector of a smooth function: vertex values and scaled moments."""
    layout = layout if layout is not None else dof_layout(geom, k)
    ex = (2 * k + 4) if exactness is None else exactness
    d = np.zeros(layout.n_dofs)
    d[:layout.n_vertices] = v(geom.vertices[:, 0], geom.vertices[:, 1])
    if k >= 2:
        t, w_std = _gauss(int(np.ceil((ex + 1) / 2)))
        nv = layout.n_vertices
        for e in range(nv):
            va, vb = e, (e + 1) % nv
            if not geom.edge_forward[e]:
                va, vb = vb, va
            a, b = geom.vertices[va], geom.vertices[vb]
            pts = 0.5 * (a + b) + 0.5 * np.outer(t, b - a)
            vals = v(pts[:, 0], pts[:, 1])
            for j in range(k - 1):
                # (1/|e|) int_e v t^j ds with weights summing to |e|.
                d[layout.edge_slot(e, j)] = np.sum(w_std / 2 * vals * t ** j)
        rule = polygon_quadrature(geom, ex)
        basis = ScaledMonomialBasis(geom, k - 2)
        Vm = basis.eval(rule.points)
        vals = v(rule.points[:, 0], rule.points[:, 1])
        d[layout.n_vertices * k:] = (rule.weights * vals) @ Vm / geom.area
    return d
