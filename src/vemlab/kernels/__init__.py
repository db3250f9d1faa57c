"""Evaluation kernels: scaled-monomial value and gradient tables in NumPy.

Callers evaluate each element's tables in a few large calls (see
``vemlab.local.projector_set``), so per-call overhead stays small without a
compiled kernel.
"""

import numpy as np


def monomial_vandermonde(pts, center, diameter, exps):
    """Evaluate scaled monomials ((x-xc)/h)^a ((y-yc)/h)^b at points.

    Parameters
    ----------
    pts : (n, 2) float array
    center : (2,) float array
    diameter : float
    exps : (m, 2) int array of exponent pairs

    Returns
    -------
    (n, m) array with V[i, j] = m_j(pts[i]).
    """
    pts = np.asarray(pts, dtype=float)
    xi = (pts[:, 0] - center[0]) / diameter
    eta = (pts[:, 1] - center[1]) / diameter
    deg = int(exps.max()) if len(exps) else 0
    xp = _powers(xi, deg)
    yp = _powers(eta, deg)
    return xp[:, exps[:, 0]] * yp[:, exps[:, 1]]


def monomial_vandermonde_grad(pts, center, diameter, exps):
    """Evaluate gradients of the scaled monomials at points.

    Returns two (n, m) arrays with the values of d(m_j)/dx and d(m_j)/dy.
    """
    pts = np.asarray(pts, dtype=float)
    xi = (pts[:, 0] - center[0]) / diameter
    eta = (pts[:, 1] - center[1]) / diameter
    deg = int(exps.max()) if len(exps) else 0
    xp = _powers(xi, deg)
    yp = _powers(eta, deg)
    ax = exps[:, 0]
    ay = exps[:, 1]
    gx = ax * xp[:, np.maximum(ax - 1, 0)] * yp[:, ay] / diameter
    gy = ay * xp[:, ax] * yp[:, np.maximum(ay - 1, 0)] / diameter
    return gx, gy


def backend_name():
    """Name of the kernel backend, recorded with benchmark results."""
    return "python"


def _powers(t, deg):
    out = np.empty((t.shape[0], deg + 1))
    out[:, 0] = 1.0
    for j in range(1, deg + 1):
        out[:, j] = out[:, j - 1] * t
    return out
