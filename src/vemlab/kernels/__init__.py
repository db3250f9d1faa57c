"""Evaluation kernels: scaled-monomial value and gradient tables in NumPy.

Every function takes a stack of point sets with one centre and diameter
per set, so a chunk of elements gets its tables in one call from the one
caller in the package, ``vemlab.basis.monomial_values``; one element is a
stack without the leading axis.  Per-call overhead stays small without a
compiled kernel.
"""

import numpy as np


def monomial_vandermonde(pts, center, diameter, exps):
    """Evaluate scaled monomials ((x-xc)/h)^a ((y-yc)/h)^b at points.

    Parameters
    ----------
    pts : (..., n, 2) float array
    center : (..., 2) float array
    diameter : float or (...) float array
    exps : (m, 2) int array of exponent pairs

    Returns
    -------
    (..., n, m) array with V[..., i, j] = m_j(pts[..., i, :]).
    """
    xp, yp = _scaled_powers(pts, center, diameter, exps)
    return xp[..., exps[:, 0]] * yp[..., exps[:, 1]]


def monomial_vandermonde_grad(pts, center, diameter, exps):
    """Evaluate gradients of the scaled monomials at points.

    Returns two (..., n, m) arrays with the values of d(m_j)/dx and
    d(m_j)/dy.
    """
    xp, yp = _scaled_powers(pts, center, diameter, exps)
    h = np.asarray(diameter, dtype=float)[..., None, None]
    ax = exps[:, 0]
    ay = exps[:, 1]
    gx = ax * xp[..., np.maximum(ax - 1, 0)] * yp[..., ay] / h
    gy = ay * xp[..., ax] * yp[..., np.maximum(ay - 1, 0)] / h
    return gx, gy


def backend_name():
    """Name of the kernel backend, recorded with benchmark results."""
    return "python"


def _scaled_powers(pts, center, diameter, exps):
    pts = np.asarray(pts, dtype=float)
    center = np.asarray(center, dtype=float)
    h = np.asarray(diameter, dtype=float)[..., None]
    xi = (pts[..., 0] - center[..., 0, None]) / h
    eta = (pts[..., 1] - center[..., 1, None]) / h
    deg = int(exps.max()) if len(exps) else 0
    return _powers(xi, deg), _powers(eta, deg)


def _powers(t, deg):
    out = np.empty(t.shape + (deg + 1,))
    out[..., 0] = 1.0
    for j in range(1, deg + 1):
        out[..., j] = out[..., j - 1] * t
    return out
