"""Built-in model problems with closed-form exact solutions.

Each problem bundles the PDE data (diffusion tensor, advection field,
reaction, source) with the exact solution and its gradient, so convergence
studies and patch tests can measure errors without re-deriving anything.
"""

from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial import polynomial as P

from .local import Coefficients, _real, check_degree

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class TestProblem:
    """PDE data plus the exact solution it was manufactured from."""

    name: str
    coefficients: Coefficients
    p_ex: callable
    grad_p_ex: callable

    @property
    def f(self):
        return self.coefficients.f


def builtin_problem():
    """Variable full-tensor advection-diffusion-reaction benchmark.

    On the unit square: kappa = [[y^2+1, -xy], [-xy, x^2+1]] (uniformly
    elliptic, smallest eigenvalue 1 everywhere), b = (x, y),
    gamma = x^2 + y^3, and the exact solution

        p(x, y) = x^2 y + sin(2 pi x) sin(2 pi y) + 2.

    The source term is the operator applied to p, expanded by hand:

        f = -(y^2+1) p_xx - (x^2+1) p_yy + 2 x y p_xy
            + 2 x p_x + 2 y p_y + (2 + x^2 + y^3) p,

    where the first-order terms collect the tensor-divergence contribution
    (-kappa_x : grad p) with the conservative advection term
    div(b p) = 2 p + x p_x + y p_y.
    """
    # p, p_x and p_y given the sines and cosines, which ``f`` evaluates
    # once and shares
    def _p(x, y, sx, sy):
        return x ** 2 * y + sx * sy + 2.0

    def _px(x, y, cx, sy):
        return 2 * x * y + TWO_PI * cx * sy

    def _py(x, y, sx, cy):
        return x ** 2 + TWO_PI * sx * cy

    def p(x, y):
        return _p(x, y, np.sin(TWO_PI * x), np.sin(TWO_PI * y))

    def px(x, y):
        return _px(x, y, np.cos(TWO_PI * x), np.sin(TWO_PI * y))

    def py(x, y):
        return _py(x, y, np.sin(TWO_PI * x), np.cos(TWO_PI * y))

    def grad(x, y):
        return np.stack([px(x, y), py(x, y)], axis=-1)

    def kappa(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        out = np.empty(np.broadcast(x, y).shape + (2, 2))
        out[..., 0, 0] = y ** 2 + 1.0
        out[..., 0, 1] = -x * y
        out[..., 1, 0] = -x * y
        out[..., 1, 1] = x ** 2 + 1.0
        return out

    def advection(x, y):
        return np.stack([np.asarray(x, dtype=float) + 0.0 * y,
                         np.asarray(y, dtype=float) + 0.0 * x], axis=-1)

    def gamma(x, y):
        return x ** 2 + y ** 3

    def f(x, y):
        sx, sy = np.sin(TWO_PI * x), np.sin(TWO_PI * y)
        cx, cy = np.cos(TWO_PI * x), np.cos(TWO_PI * y)
        pxx = 2 * y - TWO_PI ** 2 * sx * sy
        pyy = -TWO_PI ** 2 * sx * sy
        pxy = 2 * x + TWO_PI ** 2 * cx * cy
        return (-(y ** 2 + 1) * pxx - (x ** 2 + 1) * pyy
                + 2 * x * y * pxy
                + 2 * x * _px(x, y, cx, sy) + 2 * y * _py(x, y, sx, cy)
                + (2.0 + gamma(x, y)) * _p(x, y, sx, sy))

    coeffs = Coefficients(kappa=kappa, b=advection, gamma=gamma, f=f)
    return TestProblem(name="oscillatory-tensor", coefficients=coeffs,
                       p_ex=p, grad_p_ex=grad)


# Full-degree polynomial exact solutions of the patch problems, as
# coefficient tables: entry [i, j] multiplies x^i y^j.
_POLY_SOLUTIONS = {
    1: [[1, -3], [2, 0]],                      # 1 + 2x - 3y
    2: [[2, 0, -1], [1, 1, 0], [1, 0, 0]],     # x^2 + xy - y^2 + x + 2
    # x^3 - 2xy^2 + y^3 + x^2 - y + 1
    3: [[1, -1, 0, 1], [0, 0, -2, 0], [1, 0, 0, 0], [1, 0, 0, 0]],
    # x^4 + x^2y^2 - y^4 + x^3 - xy + 2
    4: [[2, 0, 0, 0, -1], [0, -1, 0, 0, 0], [0, 0, 1, 0, 0],
        [1, 0, 0, 0, 0], [1, 0, 0, 0, 0]],
}


def _polynomial(table):
    """The polynomial of coefficient ``table`` as a function of (x, y)."""
    def value(x, y):
        return P.polyval2d(*np.broadcast_arrays(x, y), table)
    return value


def _patch_problem(name, table, kappa, gamma=0.0):
    """Problem with constant ``kappa`` and ``gamma``, no advection, and the
    exact solution p of coefficient ``table`` (entry [i, j] multiplies
    x^i y^j): f = -kappa : hess p + gamma p."""
    base = Coefficients.constant(kappa=kappa, gamma=gamma)
    K, g = base.kappa(0.0, 0.0), float(gamma)
    c = np.asarray(table, dtype=float)

    def der(nx, ny):
        d = P.polyder(P.polyder(c, nx, axis=0), ny, axis=1)
        return np.pad(d, [(0, n - m) for n, m in zip(c.shape, d.shape)])

    source = g * c - (K[0, 0] * der(2, 0) + (K[0, 1] + K[1, 0]) * der(1, 1)
                      + K[1, 1] * der(0, 2))
    px, py = _polynomial(der(1, 0)), _polynomial(der(0, 1))
    return TestProblem(
        name=name, coefficients=replace(base, f=_polynomial(source)),
        p_ex=_polynomial(c),
        grad_p_ex=lambda x, y: np.stack([px(x, y), py(x, y)], axis=-1))


def polynomial_problem(k, kappa=((2.0, 0.5), (0.5, 1.5))):
    """Pure-diffusion problem with constant ``kappa`` and a degree-``k``
    polynomial exact solution (the classic patch-test setup)."""
    check_degree(k)
    if k not in _POLY_SOLUTIONS:
        raise ValueError(f"polynomial solutions cover k = 1..4, got {k}")
    return _patch_problem(f"poly-degree-{k}", _POLY_SOLUTIONS[k], kappa)


def constant_problem(value=2.0, gamma=1.0, kappa=1.0):
    """Problem whose exact solution is a constant: f = gamma * value."""
    return _patch_problem("constant", [[_real("value", value, scalar=True)]],
                          kappa, gamma)
