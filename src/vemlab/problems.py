"""Built-in model problems with closed-form exact solutions.

Each problem bundles the PDE data (diffusion tensor, advection field,
reaction, source) with the exact solution and its gradient, so convergence
studies and patch tests can measure errors without re-deriving anything.
"""

from dataclasses import dataclass

import numpy as np

from .local import Coefficients, check_degree

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


# Full-degree polynomial solutions with their derivative closures, used to
# manufacture constant-coefficient patch problems.
_POLY_SOLUTIONS = {
    1: {
        "p": lambda x, y: 1 + 2 * x - 3 * y,
        "grad": (lambda x, y: np.full(np.shape(x), 2.0),
                 lambda x, y: np.full(np.shape(x), -3.0)),
        "hess": (lambda x, y: np.zeros(np.shape(x)),
                 lambda x, y: np.zeros(np.shape(x)),
                 lambda x, y: np.zeros(np.shape(x))),
    },
    2: {
        "p": lambda x, y: x ** 2 + x * y - y ** 2 + x + 2,
        "grad": (lambda x, y: 2 * x + y + 1,
                 lambda x, y: x - 2 * y),
        "hess": (lambda x, y: np.full(np.shape(x), 2.0),
                 lambda x, y: np.full(np.shape(x), 1.0),
                 lambda x, y: np.full(np.shape(x), -2.0)),
    },
    3: {
        "p": lambda x, y: x ** 3 - 2 * x * y ** 2 + y ** 3 + x ** 2 - y + 1,
        "grad": (lambda x, y: 3 * x ** 2 - 2 * y ** 2 + 2 * x,
                 lambda x, y: -4 * x * y + 3 * y ** 2 - 1),
        "hess": (lambda x, y: 6 * x + 2,
                 lambda x, y: -4 * y + 0.0 * x,
                 lambda x, y: -4 * x + 6 * y),
    },
    4: {
        "p": lambda x, y: x ** 4 + x ** 2 * y ** 2 - y ** 4 + x ** 3 - x * y + 2,
        "grad": (lambda x, y: 4 * x ** 3 + 2 * x * y ** 2 + 3 * x ** 2 - y,
                 lambda x, y: 2 * x ** 2 * y - 4 * y ** 3 - x),
        "hess": (lambda x, y: 12 * x ** 2 + 2 * y ** 2 + 6 * x,
                 lambda x, y: 4 * x * y - 1,
                 lambda x, y: 2 * x ** 2 - 12 * y ** 2),
    },
}


def polynomial_problem(k, kappa=((2.0, 0.5), (0.5, 1.5))):
    """Pure-diffusion problem with constant ``kappa`` and a degree-``k``
    polynomial exact solution (the classic patch-test setup)."""
    check_degree(k)
    if k not in _POLY_SOLUTIONS:
        raise ValueError(f"polynomial solutions cover k = 1..4, got {k}")
    data = _POLY_SOLUTIONS[k]
    K = np.asarray(kappa, dtype=float)
    if K.ndim == 0:
        K = float(K) * np.eye(2)
    px, py = data["grad"]
    pxx, pxy, pyy = data["hess"]

    def f(x, y):
        return -(K[0, 0] * pxx(x, y) + (K[0, 1] + K[1, 0]) * pxy(x, y)
                 + K[1, 1] * pyy(x, y))

    base = Coefficients.constant(kappa=K)
    coeffs = Coefficients(kappa=base.kappa, b=base.b, gamma=base.gamma, f=f)

    def grad(x, y):
        return np.stack([np.broadcast_to(px(x, y), np.shape(x)),
                         np.broadcast_to(py(x, y), np.shape(x))], axis=-1)

    return TestProblem(name=f"poly-degree-{k}", coefficients=coeffs,
                       p_ex=data["p"], grad_p_ex=grad)


def constant_problem(value=2.0, gamma=1.0, kappa=1.0):
    """Problem whose exact solution is a constant: f = gamma * value."""
    coeffs = Coefficients.constant(kappa=kappa, gamma=gamma,
                                   f=gamma * value)
    val = float(value)
    return TestProblem(
        name="constant",
        coefficients=coeffs,
        p_ex=lambda x, y: np.full(np.shape(x), val),
        grad_p_ex=lambda x, y: np.zeros(np.shape(x) + (2,)))
