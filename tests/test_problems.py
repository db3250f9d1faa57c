"""Built-in problems: exact-solution data and hand-derived source terms."""

import numpy as np
import pytest

from vemlab.problems import builtin_problem, constant_problem, polynomial_problem

from oracles import fd_gradient


def _fd_operator(problem, x, y, step=1e-5):
    """div(-kappa grad p + b p) + gamma p with the divergence by central
    differences of the analytic flux (the gradient itself is validated
    separately against finite differences of p)."""
    coeffs = problem.coefficients

    def flux(xx, yy):
        pts = np.column_stack([np.atleast_1d(xx), np.atleast_1d(yy)])
        kap = coeffs.kappa_at(pts)
        b = coeffs.b_at(pts)
        grad = problem.grad_p_ex(pts[:, 0], pts[:, 1])
        p = problem.p_ex(pts[:, 0], pts[:, 1])
        return -np.einsum("nij,nj->ni", kap, grad) + b * p[:, None]

    div = ((flux(x + step, y)[:, 0] - flux(x - step, y)[:, 0])
           + (flux(x, y + step)[:, 1] - flux(x, y - step)[:, 1])) / (2 * step)
    pts = np.column_stack([x, y])
    return div + coeffs.gamma_at(pts) * problem.p_ex(x, y)


class TestBuiltinProblem:
    def test_solution_values(self):
        prob = builtin_problem()
        assert prob.p_ex(0.0, 0.0) == pytest.approx(2.0, abs=0)
        # reference value used as the point-error denominator
        assert prob.p_ex(0.781, 0.766) == pytest.approx(3.4433671340809555,
                                                        abs=1e-13)

    def test_tensor_positive_definite(self):
        prob = builtin_problem()
        pts = np.array([[1.0, 1.0]])
        kap = prob.coefficients.kappa_at(pts)[0]
        np.testing.assert_allclose(kap, [[2.0, -1.0], [-1.0, 2.0]], atol=0)
        eigs = np.linalg.eigvalsh(kap)
        np.testing.assert_allclose(sorted(eigs), [1.0, 3.0], atol=1e-14)
        # the smallest eigenvalue is 1 everywhere on the square
        rng = np.random.default_rng(3)
        xy = rng.uniform(0, 1, size=(50, 2))
        kaps = prob.coefficients.kappa_at(xy)
        mins = np.linalg.eigvalsh(kaps).min(axis=1)
        np.testing.assert_allclose(mins, 1.0, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        prob = builtin_problem()
        rng = np.random.default_rng(11)
        for x, y in rng.uniform(0.05, 0.95, size=(20, 2)):
            gx, gy = fd_gradient(prob.p_ex, x, y, step=1e-6)
            gref = prob.grad_p_ex(x, y)
            assert abs(gref[0] - gx) < 1e-6 * max(1, abs(gx))
            assert abs(gref[1] - gy) < 1e-6 * max(1, abs(gy))

    def test_source_matches_operator(self):
        prob = builtin_problem()
        rng = np.random.default_rng(7)
        xy = rng.uniform(0.05, 0.95, size=(100, 2))
        x, y = xy[:, 0], xy[:, 1]
        f_ref = _fd_operator(prob, x, y, step=1e-5)
        f_val = prob.f(x, y)
        rel = np.abs(f_val - f_ref) / np.maximum(1.0, np.abs(f_ref))
        assert rel.max() < 1e-5

    def test_callable_shapes(self):
        prob = builtin_problem()
        pts = np.random.default_rng(0).uniform(0, 1, size=(7, 2))
        assert prob.coefficients.kappa_at(pts).shape == (7, 2, 2)
        assert prob.coefficients.b_at(pts).shape == (7, 2)
        assert prob.coefficients.gamma_at(pts).shape == (7,)
        assert prob.grad_p_ex(pts[:, 0], pts[:, 1]).shape == (7, 2)


class TestPolynomialProblems:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_gradient_matches_finite_differences(self, k):
        prob = polynomial_problem(k)
        rng = np.random.default_rng(20 + k)
        for x, y in rng.uniform(0.1, 0.9, size=(10, 2)):
            gx, gy = fd_gradient(prob.p_ex, x, y, step=1e-6)
            gref = prob.grad_p_ex(x, y)
            assert abs(gref[0] - gx) < 1e-6 * max(1, abs(gx))
            assert abs(gref[1] - gy) < 1e-6 * max(1, abs(gy))

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_source_matches_operator(self, k):
        prob = polynomial_problem(k)
        rng = np.random.default_rng(30 + k)
        xy = rng.uniform(0.05, 0.95, size=(25, 2))
        x, y = xy[:, 0], xy[:, 1]
        f_ref = _fd_operator(prob, x, y, step=1e-5)
        rel = np.abs(prob.f(x, y) - f_ref) / np.maximum(1.0, np.abs(f_ref))
        assert rel.max() < 1e-5

    def test_advection_and_reaction_vanish(self):
        prob = polynomial_problem(3)
        pts = np.array([[0.3, 0.4], [0.9, 0.1]])
        assert not prob.coefficients.b_at(pts).any()
        assert not prob.coefficients.gamma_at(pts).any()

    def test_unsupported_degree(self):
        with pytest.raises(ValueError):
            polynomial_problem(5)


class TestConstantProblem:
    def test_data(self):
        prob = constant_problem(value=2.0, gamma=0.5)
        x = np.linspace(0, 1, 5)
        np.testing.assert_array_equal(prob.p_ex(x, x), np.full(5, 2.0))
        np.testing.assert_array_equal(prob.f(x, x), np.full(5, 1.0))
        assert not prob.grad_p_ex(x, x).any()
