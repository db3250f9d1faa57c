"""Built-in problems: exact-solution data and hand-derived source terms."""

import numpy as np
import pytest

from vemlab.local import Coefficients
from vemlab.problems import (_POLY_SOLUTIONS, builtin_problem,
                             constant_problem, polynomial_problem)

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

    def test_source_matches_hand_expansion_bit_for_bit(self):
        # f shares its sines and cosines between the terms; it must keep
        # the bits of the expansion that evaluates each term separately
        s, c, tp = np.sin, np.cos, 2.0 * np.pi

        def expanded(x, y):
            p = x ** 2 * y + s(tp * x) * s(tp * y) + 2.0
            px = 2 * x * y + tp * c(tp * x) * s(tp * y)
            py = x ** 2 + tp * s(tp * x) * c(tp * y)
            pxx = 2 * y - tp ** 2 * s(tp * x) * s(tp * y)
            pyy = -tp ** 2 * s(tp * x) * s(tp * y)
            pxy = 2 * x + tp ** 2 * c(tp * x) * c(tp * y)
            return (-(y ** 2 + 1) * pxx - (x ** 2 + 1) * pyy
                    + 2 * x * y * pxy + 2 * x * px + 2 * y * py
                    + (2.0 + (x ** 2 + y ** 3)) * p)

        x, y = np.random.default_rng(3).uniform(-0.1, 1.1, size=(2, 400_000))
        prob = builtin_problem()
        assert np.array_equal(prob.f(x, y), expanded(x, y))
        assert np.array_equal(prob.p_ex(x, y), x ** 2 * y
                              + s(tp * x) * s(tp * y) + 2.0)

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

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_solution_has_total_degree_k(self, k):
        # the patch test of degree k tests nothing of degree k otherwise
        i, j = np.nonzero(_POLY_SOLUTIONS[k])
        assert (i + j).max() == k

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_scalar_y_with_array_x(self, k):
        prob = polynomial_problem(k)
        x = np.linspace(0.1, 0.9, 5)
        y = np.full(5, 0.3)
        assert np.array_equal(prob.p_ex(x, 0.3), prob.p_ex(x, y))
        assert np.array_equal(prob.grad_p_ex(x, 0.3), prob.grad_p_ex(x, y))
        assert np.array_equal(prob.f(x, 0.3), prob.f(x, y))
        assert prob.grad_p_ex(x, 0.3).shape == (5, 2)

    def test_unsupported_degree(self):
        with pytest.raises(ValueError):
            polynomial_problem(5)

    @pytest.mark.parametrize("k", [0, 2.0, True])
    def test_degree_must_be_a_positive_integer(self, k):
        # 2.0 and True would otherwise find the k = 2 and k = 1 solutions
        with pytest.raises(ValueError, match="k must be"):
            polynomial_problem(k)


class TestConstantProblem:
    def test_data(self):
        prob = constant_problem(value=2.0, gamma=0.5)
        x = np.linspace(0, 1, 5)
        np.testing.assert_array_equal(prob.p_ex(x, x), np.full(5, 2.0))
        np.testing.assert_array_equal(prob.f(x, x), np.full(5, 1.0))
        assert not prob.grad_p_ex(x, x).any()

    def test_tensor_kappa(self):
        # f = gamma * value exactly and grad p = 0, whatever kappa is
        prob = constant_problem(value=3.0, gamma=0.7,
                                kappa=[[2.0, 0.3], [0.3, 1.0]])
        x, y = np.random.default_rng(5).uniform(0, 1, size=(2, 50))
        assert np.array_equal(prob.f(x, y), np.full(50, 0.7 * 3.0))
        assert np.array_equal(prob.p_ex(x, y), np.full(50, 3.0))
        assert np.array_equal(prob.grad_p_ex(x, y), np.zeros((50, 2)))


class TestConstantCoefficients:
    # booleans and strings used to pass: kappa=True gave I, b=True (1, 1),
    # gamma=True 1.0 and kappa="2" 2I
    @pytest.mark.parametrize("field, value", [
        ("kappa", True), ("kappa", "2"), ("kappa", [[True, 0], [0, 1]]),
        ("b", True), ("b", ["1", "2"]), ("b", (1.0, False)),
        ("gamma", True), ("f", True), ("f", "1"),
    ])
    def test_boolean_or_string_is_named(self, field, value):
        with pytest.raises(ValueError, match=f"^constant {field} must be "):
            Coefficients.constant(**{field: value})

    @pytest.mark.parametrize("make, field", [
        (lambda: polynomial_problem(2, kappa=True), "kappa"),
        (lambda: constant_problem(value=True), "value"),
        (lambda: constant_problem(value="2"), "value"),
        (lambda: constant_problem(value=(1.0, 2.0)), "value"),
        (lambda: constant_problem(gamma=True), "gamma"),
        (lambda: constant_problem(kappa=True), "kappa"),
    ], ids=["poly-kappa", "value-bool", "value-str", "value-pair", "gamma",
            "kappa"])
    def test_problem_data_are_checked(self, make, field):
        with pytest.raises(ValueError, match=f"^constant {field} must be "):
            make()

    def test_numbers_pass(self):
        coeffs = Coefficients.constant(kappa=np.int64(2), b=[1, 0],
                                       gamma=np.float32(0.5), f=3)
        pts = np.zeros((1, 2))
        assert np.array_equal(coeffs.kappa_at(pts)[0], 2.0 * np.eye(2))
        assert np.array_equal(coeffs.b_at(pts)[0], [1.0, 0.0])
        assert coeffs.gamma_at(pts)[0] == 0.5 and coeffs.f_at(pts)[0] == 3.0
