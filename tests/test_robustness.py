"""Bad arguments end in a typed error that names them.

One table of calls with an argument that is not what the API takes: each
row gives the call, the exception it must raise and a fragment of the
message, which starts with the argument's name.  Every row runs with
warnings as errors, so a NumPy warning on the way to the error fails it.
"""

import ast
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from vemlab.assembly import apply_dirichlet, assemble, interpolate
from vemlab.local import Coefficients, element_bank, interpolate_dofs
from vemlab.mesh import MeshError, polygon_geometry
from vemlab.meshgen import lloyd_relax, square_mesh
from vemlab.postprocess import locate_cell, point_error, project_solution
from vemlab.problems import builtin_problem, constant_problem

pytestmark = pytest.mark.filterwarnings("error")

SEEDS = [[0.3, 0.3], [0.7, 0.6], [0.5, 0.8]]
SQUARE = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]


@lru_cache(maxsize=None)
def _mesh():
    return square_mesh(3)


@lru_cache(maxsize=None)
def _dofs():
    return interpolate(_mesh(), 2, builtin_problem().p_ex)


@lru_cache(maxsize=None)
def _projection():
    return project_solution(element_bank(_mesh(), 2), _dofs())


def _point_error(point):
    return point_error(_projection(), point, builtin_problem().p_ex)


def _project(u):
    return project_solution(element_bank(_mesh(), 2), u)


def _dirichlet(g):
    return apply_dirichlet(assemble(_mesh(), 2, Coefficients.constant()), g)


CASES = {
    # the point of point_error and locate_cell
    "point_error_bool_point": (lambda: _point_error((True, 0.5)), ValueError,
                               r"^point must be two real coordinates"),
    "locate_cell_bool_point": (lambda: locate_cell(_mesh(), (True, 0.5)),
                               ValueError,
                               r"^point must be two real coordinates"),
    "point_error_ragged_point": (lambda: _point_error((0.5, [0.5, 0.5])),
                                 ValueError, r"^point is ragged$"),
    "locate_cell_nan_point": (lambda: locate_cell(_mesh(), (np.nan, 0.5)),
                              ValueError, r"^point\[0\] is not finite$"),
    # the points of cell_value
    "cell_value_nan_point": (
        lambda: _projection().cell_value(0, [[np.nan, 0.5]]), ValueError,
        r"^points\[0, 0\] is not finite$"),
    "cell_value_inf_point": (
        lambda: _projection().cell_value(0, [[0.5, 0.5], [0.5, np.inf]]),
        ValueError, r"^points\[1, 1\] is not finite$"),
    "cell_value_ragged_points": (
        lambda: _projection().cell_value(0, [[0.5, 0.5], [0.5]]), ValueError,
        r"^points is ragged$"),
    # the DoF vector of project_solution
    "project_solution_bool_entry": (
        lambda: _project([True] + _dofs()[1:].tolist()), ValueError,
        r"^u must be a real DoF vector, got \[True, "),
    "project_solution_ragged_u": (
        lambda: _project([0.0, [1.0, 2.0]] + _dofs()[2:].tolist()),
        ValueError, r"^u is ragged$"),
    # constant coefficients
    "constant_kappa_inf": (lambda: Coefficients.constant(kappa=np.inf),
                           ValueError, r"^constant kappa is not finite$"),
    "constant_kappa_nan": (lambda: Coefficients.constant(kappa=np.nan),
                           ValueError, r"^constant kappa is not finite$"),
    "constant_kappa_nan_entry": (
        lambda: Coefficients.constant(kappa=[[1.0, 0.0], [0.0, np.nan]]),
        ValueError, r"^constant kappa\[1, 1\] is not finite$"),
    "constant_kappa_ragged": (
        lambda: Coefficients.constant(kappa=[[1.0, 0.0], [0.0]]), ValueError,
        r"^constant kappa is ragged$"),
    "constant_b_ragged": (lambda: Coefficients.constant(b=[1, [2, 3]]),
                          ValueError, r"^constant b is ragged$"),
    "constant_b_inf": (lambda: Coefficients.constant(b=[np.inf, 0.0]),
                       ValueError, r"^constant b\[0\] is not finite$"),
    "constant_gamma_nan": (lambda: Coefficients.constant(gamma=np.nan),
                           ValueError, r"^constant gamma is not finite$"),
    "constant_f_inf": (lambda: Coefficients.constant(f=np.inf), ValueError,
                       r"^constant f is not finite$"),
    "constant_problem_nan_value": (lambda: constant_problem(value=np.nan),
                                   ValueError,
                                   r"^constant value is not finite$"),
    # one kappa rule at construction and at assembly
    "constant_kappa_nearly_symmetric": (
        lambda: Coefficients.constant(kappa=[[1.0, 1e-9], [0.0, 1.0]]),
        ValueError, r"^constant kappa is not symmetric$"),
    "constant_kappa_indefinite_diagonal": (
        lambda: Coefficients.constant(kappa=[[1.0, 0.0], [0.0, -1.0]]),
        ValueError, r"^constant kappa is not positive definite$"),
    "constant_kappa_indefinite": (
        lambda: Coefficients.constant(kappa=[[1.0, 2.0], [2.0, 1.0]]),
        ValueError, r"^constant kappa is not positive definite$"),
    "constant_kappa_negative": (lambda: Coefficients.constant(kappa=-1.0),
                                ValueError,
                                r"^constant kappa is not positive definite$"),
    # a constant Dirichlet datum
    "dirichlet_bool": (lambda: _dirichlet(True), ValueError,
                       r"^g must be callable or a real scalar, got True$"),
    "dirichlet_string": (lambda: _dirichlet("1"), ValueError,
                         r"^g must be callable or a real scalar, got '1'$"),
    "dirichlet_pair": (lambda: _dirichlet([1.0, 2.0]), ValueError,
                       r"^g must be callable or a real scalar, got \[1\.0, "),
    "dirichlet_complex": (lambda: _dirichlet(1 + 2j), ValueError,
                          r"^g must be callable or a real scalar, got "),
    "dirichlet_nan": (lambda: _dirichlet(np.nan), ValueError,
                      r"^g is not finite$"),
    # a constant to interpolate, taken as the Dirichlet datum is
    "interpolate_bool": (lambda: interpolate(_mesh(), 2, True), ValueError,
                         r"^v must be callable or a real scalar, got True$"),
    "interpolate_string": (lambda: interpolate(_mesh(), 2, "1"), ValueError,
                           r"^v must be callable or a real scalar, got '1'$"),
    "interpolate_pair": (
        lambda: interpolate(_mesh(), 2, [1, 2]), ValueError,
        r"^v must be callable or a real scalar, got \[1, 2\]$"),
    "interpolate_nan": (lambda: interpolate(_mesh(), 2, np.nan), ValueError,
                        r"^v is not finite$"),
    "interpolate_dofs_bool": (
        lambda: interpolate_dofs(polygon_geometry(SQUARE), 2, True),
        ValueError, r"^v must be callable or a real scalar, got True$"),
    "interpolate_dofs_nan": (
        lambda: interpolate_dofs(polygon_geometry(SQUARE), 2, np.nan),
        ValueError, r"^v is not finite$"),
    # mesh input keeps MeshError
    "lloyd_relax_ragged_seeds": (
        lambda: lloyd_relax([[0.3, 0.3], [0.7]], 1), MeshError,
        r"^seeds is ragged$"),
    "lloyd_relax_string_seeds": (
        lambda: lloyd_relax([[str(x), str(y)] for x, y in SEEDS], 1),
        MeshError, r"^seeds holds an entry that is not a number$"),
    "lloyd_relax_bool_seed": (
        lambda: lloyd_relax([[0.3, 0.3], [0.7, True]], 1), MeshError,
        r"^seeds holds an entry that is not a number$"),
    "polygon_geometry_ragged": (
        lambda: polygon_geometry([[0.0, 0.0], [1.0], [0.0, 1.0]]), MeshError,
        r"^coords is ragged$"),
    "polygon_geometry_bool": (
        lambda: polygon_geometry([[0.0, False], *SQUARE[1:]]), MeshError,
        r"^coords holds an entry that is not a number$"),
    "polygon_geometry_string": (
        lambda: polygon_geometry([["0", "0"], *SQUARE[1:]]), MeshError,
        r"^coords holds an entry that is not a number$"),
    "polygon_geometry_inf": (
        lambda: polygon_geometry([[0.0, 0.0], [np.inf, 0.0], *SQUARE[2:]]),
        MeshError, r"^coords\[1, 0\] is not finite$"),
    "polygon_geometry_nan": (
        lambda: polygon_geometry([*SQUARE[:2], [1.0, np.nan], SQUARE[3]]),
        MeshError, r"^coords\[2, 1\] is not finite$"),
    "polygon_geometry_int_forward": (
        lambda: polygon_geometry(SQUARE, [1, 2]), MeshError,
        r"^forward must be one boolean per vertex, got \[1, 2\]$"),
    "polygon_geometry_string_forward": (
        lambda: polygon_geometry(SQUARE, "ab"), MeshError,
        r"^forward must be one boolean per vertex, got 'ab'$"),
    "polygon_geometry_short_forward": (
        lambda: polygon_geometry(SQUARE, [True] * 3), MeshError,
        r"^forward must be one boolean per vertex, got \[True, True, True\]$"),
    "polygon_geometry_three_columns": (
        lambda: polygon_geometry([[x, y, 0.0] for x, y in SQUARE]), MeshError,
        r"^coords must be an \(n, 2\) array of points, got shape \(4, 3\)$"),
}


@pytest.mark.parametrize("call, error, message", CASES.values(),
                         ids=CASES.keys())
def test_bad_argument_is_named(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_only_mesh_checks_numbers():
    # whether an argument is made of real numbers is decided by the two
    # helpers in mesh (_entries for mesh input, _real for the rest) alone
    src = Path(__file__).resolve().parent.parent / "src"
    found = set()
    for path in sorted(src.rglob("*.py")):
        if path == src / "vemlab" / "mesh.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr == "kind"
                    and isinstance(node.value, ast.Attribute)
                    and node.value.attr == "dtype"):
                found.add(f"{path.relative_to(src)}: .dtype.kind")
            if isinstance(node, ast.Call) and "_holds_bool" in {
                    getattr(node.func, "id", None),
                    getattr(node.func, "attr", None)}:
                found.add(f"{path.relative_to(src)}: _holds_bool()")
    assert not found, sorted(found)
