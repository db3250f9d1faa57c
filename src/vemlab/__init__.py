"""vemlab: virtual element solver on general polygonal meshes.

Solves div(-kappa grad p + b p) + gamma p = f on the unit square with
Dirichlet boundary conditions, for element degrees k = 1..4, and ships a
mesh-family/convergence harness around it.
"""

__version__ = "0.1.0"

from .assembly import (DofMap, SolveError, SparseSystem, apply_dirichlet,
                       assemble, build_dofmap, interpolate, solve)
from .harness import ExperimentConfig, emit_report, run_experiment
from .local import (Coefficients, DofLayout, LocalSystem, ProjectorSet,
                    dof_layout, interpolate_dofs, local_system,
                    projector_set)
from .mesh import (ElementGeometry, MeshError, PolyMesh, RegularityReport,
                   element_geometry, load_mesh, polygon_geometry,
                   regularity_report, save_mesh)
from .meshgen import GeneratorSpec, generate, lloyd_relax
from .postprocess import (ConvergenceReport, ErrorRecord, SolutionProjection,
                          convergence_rates, error_norms, locate_cell,
                          point_error, project_solution)
from .problems import (TestProblem, builtin_problem, constant_problem,
                       polynomial_problem)

__all__ = [
    "__version__",
    # mesh
    "PolyMesh", "ElementGeometry", "RegularityReport", "MeshError",
    "load_mesh", "save_mesh", "element_geometry", "polygon_geometry",
    "regularity_report",
    # mesh generation
    "GeneratorSpec", "generate", "lloyd_relax",
    # element-local operators
    "Coefficients", "DofLayout", "LocalSystem", "ProjectorSet", "dof_layout",
    "interpolate_dofs", "local_system", "projector_set",
    # global assembly
    "DofMap", "SparseSystem", "SolveError", "apply_dirichlet", "assemble",
    "build_dofmap", "interpolate", "solve",
    # post-processing
    "ConvergenceReport", "ErrorRecord", "SolutionProjection",
    "convergence_rates", "error_norms", "locate_cell", "point_error",
    "project_solution",
    # problems & harness
    "TestProblem", "builtin_problem", "constant_problem",
    "polynomial_problem", "ExperimentConfig", "run_experiment",
    "emit_report",
]
