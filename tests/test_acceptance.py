"""End-to-end acceptance checks.

Every test prints one ``[PASS]``/``[FAIL]`` line (bypassing output capture)
before asserting, so a plain ``pytest tests/test_acceptance.py`` shows the
scoreboard.  Expensive mesh sweeps are cached in a session fixture and
shared between the convergence checks.
"""

import time

import numpy as np
import pytest

from vemlab.assembly import apply_dirichlet, assemble, interpolate, solve
from vemlab.basis import derivative_table, polygon_quadrature
from vemlab.harness import DEFAULT_SIZES, ExperimentConfig, run_experiment
from vemlab.local import Coefficients, local_system, projector_set
from vemlab.mesh import element_geometry, polygon_geometry
from vemlab.meshgen import GeneratorSpec, generate
from vemlab.problems import builtin_problem, polynomial_problem

from oracles import green_monomial_integral, random_polygon_bank

FAMILIES = ("square", "concave", "lloyd0", "lloyd100")


@pytest.fixture
def announce(capsys):
    def _announce(name, ok, detail=""):
        line = f"[{'PASS' if ok else 'FAIL'}] {name}"
        if detail:
            line += f" -- {detail}"
        with capsys.disabled():
            print(line, flush=True)
    return _announce


class SweepCache:
    """Meshes and convergence runs shared by the convergence criteria."""

    def __init__(self):
        self.meshes = {}
        self.mesh_time = {}
        self.runs = {}
        self.problem = builtin_problem()

    def ensure_meshes(self, family, sizes=DEFAULT_SIZES):
        t0 = time.perf_counter()
        for size in sizes:
            if (family, size) not in self.meshes:
                self.meshes[(family, size)] = generate(
                    GeneratorSpec(family, size, seed=0))
        self.mesh_time[family] = (self.mesh_time.get(family, 0.0)
                                  + time.perf_counter() - t0)

    def report(self, family, k, mode):
        key = (family, k, mode)
        if key not in self.runs:
            self.ensure_meshes(family)
            config = ExperimentConfig(k=k, families=(family,),
                                      sizes=DEFAULT_SIZES, mode=mode, seed=0)
            t0 = time.perf_counter()
            rep = run_experiment(config, problem=self.problem,
                                 meshes=self.meshes)[key]
            self.runs[key] = (rep, time.perf_counter() - t0)
        return self.runs[key][0]

    def elapsed(self, keys, families):
        return (sum(self.runs[k][1] for k in keys)
                + sum(self.mesh_time.get(f, 0.0) for f in families))


@pytest.fixture(scope="session")
def sweeps():
    return SweepCache()


def test_criterion_1_projector_idempotence(announce):
    """Pi-nabla / Pi0 / projected gradient reproduce random polynomials on
    200 polygons from all four families, k = 1..4, to 1e-10."""
    t0 = time.perf_counter()
    bank = random_polygon_bank(seed=42)
    assert len(bank) == 200
    rng = np.random.default_rng(2024)
    worst = 0.0
    for geom in bank:
        for k in range(1, 5):
            ps = projector_set(geom, k)
            c = rng.uniform(-1.0, 1.0, size=ps.D.shape[1])
            dofs = ps.D @ c
            scale = max(1.0, np.abs(c).max())
            worst = max(worst,
                        np.abs(ps.PiNabla @ dofs - c).max() / scale,
                        np.abs(ps.Pi0k @ dofs - c).max() / scale)
            dx = (derivative_table(k, 0) / geom.diameter) @ c
            dy = (derivative_table(k, 1) / geom.diameter) @ c
            if dx.size:
                gscale = max(1.0, np.abs(dx).max(), np.abs(dy).max())
                worst = max(worst,
                            np.abs(ps.Pi0GradX @ dofs - dx).max() / gscale,
                            np.abs(ps.Pi0GradY @ dofs - dy).max() / gscale)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 10.0
    announce("criterion 1: projector idempotence on 200 polygons, k=1..4",
             ok, f"worst error {worst:.2e} (tol 1e-10), {elapsed:.1f}s (<10s)")
    assert worst < 1e-10
    assert elapsed < 10.0


def test_criterion_2_patch_tests(announce):
    """Constant-coefficient degree-k solutions are reproduced with DoF
    error < 1e-9 on all four families at size 100."""
    t0 = time.perf_counter()
    worst = 0.0
    for family in FAMILIES:
        mesh = generate(GeneratorSpec(family, 100, seed=0))
        for k in range(1, 5):
            prob = polynomial_problem(k)
            system = assemble(mesh, k, prob.coefficients)
            apply_dirichlet(system, prob.p_ex, mesh, k)
            u = solve(system)
            err = np.abs(u - interpolate(mesh, k, prob.p_ex)).max()
            worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 30.0
    announce("criterion 2: patch tests k=1..4 on four families at size 100",
             ok, f"worst DoF error {worst:.2e} (tol 1e-9), "
                 f"{elapsed:.1f}s (<30s)")
    assert worst < 1e-9
    assert elapsed < 30.0


def test_criterion_3_convergence_k1(announce, sweeps):
    """k=1 slopes on square and lloyd100: H1 in [0.85, 1.15], L2 in
    [1.8, 2.2]."""
    keys = [("square", 1, "standard"), ("lloyd100", 1, "standard")]
    reports = {key: sweeps.report(*key) for key in keys}
    elapsed = sweeps.elapsed(keys, ("square", "lloyd100"))
    ok = elapsed < 60.0
    details = []
    for key in keys:
        rep = reports[key]
        ok &= 0.85 <= rep.slope_H1 <= 1.15 and 1.8 <= rep.slope_L2 <= 2.2
        details.append(f"{key[0]}: L2 {rep.slope_L2:.2f}, "
                       f"H1 {rep.slope_H1:.2f}")
    announce("criterion 3: k=1 convergence slopes (square, lloyd100)", ok,
             "; ".join(details) + f"; {elapsed:.1f}s (<60s)")
    for key in keys:
        assert 0.85 <= reports[key].slope_H1 <= 1.15
        assert 1.8 <= reports[key].slope_L2 <= 2.2
    assert elapsed < 60.0


def test_criterion_4_convergence_k4(announce, sweeps):
    """k=4 slopes: square H1 in [3.7, 4.3] and L2 in [4.7, 5.3]; concave
    within the same windows widened by 0.2."""
    rep_sq = sweeps.report("square", 4, "standard")
    rep_cc = sweeps.report("concave", 4, "standard")
    elapsed = sweeps.elapsed([("square", 4, "standard"),
                              ("concave", 4, "standard")],
                             ("square", "concave"))
    ok_sq = 3.7 <= rep_sq.slope_H1 <= 4.3 and 4.7 <= rep_sq.slope_L2 <= 5.3
    ok_cc = 3.5 <= rep_cc.slope_H1 <= 4.5 and 4.5 <= rep_cc.slope_L2 <= 5.5
    ok = ok_sq and ok_cc and elapsed < 300.0
    announce("criterion 4: k=4 convergence slopes (square, concave)", ok,
             f"square: L2 {rep_sq.slope_L2:.2f}, H1 {rep_sq.slope_H1:.2f}; "
             f"concave: L2 {rep_cc.slope_L2:.2f}, H1 {rep_cc.slope_H1:.2f}; "
             f"{elapsed:.1f}s (<300s)")
    assert ok_sq
    assert ok_cc
    assert elapsed < 300.0


def test_criterion_5_variant_suboptimality(announce, sweeps):
    """The gradient-of-energy-projection consistency variant loses at least
    one full L2 order at k=4 and coincides with the standard mode at k=1."""
    std4 = sweeps.report("square", 4, "standard")
    var4 = sweeps.report("square", 4, "grad_pinabla")
    gap = std4.slope_L2 - var4.slope_L2
    std1 = sweeps.report("square", 1, "standard")
    var1 = sweeps.report("square", 1, "grad_pinabla")
    max_rel = 0.0
    for a, b in zip(std1.records, var1.records):
        for ea, eb in ((a.err_L2_rel, b.err_L2_rel),
                       (a.err_H1_rel, b.err_H1_rel),
                       (a.err_point_rel, b.err_point_rel)):
            max_rel = max(max_rel, abs(ea - eb) / abs(ea))
    ok = gap >= 1.0 and max_rel <= 1e-12
    announce("criterion 5: consistency-variant sub-optimality", ok,
             f"k=4 L2 slopes {std4.slope_L2:.2f} vs {var4.slope_L2:.2f} "
             f"(gap {gap:.2f} >= 1.0); k=1 column agreement "
             f"{max_rel:.2e} (<=1e-12)")
    assert gap >= 1.0
    assert max_rel <= 1e-12


def test_criterion_6_point_error_monotone(announce, sweeps):
    """The relative error at (0.781, 0.766) decreases monotonically under
    square-mesh refinement for k=1 and k=4."""
    results = {}
    ok = True
    for k in (1, 4):
        rep = sweeps.report("square", k, "standard")
        errs = [r.err_point_rel for r in rep.records]
        mono = all(b < a for a, b in zip(errs, errs[1:]))
        results[k] = (errs, mono)
        ok &= mono
    announce("criterion 6: point-error monotone decrease (square, k=1 and "
             "k=4)", ok,
             "; ".join(f"k={k}: " + ">".join(f"{e:.1e}" for e in errs)
                       for k, (errs, _) in results.items()))
    for k in (1, 4):
        assert results[k][1], f"point errors not monotone for k={k}"


def test_criterion_7_module_invariants(announce):
    """Spot-check of the per-module invariants: mesh-area conservation,
    quadrature exactness, stabilization annihilation, constant kernel,
    assembly determinism."""
    failures = []

    # mesh conservation: cell areas partition the unit square
    for family in FAMILIES:
        mesh = generate(GeneratorSpec(family, 64, seed=1))
        total = sum(element_geometry(mesh, c).area
                    for c in range(mesh.num_cells))
        if abs(total - 1.0) > 1e-12:
            failures.append(f"area sum {family}: {total}")

    # quadrature exactness against analytic monomial integrals
    square = polygon_geometry([[0, 0], [1, 0], [1, 1], [0, 1]])
    rule = polygon_quadrature(square, 8)
    for a in range(5):
        for b in range(5):
            val = rule.weights @ (rule.points[:, 0] ** a
                                  * rule.points[:, 1] ** b)
            if abs(val - 1.0 / ((a + 1) * (b + 1))) > 1e-13:
                failures.append(f"quadrature x^{a} y^{b}: {val}")
    pent = polygon_geometry([[0, 0], [1.1, -0.1], [1.5, 0.8], [0.6, 1.3],
                             [-0.2, 0.7]])
    prule = polygon_quadrature(pent, 6)
    for a, b in ((3, 2), (0, 6), (4, 1)):
        val = prule.weights @ (prule.points[:, 0] ** a
                               * prule.points[:, 1] ** b)
        ref = green_monomial_integral(pent.vertices, a, b)
        if abs(val - ref) > 1e-12 * max(1, abs(ref)):
            failures.append(f"pentagon quadrature x^{a} y^{b}")

    # stabilization annihilates polynomial DoFs; local kernel is constants
    bank = random_polygon_bank(seed=13)[::40]
    coeffs = Coefficients.constant(kappa=2.0)
    for geom in bank:
        for k in (1, 3):
            ps = projector_set(geom, k)
            loc = local_system(geom, k, coeffs)
            scale = max(1.0, np.abs(loc.Ah).max())
            if np.abs(loc.S @ ps.D).max() > 1e-10 * scale:
                failures.append(f"S@D on {len(geom.vertices)}-gon k={k}")
            const = ps.D[:, 0]
            if np.abs(loc.Ah @ const).max() > 1e-11 * scale:
                failures.append(f"Ah kernel on {len(geom.vertices)}-gon k={k}")

    # assembly determinism, bit for bit
    mesh = generate(GeneratorSpec("lloyd0", 30, seed=9))
    sys1 = assemble(mesh, 2, coeffs)
    sys2 = assemble(mesh, 2, coeffs)
    sys1.matrix.sort_indices()
    sys2.matrix.sort_indices()
    if not (np.array_equal(sys1.matrix.data, sys2.matrix.data)
            and np.array_equal(sys1.rhs_base, sys2.rhs_base)):
        failures.append("assembly determinism")

    ok = not failures
    announce("criterion 7: module invariant spot-checks", ok,
             "all invariant groups hold" if ok else "; ".join(failures))
    assert not failures, failures
