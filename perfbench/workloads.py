"""The benchmark's workloads: each is one ``vemlab.ExperimentConfig``.

This module holds plain data only, so the parent process can read it
without importing vemlab.  ``WORKLOADS`` are the measured configs and
``TOY`` the same configs at toy sizes for the benchmark's own test.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    """One experiment config plus the correctness checks that apply to it.

    ``check_slopes`` turns on the convergence-order gate, which needs
    three sizes per family to be meaningful.
    """

    name: str
    k: int
    families: tuple
    sizes: tuple
    check_slopes: bool = False

    def config_kwargs(self, seed, out):
        return dict(k=self.k, families=self.families, sizes=self.sizes,
                    seed=seed, out=out)

    @property
    def n_meshes(self):
        return len(self.families) * len(self.sizes)


# Why each workload was chosen, and which layers should move its
# end-to-end metrics, is recorded in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    # Lloyd relaxation is most of the run; the k=1 solve is tiny.
    Workload(name="lloyd_k1", k=1, families=("lloyd100",), sizes=(1600,)),
    # 1,800 non-convex cells, 38,161 DoFs: high-order element work, many
    # internal moments and a large sparse factorisation.
    Workload(name="concave_k4", k=4, families=("concave",), sizes=(900,)),
    # The paper's workflow: nine small and medium meshes and a CSV report.
    Workload(name="sweep_k2", k=2, families=("square", "concave", "lloyd0"),
             sizes=(25, 100, 400), check_slopes=True),
)}

TOY = {
    "lloyd_k1": Workload(name="lloyd_k1", k=1, families=("lloyd100",),
                         sizes=(16,)),
    "concave_k4": Workload(name="concave_k4", k=4, families=("concave",),
                           sizes=(4,)),
    "sweep_k2": Workload(name="sweep_k2", k=2,
                         families=("square", "concave", "lloyd0"),
                         sizes=(4, 16)),
}
