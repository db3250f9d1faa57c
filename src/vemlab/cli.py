"""Command-line entry points: convergence runs and mesh generation."""

import argparse

from .harness import (DEFAULT_SIZES, STUDY_FAMILIES, ExperimentConfig,
                      run_experiment)
from .local import MODES
from .mesh import save_mesh
from .meshgen import FAMILIES, GeneratorSpec, generate


def _sizes(text):
    """The cell counts of ``--sizes``, a comma-separated list."""
    try:
        return tuple(int(s) for s in text.split(",") if s)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="vemlab",
        description="Virtual element solver on polygonal meshes: "
                    "convergence studies and mesh generation.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser(
        "run", help="sweep mesh families and write a convergence report")
    run_p.add_argument("--k", type=int, default=1,
                       help="element degree, 1..4 (default 1)")
    run_p.add_argument("--family", default="square",
                       help="comma-separated subset of "
                            f"{','.join(STUDY_FAMILIES)} (default square)")
    run_p.add_argument("--sizes", type=_sizes,
                       default=",".join(str(s) for s in DEFAULT_SIZES),
                       help="comma-separated cell counts "
                            "(default 25,100,400,1600)")
    run_p.add_argument("--mode", default="standard",
                       choices=MODES,
                       help="consistency-term variant (default standard)")
    run_p.add_argument("--seed", type=int, default=0,
                       help="random seed for the Voronoi families")
    run_p.add_argument("--out", default="report.csv",
                       help="CSV output path (default report.csv)")
    run_p.set_defaults(usage_error=run_p.error)

    mesh_p = sub.add_parser("mesh", help="mesh utilities")
    mesh_sub = mesh_p.add_subparsers(dest="mesh_command", required=True)
    gen_p = mesh_sub.add_parser("gen", help="generate a mesh, save as JSON")
    gen_p.add_argument("--family", required=True, choices=sorted(FAMILIES))
    gen_p.add_argument("--cells", type=int, required=True,
                       help="target cell count (squares/seeds per family)")
    gen_p.add_argument("--seed", type=int, default=0)
    gen_p.add_argument("--iters", type=int, default=0,
                       help="Lloyd iterations (voronoi family only)")
    gen_p.add_argument("--out", required=True, help="output JSON path")
    gen_p.set_defaults(usage_error=gen_p.error)
    return parser


def main(argv=None):
    """Run the command; a value that the config, the generator spec or the
    generator rejects ends in the usage error of the subcommand that ran
    (exit status 2)."""
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        try:
            config = ExperimentConfig(
                k=args.k,
                families=tuple(f for f in args.family.split(",") if f),
                sizes=args.sizes,
                mode=args.mode,
                seed=args.seed,
                out=args.out)
        except ValueError as exc:
            args.usage_error(str(exc))
        reports = run_experiment(config)
        for (family, k, mode) in sorted(reports):
            report = reports[(family, k, mode)]
            print(f"{family} k={k} {mode}: "
                  f"slope_L2={report.slope_L2:.3f} "
                  f"slope_H1={report.slope_H1:.3f}")
        print(f"report written to {args.out}")
    else:
        try:
            mesh = generate(GeneratorSpec(args.family, args.cells,
                                          seed=args.seed,
                                          lloyd_iterations=args.iters))
        except ValueError as exc:
            args.usage_error(str(exc))
        save_mesh(mesh, args.out)
        print(f"wrote {args.out}: {mesh.num_cells} cells, "
              f"{mesh.num_vertices} vertices")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
