"""Command-line interface.

Subcommands: generate, cluster, baseline, spectrum, gyre, walk. All
commands write plot-ready CSV/JSON artifacts; images are out of scope.
Exit codes: 0 success, 2 configuration error, 3 input format error,
4 numerical failure, 5 insufficient eigenvectors, 6 out of memory.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import benchmarks, gyre as gyre_mod, io, supra as supra_mod, walks
from .clustering import score_against, spectral_cluster
from .errors import GraphFormatError, InsufficientSpatialEigenvectors, StglError
from .laplacian import assemble_system, eigendecompose
from .operators import propagate_densities

OUT_DIR_ENV = "STGL_OUT_DIR"

# name -> (seed -> (graph, labels or None), planted cluster count)
GENERATORS = {
    "benchmark1": (benchmarks.gen_benchmark1, 3),
    "benchmark2": (benchmarks.gen_benchmark2, 4),
    "linegraph": (lambda seed: (benchmarks.gen_line_graph(), None), 3),
    "planted": (lambda seed: benchmarks.static_blocks(seed=seed), 2),
    "gyre": (lambda seed: (gyre_mod.gyre_graph(
        gyre_mod.UlamGrid(), gyre_mod.GyreParams(), seed=seed), None), 2),
}

# main's exit code of an error: the first entry whose classes it is an instance of
ERROR_CODES = (
    (InsufficientSpatialEigenvectors, 5),
    ((GraphFormatError, FileNotFoundError), 3),
    (ValueError, 2),
    (StglError, 4),  # ConvergenceFailure, DensityVanished, StepTooLarge, ...
    (MemoryError, 6),
)


def _make_dir(path):
    """``path``, created if missing; ValueError where it cannot be a directory."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as err:
        raise ValueError(f"cannot use {path!r} as output directory: "
                         f"{err.strerror}") from err
    return path


def _load_input(args):
    if args.input is not None:
        graph, labels = io.load_graph(args.input)
        return graph, labels, {"input": args.input}
    graph, labels = GENERATORS[args.generator][0](args.gen_seed)
    return graph, labels, {"generator": args.generator, "gen_seed": args.gen_seed}


def _add_input_options(parser):
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", help="path to a graph JSON file")
    source.add_argument("--generator", choices=GENERATORS,
                        help="generate the input graph in memory")
    parser.add_argument("--gen-seed", type=int, default=0,
                        help="seed for --generator (default 0)")


def _add_cluster_options(parser):
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--restarts", type=int, default=10)


def _check_counts(args):
    """Reject a --k, --restarts, --walkers or --j below 1, a --views below 2,
    or a --seed or --gen-seed below 0, where the command has that option."""
    for name, least in (("k", 1), ("restarts", 1), ("walkers", 1), ("j", 1),
                        ("seed", 0), ("views", 2), ("gen_seed", 0)):
        value = getattr(args, name, least)
        if value < least:
            raise ValueError(f"--{name.replace('_', '-')} must be at least "
                             f"{least}, got {value}")


def _write_boxes(path, grid):
    """Box-grid geometry sidecar of a gyre graph, for spatial plotting."""
    io.write_json(path, {
        "nx": grid.nx, "ny": grid.ny,
        "particles_per_box": grid.particles_per_box,
        "centers": grid.centers(),
    })


def _write_outputs(out, *files):
    """Write each ``(name, writer, *args)`` of ``files``, in order, by
    ``writer(os.path.join(out, name), *args)`` (an ``out`` of "" keeps paths).
    A name given twice, or one that is a directory, is a ValueError before the
    first write, so a failed command leaves no partial set of files."""
    paths = [os.path.join(out, name) for name, *_ in files]
    for k, path in enumerate(paths):
        if path in paths[:k]:
            raise ValueError(f"two output files of this run are named {path!r}")
        io.check_output_file(path)
    for path, (_, writer, *args) in zip(paths, files):
        writer(path, *args)


def _pipeline_outputs(result, **results):
    """The labels.csv and spectrum.csv entries of a pipeline result, and
    ``results`` plus its spectrum and selection."""
    emb = result.embedding
    return ((("labels.csv", io.save_labels_csv, result.clustering.labels),
             ("spectrum.csv", io.save_spectrum_csv, emb.eigenvalues, emb.tags)),
            {"eigenvalues": emb.eigenvalues, "tags": list(emb.tags),
             "selection": [i + 1 for i in result.selection], **results})


def cmd_generate(args):
    path = (os.path.join(_make_dir(args.out), f"{args.name}.json")
            if args.file is None else args.file)
    if not os.path.basename(path) or os.path.isdir(path):
        raise ValueError(f"output path {path!r} does not name a file")
    _make_dir(os.path.dirname(path) or os.curdir)
    generate, k_true = GENERATORS[args.name]
    graph, labels = generate(args.seed)
    boxes = ([(os.path.splitext(path)[0] + "_boxes.json", _write_boxes,
               gyre_mod.UlamGrid())] if args.name == "gyre" else [])
    _write_outputs("", (path, io.save_graph, graph, labels), *boxes)
    print(f"{args.name}: n={graph.n} M={graph.M} directed={graph.directed} "
          f"k_true={k_true} -> {path}")
    return 0


def cmd_cluster(args):
    graph, labels, source = _load_input(args)
    out = _make_dir(args.out)
    start = time.perf_counter()
    result = spectral_cluster(graph, args.k, seed=args.seed,
                              restarts=args.restarts,
                              self_loops=not args.no_self_loops, truth=labels)
    timings = {"pipeline_s": time.perf_counter() - start}

    files, results = _pipeline_outputs(result, inertia=result.clustering.inertia,
                                       ari_per_view=result.ari_per_view)
    config = {"command": "cluster", "k": args.k, "seed": args.seed,
              "restarts": args.restarts, "self_loops": not args.no_self_loops,
              **source}
    vectors = ([("eigenvectors.csv", io.save_eigenvectors_csv, result.embedding)]
               if args.export_vectors else [])
    _write_outputs(out, *files, *vectors,
                   ("report.json", io.write_report, config, results, timings))
    if result.ari_per_view is not None:
        ari = result.ari_per_view
        print(f"ARI view 1: {ari[0]:.3f}  view {graph.M}: {ari[-1]:.3f}")
    print(f"wrote labels.csv, spectrum.csv, report.json to {out}")
    return 0


def cmd_baseline(args):
    graph, labels, source = _load_input(args)
    a_grid = [float(v) for v in args.a_grid.split(",") if v.strip()]
    if not a_grid:
        raise ValueError("--a-grid must contain at least one value")
    out = _make_dir(args.out)
    if graph.directed:
        print("warning: directed input symmetrized for the supra-Laplacian",
              file=sys.stderr)
        graph = supra_mod.symmetrize(graph)
    per_a = []
    per_a_labels = []
    start = time.perf_counter()
    for a in a_grid:
        system = supra_mod.build_supra(graph, a, args.laplacian_variant)
        result = supra_mod.supra_cluster(system, args.k, seed=args.seed,
                                         restarts=args.restarts,
                                         filter_temporal=not args.keep_temporal)
        entry = {"a": a, "inertia": result.inertia}
        if labels is not None:
            ari = score_against(result.labels, labels)
            entry["ari_per_view"] = ari
            entry["ari_endpoint_mean"] = float((ari[0] + ari[-1]) / 2.0)
        per_a.append(entry)
        per_a_labels.append(result.labels)
    timings = {"total_s": time.perf_counter() - start}
    results = {"per_a": per_a, "laplacian_variant": args.laplacian_variant}
    if labels is not None:
        best = max(per_a, key=lambda e: e["ari_endpoint_mean"])
        results["best_a"] = best["a"]
    config = {"command": "baseline", "k": args.k, "a_grid": a_grid,
              "laplacian_variant": args.laplacian_variant, "seed": args.seed,
              "restarts": args.restarts,
              "keep_temporal": args.keep_temporal, **source}
    _write_outputs(out, *((f"labels_a{a:g}.csv", io.save_labels_csv, a_labels)
                          for a, a_labels in zip(a_grid, per_a_labels)),
                   ("baseline_report.json", io.write_report, config, results,
                    timings))
    print(f"wrote baseline_report.json to {out}")
    return 0


def cmd_spectrum(args):
    graph, _, source = _load_input(args)
    out = _make_dir(args.out)
    start = time.perf_counter()
    ops = propagate_densities(graph, self_loops=not args.no_self_loops)
    system = assemble_system(ops)
    emb = eigendecompose(system, min(args.j, system.size),
                         full_spectrum=args.full_spectrum)
    timings = {"total_s": time.perf_counter() - start}
    config = {"command": "spectrum", "j": args.j,
              "full_spectrum": args.full_spectrum,
              "self_loops": not args.no_self_loops, **source}
    results = {"eigenvalues": emb.eigenvalues, "tags": list(emb.tags)}
    vectors = ([("eigenvectors.csv", io.save_eigenvectors_csv, emb)]
               if args.export_vectors else [])
    _write_outputs(out, ("spectrum.csv", io.save_spectrum_csv, emb.eigenvalues,
                         emb.tags), *vectors,
                   ("spectrum_report.json", io.write_report, config, results,
                    timings))
    for i, (ev, tag) in enumerate(zip(emb.eigenvalues, emb.tags), start=1):
        print(f"{i:3d}  C: {ev: .6f}  L: {1 - ev: .6f}  {tag}")
    return 0


def cmd_gyre(args):
    out = _make_dir(args.out)
    grid = gyre_mod.UlamGrid()
    params = gyre_mod.GyreParams()
    timings = {}
    start = time.perf_counter()
    graph = gyre_mod.gyre_graph(grid, params, M=args.views, seed=args.gen_seed)
    timings["integration_s"] = time.perf_counter() - start
    start = time.perf_counter()
    # count rows are strictly positive, so no self-loop regularization: the
    # operators stay exactly the Ulam estimates
    result = spectral_cluster(graph, args.k, seed=args.seed,
                              restarts=args.restarts, self_loops=False)
    timings["pipeline_s"] = time.perf_counter() - start
    boundary = gyre_mod.boundary_columns(result.clustering.labels, grid)
    amplitude = float((boundary.max() - boundary.min()) / 2.0)
    files, results = _pipeline_outputs(result, boundary_x=boundary,
                                       boundary_amplitude=amplitude)
    config = {"command": "gyre", "k": args.k, "views": args.views,
              "gen_seed": args.gen_seed, "seed": args.seed,
              "restarts": args.restarts}
    _write_outputs(out, ("gyre.json", io.save_graph, graph),
                   ("gyre_boxes.json", _write_boxes, grid), *files,
                   ("boundary.csv", io.write_csv, ["view", "boundary_x"],
                    [range(1, len(boundary) + 1), boundary]),
                   ("report.json", io.write_report, config, results, timings))
    print(f"boundary oscillates in [{boundary.min():.3f}, {boundary.max():.3f}]; "
          f"wrote artifacts to {out}")
    return 0


def cmd_walk(args):
    vertices = sorted(int(v) for v in args.vertices.split(",") if v.strip())
    if not vertices:
        raise ValueError("--vertices must list at least one vertex")
    for v, w in zip(vertices, vertices[1:]):
        if v == w:
            raise ValueError(f"--vertices lists {v} more than once")
    graph, _, source = _load_input(args)
    out = _make_dir(args.out)
    ops = propagate_densities(graph, self_loops=not args.no_self_loops)
    starts = [vertices[i % len(vertices)] for i in range(args.walkers)]
    paths = walks.simulate_walks(ops, starts, args.seed)
    rate = walks.escape_rate(paths, vertices)
    occ = walks.occupancy(paths, vertices)
    config = {"command": "walk", "vertices": vertices, "walkers": args.walkers,
              "seed": args.seed, "self_loops": not args.no_self_loops, **source}
    results = {"escape_rate": rate, "occupancy_per_view": occ,
               "final_outside_fraction": float(1.0 - occ[-1])}
    _write_outputs(out, ("walk_report.json", io.write_report, config, results, {}))
    print(f"escape rate of {vertices}: {rate:.4f}; "
          f"final outside fraction {1 - occ[-1]:.4f}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="stgl",
        description="Spectral clustering of time-evolving graphs via the "
                    "spatio-temporal graph Laplacian.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a benchmark graph file")
    p.add_argument("name", choices=GENERATORS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--file", help="explicit output file path")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("cluster", help="full clustering pipeline")
    _add_input_options(p)
    p.add_argument("--k", type=int, required=True, help="number of clusters")
    p.add_argument("--no-self-loops", action="store_true",
                   help="skip unit self-loop regularization")
    p.add_argument("--export-vectors", action="store_true")
    _add_cluster_options(p)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("baseline", help="supra-Laplacian comparison over an a-grid")
    _add_input_options(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--a-grid", required=True,
                   help="comma-separated coupling strengths, e.g. 0.05,0.1,0.3")
    p.add_argument("--laplacian-variant", choices=supra_mod.VARIANTS,
                   default="normalized")
    p.add_argument("--keep-temporal", action="store_true",
                   help="do not filter temporal eigenvectors")
    _add_cluster_options(p)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("spectrum", help="dominant eigenvalues with tags")
    _add_input_options(p)
    p.add_argument("--j", type=int, default=10, help="how many eigenvalues")
    p.add_argument("--full-spectrum", action="store_true",
                   help="include negative eigenvalues")
    p.add_argument("--no-self-loops", action="store_true")
    p.add_argument("--export-vectors", action="store_true")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("gyre", help="double-gyre pipeline end to end")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--views", type=int, default=10)
    p.add_argument("--gen-seed", type=int, default=0)
    _add_cluster_options(p)
    p.set_defaults(func=cmd_gyre)

    p = sub.add_parser("walk", help="random-walk escape-rate experiment")
    _add_input_options(p)
    p.add_argument("--vertices", required=True,
                   help="comma-separated vertex set to track")
    p.add_argument("--walkers", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-self-loops", action="store_true")
    p.set_defaults(func=cmd_walk)

    # every subcommand's last option, so each usage line ends with it
    for p in sub.choices.values():
        p.add_argument("--out", default=os.environ.get(OUT_DIR_ENV, "."),
                       help=f"output directory (default ${OUT_DIR_ENV} or .)")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_counts(args)  # before any input is read or directory made
        return args.func(args)
    except (StglError, ValueError, FileNotFoundError, MemoryError) as err:
        # a MemoryError raised by the interpreter itself has no text
        print(f"error: {str(err) or type(err).__name__}", file=sys.stderr)
        return next(code for types, code in ERROR_CODES if isinstance(err, types))


if __name__ == "__main__":
    sys.exit(main())
