"""Command-line interface.

Subcommands: generate, cluster, baseline, spectrum, gyre, walk. All
commands write plot-ready CSV/JSON artifacts; images are out of scope.
Exit codes: 0 success, 2 configuration error, 3 input format error,
4 numerical failure, 5 insufficient eigenvectors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import benchmarks, gyre as gyre_mod, io, supra as supra_mod, walks
from .clustering import score_against, spectral_cluster
from .errors import (ConvergenceFailure, DensityVanished, GraphFormatError,
                     InsufficientSpatialEigenvectors, StepTooLarge, StglError,
                     UnknownGenerator, ZeroOutDegree, ZeroVariance)
from .laplacian import assemble_system, eigendecompose
from .operators import propagate_densities

OUT_DIR_ENV = "STGL_OUT_DIR"

GENERATORS = ("benchmark1", "benchmark2", "linegraph", "planted", "gyre")

EXIT_CONFIG = 2
EXIT_FORMAT = 3
EXIT_NUMERICAL = 4
EXIT_INSUFFICIENT = 5


def _generate(name, seed):
    """Returns (graph, labels-or-None, info dict)."""
    if name == "benchmark1":
        graph, labels = benchmarks.gen_benchmark1(seed)
        return graph, labels, {"k_true": 3}
    if name == "benchmark2":
        graph, labels = benchmarks.gen_benchmark2(seed)
        return graph, labels, {"k_true": 4}
    if name == "linegraph":
        return benchmarks.gen_line_graph(), None, {"k_true": 3}
    if name == "planted":
        graph, labels = benchmarks.static_blocks(seed=seed)
        return graph, labels, {"k_true": 2}
    if name == "gyre":
        grid = gyre_mod.UlamGrid()
        graph = gyre_mod.gyre_graph(grid, gyre_mod.GyreParams(), seed=seed)
        return graph, None, {"k_true": 2, "grid": grid}
    raise UnknownGenerator(f"unknown generator {name!r}; expected one of {GENERATORS}")


def _resolve_out(args):
    out = getattr(args, "out", None)
    if out is None:
        out = os.environ.get(OUT_DIR_ENV, ".")
    os.makedirs(out, exist_ok=True)
    return out


def _load_input(args):
    if args.input is not None:
        graph, labels = io.load_graph(args.input)
        return graph, labels, {"input": args.input}
    graph, labels, _ = _generate(args.generator, args.gen_seed)
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
    parser.add_argument("--out", help=f"output directory (default ${OUT_DIR_ENV} or .)")


def _write_boxes(path, grid):
    """Box-grid geometry sidecar of a gyre graph, for spatial plotting."""
    io.write_json(path, {
        "nx": grid.nx, "ny": grid.ny,
        "particles_per_box": grid.particles_per_box,
        "centers": grid.centers(),
    })


def cmd_generate(args):
    graph, labels, info = _generate(args.name, args.seed)
    out = _resolve_out(args)
    path = args.file or os.path.join(out, f"{args.name}.json")
    io.save_graph(path, graph, labels)
    if args.name == "gyre":
        _write_boxes(os.path.splitext(path)[0] + "_boxes.json", info["grid"])
    print(f"{args.name}: n={graph.n} M={graph.M} directed={graph.directed} "
          f"k_true={info.get('k_true')} -> {path}")
    return 0


def cmd_cluster(args):
    graph, labels, source = _load_input(args)
    out = _resolve_out(args)
    timings = {}
    start = time.perf_counter()
    result = spectral_cluster(graph, args.k, seed=args.seed,
                              restarts=args.restarts,
                              self_loops=not args.no_self_loops, truth=labels)
    timings["pipeline_s"] = time.perf_counter() - start

    emb = result.embedding
    io.save_labels_csv(os.path.join(out, "labels.csv"), result.clustering.labels)
    io.save_spectrum_csv(os.path.join(out, "spectrum.csv"), emb.eigenvalues, emb.tags)
    if args.export_vectors:
        io.save_eigenvectors_csv(os.path.join(out, "eigenvectors.csv"), emb)
    config = {"command": "cluster", "k": args.k, "seed": args.seed,
              "restarts": args.restarts, "self_loops": not args.no_self_loops,
              **source}
    results = {
        "eigenvalues": emb.eigenvalues,
        "tags": list(emb.tags),
        "selection": [i + 1 for i in result.selected.selection],
        "inertia": result.clustering.inertia,
        "ari_per_view": result.ari_per_view,
    }
    io.write_report(os.path.join(out, "report.json"), config, results, timings)
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
    out = _resolve_out(args)
    if graph.directed:
        print("warning: directed input symmetrized for the supra-Laplacian",
              file=sys.stderr)
        graph = supra_mod.symmetrize(graph)
    timings = {}
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
    # written only once every a has solved, so a failing a leaves no files
    for a, a_labels in zip(a_grid, per_a_labels):
        io.save_labels_csv(os.path.join(out, f"labels_a{a:g}.csv"), a_labels)
    timings["total_s"] = time.perf_counter() - start
    results = {"per_a": per_a, "laplacian_variant": args.laplacian_variant}
    if labels is not None:
        best = max(per_a, key=lambda e: e["ari_endpoint_mean"])
        results["best_a"] = best["a"]
    config = {"command": "baseline", "k": args.k, "a_grid": a_grid,
              "laplacian_variant": args.laplacian_variant, "seed": args.seed,
              "restarts": args.restarts,
              "keep_temporal": args.keep_temporal, **source}
    io.write_report(os.path.join(out, "baseline_report.json"), config, results,
                    timings)
    print(f"wrote baseline_report.json to {out}")
    return 0


def cmd_spectrum(args):
    graph, _, source = _load_input(args)
    out = _resolve_out(args)
    start = time.perf_counter()
    ops = propagate_densities(graph, self_loops=not args.no_self_loops)
    system = assemble_system(ops)
    emb = eigendecompose(system, min(args.j, system.size),
                         full_spectrum=args.full_spectrum)
    timings = {"total_s": time.perf_counter() - start}
    io.save_spectrum_csv(os.path.join(out, "spectrum.csv"), emb.eigenvalues,
                         emb.tags)
    if args.export_vectors:
        io.save_eigenvectors_csv(os.path.join(out, "eigenvectors.csv"), emb)
    config = {"command": "spectrum", "j": args.j,
              "full_spectrum": args.full_spectrum,
              "self_loops": not args.no_self_loops, **source}
    io.write_report(os.path.join(out, "spectrum_report.json"), config,
                    {"eigenvalues": emb.eigenvalues, "tags": list(emb.tags)},
                    timings)
    for i, (ev, tag) in enumerate(zip(emb.eigenvalues, emb.tags), start=1):
        print(f"{i:3d}  C: {ev: .6f}  L: {1 - ev: .6f}  {tag}")
    return 0


def cmd_gyre(args):
    out = _resolve_out(args)
    grid = gyre_mod.UlamGrid()
    params = gyre_mod.GyreParams()
    timings = {}
    start = time.perf_counter()
    graph = gyre_mod.gyre_graph(grid, params, M=args.views, seed=args.gen_seed)
    timings["integration_s"] = time.perf_counter() - start

    io.save_graph(os.path.join(out, "gyre.json"), graph)
    _write_boxes(os.path.join(out, "gyre_boxes.json"), grid)
    start = time.perf_counter()
    # count rows are strictly positive, so no self-loop regularization: the
    # operators stay exactly the Ulam estimates
    result = spectral_cluster(graph, args.k, seed=args.seed,
                              restarts=args.restarts, self_loops=False)
    timings["pipeline_s"] = time.perf_counter() - start
    emb = result.embedding
    io.save_labels_csv(os.path.join(out, "labels.csv"), result.clustering.labels)
    io.save_spectrum_csv(os.path.join(out, "spectrum.csv"), emb.eigenvalues, emb.tags)
    boundary = gyre_mod.boundary_columns(result.clustering.labels, grid)
    io.write_csv(os.path.join(out, "boundary.csv"), ["view", "boundary_x"],
                  [[t + 1, repr(float(b))] for t, b in enumerate(boundary)])
    config = {"command": "gyre", "k": args.k, "views": args.views,
              "gen_seed": args.gen_seed, "seed": args.seed,
              "restarts": args.restarts}
    results = {
        "eigenvalues": emb.eigenvalues,
        "tags": list(emb.tags),
        "selection": [i + 1 for i in result.selected.selection],
        "boundary_x": boundary,
        "boundary_amplitude": float((boundary.max() - boundary.min()) / 2.0),
    }
    io.write_report(os.path.join(out, "report.json"), config, results, timings)
    print(f"boundary oscillates in [{boundary.min():.3f}, {boundary.max():.3f}]; "
          f"wrote artifacts to {out}")
    return 0


def cmd_walk(args):
    graph, _, source = _load_input(args)
    vertices = sorted(int(v) for v in args.vertices.split(",") if v.strip())
    if not vertices:
        raise ValueError("--vertices must list at least one vertex")
    out = _resolve_out(args)
    ops = propagate_densities(graph, self_loops=not args.no_self_loops)
    starts = [vertices[i % len(vertices)] for i in range(args.walkers)]
    paths = walks.simulate_walks(ops, starts, args.seed)
    rate = walks.escape_rate(paths, vertices)
    occ = walks.occupancy(paths, vertices)
    config = {"command": "walk", "vertices": vertices, "walkers": args.walkers,
              "seed": args.seed, "self_loops": not args.no_self_loops, **source}
    results = {"escape_rate": rate, "occupancy_per_view": occ,
               "final_outside_fraction": float(1.0 - occ[-1])}
    io.write_report(os.path.join(out, "walk_report.json"), config, results, {})
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
    p.add_argument("--out", help=f"output directory (default ${OUT_DIR_ENV} or .)")
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
    p.add_argument("--out", help=f"output directory (default ${OUT_DIR_ENV} or .)")
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
    p.add_argument("--out", help=f"output directory (default ${OUT_DIR_ENV} or .)")
    p.set_defaults(func=cmd_walk)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InsufficientSpatialEigenvectors as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INSUFFICIENT
    except (GraphFormatError, FileNotFoundError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_FORMAT
    except (ConvergenceFailure, DensityVanished, ZeroOutDegree, ZeroVariance,
            StepTooLarge) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (UnknownGenerator, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except StglError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
