"""The benchmark's workloads: their inputs, their `stgl` jobs and the checks
on each job's outputs.

A workload is run in rounds. ``prepare(stgl, seed, work)`` generates and
writes one round's inputs for generator seed ``seed`` under ``work`` and
returns the round's jobs. A job is one ``stgl.cli.main`` call; its
``check`` reads the job's output directory and returns the quality numbers,
or raises ``CheckFailed``. Every check is computed here from the output
files, never through `stgl`; `stgl` is used only to generate inputs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import sparse

# Generator seed of the warm-up round; outside the ROADMAP's seeds 0-4 and
# the held-out seeds 5-9, so no timed job reuses the warm-up's input.
WARMUP_SEED = 99

WALK_VERTICES = tuple(range(200, 300))  # benchmark1's third cluster
# About 2-3 s of walking per job today; a multiple of the set size gives
# every start the same number of walkers.
WALKERS = 3000
A_GRID = ("1e-4", "0.05", "10")
GYRE_AMPLITUDE = (0.2, 0.3)      # criterion c11
BASELINE_BEST_ARI = 0.95
WALK_MAX_Z = 4.0


class CheckFailed(Exception):
    """A job's outputs are missing, malformed or out of their bounds."""


@dataclass
class Job:
    key: str                 # identifies the input, e.g. "benchmark1/seed0"
    family: str              # jobs of one family share the per-family checks
    argv: list
    check: Callable          # check(out_dir) -> dict of quality numbers


# ---------------------------------------------------------------- checks


def read_labels(path, M, n):
    """Labels from a `view,vertex,label` CSV with exactly M x n rows, in order."""
    try:
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
    except FileNotFoundError as err:
        raise CheckFailed(f"missing {path.name}") from err
    if not rows or rows[0] != ["view", "vertex", "label"]:
        raise CheckFailed(f"{path.name}: bad header {rows[:1]}")
    body = rows[1:]
    if len(body) != M * n:
        raise CheckFailed(f"{path.name}: {len(body)} rows, expected {M * n}")
    try:
        table = np.array([[int(c) for c in row] for row in body], dtype=np.int64)
    except ValueError as err:
        raise CheckFailed(f"{path.name}: non-integer field: {err}") from err
    if table.shape != (M * n, 3):
        raise CheckFailed(f"{path.name}: rows must have three fields")
    expect_view = np.repeat(np.arange(1, M + 1), n)
    expect_vertex = np.tile(np.arange(n), M)
    if not (np.array_equal(table[:, 0], expect_view)
            and np.array_equal(table[:, 1], expect_vertex)):
        raise CheckFailed(f"{path.name}: rows are not (view, vertex) in order")
    return table[:, 2].reshape(M, n)


def label_hash(*label_arrays):
    """SHA-256 of the partitions, blind to how the clusters are numbered.

    Labels are renumbered by first appearance, so a change that only
    permutes cluster ids keeps the hash; any change of partition does not.
    """
    digest = hashlib.sha256()
    for labels in label_arrays:
        _, first, inverse = np.unique(labels, return_index=True,
                                      return_inverse=True)
        rank = np.empty(len(first), dtype=np.int64)
        rank[np.argsort(first)] = np.arange(len(first))
        digest.update(repr(labels.shape).encode())
        digest.update(rank[inverse.ravel()].astype("<i8").tobytes())
    return digest.hexdigest()


def adjusted_rand(a, b):
    """Adjusted Rand index of two labelings, in exact integer arithmetic."""
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    table = np.zeros((ai.max() + 1, bi.max() + 1), dtype=np.int64)
    np.add.at(table, (ai.ravel(), bi.ravel()), 1)

    def pairs(counts):
        return sum(math.comb(int(c), 2) for c in counts.ravel())

    cells, rows, cols = pairs(table), pairs(table.sum(1)), pairs(table.sum(0))
    total = math.comb(len(ai.ravel()), 2)
    denominator = total * (rows + cols) - 2 * rows * cols
    if denominator == 0:
        return 1.0
    return 2 * (total * cells - rows * cols) / denominator


def per_view_ari(labels, truth):
    return [adjusted_rand(labels[t], truth[t]) for t in range(labels.shape[0])]


def check_cluster(out, truth):
    labels = read_labels(out / "labels.csv", *truth.shape)
    ari = per_view_ari(labels, truth)
    return {"hash": label_hash(labels), "ari_first_view": ari[0],
            "ari_last_view": ari[-1]}


def check_gyre(out, views):
    boxes = json.loads((out / "gyre_boxes.json").read_text())
    nx, ny = int(boxes["nx"]), int(boxes["ny"])
    labels = read_labels(out / "labels.csv", views, nx * ny)
    boundary = []
    for plane in labels.reshape(views, ny, nx):
        left = np.bincount(plane[:, 0]).argmax()
        boundary.append(np.median((plane == left).sum(axis=1)) * 2.0 / nx)
    amplitude = float((max(boundary) - min(boundary)) / 2.0)
    lo, hi = GYRE_AMPLITUDE
    # c11 holds over the full period of 10 views; the warm-up covers less
    if views == 10 and not lo - 1e-9 <= amplitude <= hi + 1e-9:
        raise CheckFailed(f"boundary amplitude {amplitude:.4f} outside [{lo}, {hi}]")
    return {"hash": label_hash(labels), "boundary_amplitude": amplitude}


def check_baseline(out, truth, grid):
    labels = [read_labels(out / f"labels_a{float(a):g}.csv", *truth.shape)
              for a in grid]
    aris = [per_view_ari(lab, truth) for lab in labels]
    endpoint = [(ari[0] + ari[-1]) / 2.0 for ari in aris]
    best = int(np.argmax(endpoint))
    if endpoint[best] < BASELINE_BEST_ARI:
        raise CheckFailed(f"best-a endpoint ARI {endpoint[best]:.4f} "
                          f"< {BASELINE_BEST_ARI}")
    return {"hash": label_hash(*labels), "best_a": float(grid[best]),
            "best_endpoint_ari": endpoint[best],
            "ari_first_view": aris[best][0], "ari_last_view": aris[best][-1]}


def exact_escape(graph, vertices, walkers):
    """Exact escape probability of the walk job, and its standard error.

    A walker started at v stays in the set through every view with
    probability (S_1|V S_2|V ... S_{M-1}|V 1)_v, where S_t|V is the set's
    block of the transition matrix of the self-loop-regularized snapshot t.
    """
    idx = np.asarray(vertices)
    stay = np.ones(len(idx))
    for W in reversed(graph.snapshots[:-1]):
        W = sparse.csr_array(W + sparse.identity(graph.n, format="csr"))
        S = sparse.diags_array(1.0 / W.sum(axis=1)) @ W
        stay = S[idx][:, idx] @ stay
    per_walker = stay[np.arange(walkers) % len(idx)]
    se = math.sqrt(float(np.sum(per_walker * (1.0 - per_walker)))) / walkers
    return 1.0 - float(per_walker.mean()), se


def check_walk(out, exact, se):
    try:
        report = json.loads((out / "walk_report.json").read_text())
        rate = float(report["results"]["escape_rate"])
    except (FileNotFoundError, KeyError, TypeError, ValueError) as err:
        raise CheckFailed(f"walk_report.json unreadable: {err!r}") from err
    z = abs(rate - exact) / se if se > 0 else (0.0 if rate == exact else math.inf)
    if z > WALK_MAX_Z:
        raise CheckFailed(f"escape rate {rate:.5f} is {z:.2f} standard errors "
                          f"from the exact {exact:.5f}")
    results = json.dumps(report["results"], sort_keys=True).encode()
    return {"hash": hashlib.sha256(results).hexdigest(), "escape_rate": rate,
            "escape_exact": exact, "escape_z": z}


# ------------------------------------------------------------- workloads


# Each prepare function takes ``warmup``: the warm-up round takes the same
# code paths as the timed rounds (the dense or Lanczos eigensolve, the a-grid
# loop, the walker loop) at a smaller size, so it fills lazy state without
# spending the run's measuring time.


def prepare_cluster_file(stgl, seed, work, warmup=False):
    families = (("benchmark1", stgl.benchmarks.gen_benchmark1, 3),
                ("benchmark2", stgl.benchmarks.gen_benchmark2, 4))
    jobs = []
    for family, generate, k in families[:1] if warmup else families:
        graph, truth = generate(seed)
        path = work / f"{family}_seed{seed}.json"
        stgl.io.save_graph(path, graph, truth)
        jobs.append(Job(
            key=f"{family}/seed{seed}", family=family,
            argv=["cluster", "--input", str(path), "--k", str(k),
                  "--export-vectors"],
            check=lambda out, truth=truth: check_cluster(out, truth)))
    return jobs


def prepare_gyre(stgl, seed, work, warmup=False):
    # 7 views (N = 5600) is the smallest gyre that stays on the Lanczos side
    views = ["--views", "7"] if warmup else []
    return [Job(key=f"gyre/seed{seed}" + ("/warmup" if warmup else ""),
                family="gyre",
                argv=["gyre", "--k", "2", "--gen-seed", str(seed), *views],
                check=lambda out: check_gyre(out, views=7 if warmup else 10))]


def prepare_sweep_walk(stgl, seed, work, warmup=False):
    # One in-memory benchmark1 graph per round, swept over the a-grid and
    # walked. The walk rides with the sweep rather than in a workload of its
    # own: alone, its short pure-Python runs read 25-30% slower whenever the
    # shared 2-vCPU machine was busy, and runs long enough to average that
    # out would have made a full pass over four workloads too long.
    grid = ("0.05",) if warmup else A_GRID
    walkers = WALKERS // 10 if warmup else WALKERS

    def check_walk_job(out):
        graph, _ = stgl.benchmarks.gen_benchmark1(seed)
        return check_walk(out, *exact_escape(graph, WALK_VERTICES, walkers))

    suffix = "/warmup" if warmup else ""
    source = ["--generator", "benchmark1", "--gen-seed", str(seed)]
    return [
        Job(key=f"baseline/seed{seed}{suffix}", family="baseline",
            argv=["baseline", *source, "--k", "3", "--a-grid", ",".join(grid)],
            check=lambda out: check_baseline(
                out, stgl.benchmarks.gen_benchmark1(seed)[1], grid)),
        Job(key=f"walk/seed{seed}{suffix}", family="walk",
            argv=["walk", *source, "--vertices", ",".join(map(str, WALK_VERTICES)),
                  "--walkers", str(walkers)],
            check=check_walk_job),
    ]


def cluster_file_thresholds(results):
    """Criteria c07 (benchmark1) and c08 (benchmark2) on the run's medians."""
    bounds = {"benchmark1": (lambda v: v == 1.0, lambda v: v >= 0.80),
              "benchmark2": (lambda v: v >= 0.95, lambda v: v >= 0.95)}
    failures = {}
    for family, (first_ok, last_ok) in bounds.items():
        quality = [r["quality"] for r in results
                   if r["family"] == family and r["quality"]]
        if not quality:
            continue
        first = float(np.median([q["ari_first_view"] for q in quality]))
        last = float(np.median([q["ari_last_view"] for q in quality]))
        if not (first_ok(first) and last_ok(last)):
            failures[family] = (f"median ARI first view {first:.4f}, "
                                f"last view {last:.4f}")
    return failures


WORKLOADS = {
    "cluster-file": (prepare_cluster_file, cluster_file_thresholds),
    "gyre": (prepare_gyre, None),
    "sweep-walk": (prepare_sweep_walk, None),
}
