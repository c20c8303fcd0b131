"""Spans and counters around `stgl`'s layers, recorded from outside.

``Tracer.install`` replaces each traced function at the name its caller
looks it up by (a module global or a class attribute), so no stage timer
lives inside `stgl`. A span records its name, start, end, parent and job;
spans stay in memory until the run writes them out. Counters are derived
from call arguments and return values. ``layer_metrics`` turns both into
the per-layer metrics, as means per traced job: each ``*_s`` metric is the
self time of its spans (duration minus the time covered by child spans), so
the ``*_s`` metrics add up to the traced job time.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict

WRITERS = ("save_graph", "write_json", "atomic_write_text", "write_csv",
           "save_labels_csv", "save_spectrum_csv", "save_eigenvectors_csv",
           "write_report")

# Self-time metrics, in the order they are reported; "cli.self" is the job
# span itself.
TIME_METRICS = (
    "io.load", "io.write", "operators.propagate", "laplacian.assemble",
    "laplacian.symmetrize", "laplacian.eigensolve", "laplacian.tag",
    "clustering.select", "clustering.kmeans", "clustering.score",
    "supra.build", "supra.spectrum", "supra.select",
    "gyre.graph", "gyre.ulam", "gyre.velocity",
    "walks.simulate", "walks.escape", "cli.self",
)
COUNT_METRICS = (
    "io.read_bytes", "io.written_bytes", "io.files_written",
    "operators.transitions_nnz", "laplacian.eig_requested", "laplacian.eig_returned",
    "laplacian.dense_solves", "laplacian.lanczos_solves",
    "laplacian.eigendecompose_calls", "clustering.kmeans_rows",
    "supra.spectrum_calls", "gyre.velocity_calls", "gyre.particle_steps",
    "walks.steps",
)
RATIO_METRICS = {
    # useful eigenpairs (k) over eigenpairs computed across retries
    "laplacian.eig_useful_ratio": ("clustering.k", "laplacian.eig_computed"),
    "supra.eig_useful_ratio": ("supra.k", "supra.eig_computed"),
}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index, job]
        self.counts = defaultdict(lambda: defaultdict(float))  # job -> counter
        self._stack = []
        self._patches = []
        self._job = None

    # ------------------------------------------------------------ recording

    def add(self, key, value=1):
        self.counts[self._job][key] += value

    def peak(self, key, value):
        counter = self.counts[self._job]
        counter[key] = max(counter[key], value)

    def _call(self, name, fn, count, args, kwargs):
        index = len(self.spans)
        span = [name, time.perf_counter(), None,
                self._stack[-1] if self._stack else None, self._job]
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._stack.pop()
            span[2] = time.perf_counter()
        if count is not None:
            count(self, args, kwargs, result)
        return result

    def job(self, job_id, fn, *args):
        """Run ``fn(*args)`` as the root span of job ``job_id``."""
        self._job = job_id
        try:
            return self._call("cli.self", fn, None, args, {})
        finally:
            self._job = None

    def in_writer(self):
        """True inside an `io` writer span, so nested writes count once."""
        return any(self.spans[i][0] == "io.write" for i in self._stack[:-1])

    # ------------------------------------------------------------ patching

    def _wrap(self, owner, attr, name, count=None):
        fn = getattr(owner, attr)
        if name is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                count(self, args, kwargs, result)
                return result
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return self._call(name, fn, count, args, kwargs)
        self._patches.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def install(self, stgl):
        cli, io, clustering = stgl.cli, stgl.io, stgl.clustering
        laplacian, supra, gyre, walks = (stgl.laplacian, stgl.supra, stgl.gyre,
                                         stgl.walks)
        w = self._wrap
        w(cli, "spectral_cluster", None, _count_k("clustering.k"))
        w(io, "load_graph", "io.load", _count_read)
        for attr in WRITERS:
            w(io, attr, "io.write", _count_written)
        for owner in (cli, clustering):
            w(owner, "propagate_densities", "operators.propagate", _count_nnz)
            w(owner, "score_against", "clustering.score")
        w(clustering, "assemble_system", "laplacian.assemble")
        w(clustering, "eigendecompose", "laplacian.tag", _count_eigendecompose)
        w(laplacian.SpatioTemporalSystem, "symmetrized", "laplacian.symmetrize")
        for owner in (laplacian, supra):
            w(owner, "symmetric_eigenpairs", "laplacian.eigensolve", _count_eig)
        w(laplacian, "eigh", None, _counter("laplacian.dense_solves"))
        w(laplacian, "eigsh", None, _counter("laplacian.lanczos_solves"))
        w(clustering, "select_spatial", "clustering.select")
        for owner in (clustering, supra):
            w(owner, "kmeans", "clustering.kmeans", _count_rows)
        w(supra, "symmetrize", "supra.build")
        w(supra, "build_supra", "supra.build")
        w(supra, "supra_cluster", "supra.select", _count_k("supra.k"))
        w(supra, "supra_spectrum", "supra.spectrum", _count_spectrum)
        w(gyre, "gyre_graph", "gyre.graph")
        w(gyre, "ulam_counts", "gyre.ulam", _count_particles)
        w(gyre, "velocity", "gyre.velocity", _counter("gyre.velocity_calls"))
        w(walks, "simulate_walks", "walks.simulate", _count_steps)
        w(walks, "escape_rate", "walks.escape")
        w(walks, "occupancy", "walks.escape")

    def uninstall(self):
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)

    # ------------------------------------------------------------ reporting

    def self_times(self):
        """job -> {metric: seconds of self time}."""
        totals = defaultdict(lambda: defaultdict(float))
        for name, start, end, parent, job in self.spans:
            totals[job][name] += end - start
            if parent is not None:
                pstart, pend = self.spans[parent][1:3]
                totals[job][self.spans[parent][0]] -= min(end, pend) - max(start, pstart)
        return totals

    def layer_metrics(self, jobs):
        """Per-layer metrics as means over the traced ``jobs``."""
        times = self.self_times()
        n = len(jobs)
        out = {}
        for key in TIME_METRICS:
            out[f"{key}_s"] = (sum(times[j][key] for j in jobs) / n, "s")
        for key in COUNT_METRICS:
            unit = "bytes" if key.endswith("_bytes") else "count"
            out[key] = (sum(self.counts[j][key] for j in jobs) / n, unit)
        # a size, not a count: the largest system any traced job solved
        out["laplacian.system_size"] = (
            max(self.counts[j]["laplacian.system_size"] for j in jobs), "count")
        for key, (num, den) in RATIO_METRICS.items():
            den_total = sum(self.counts[j][den] for j in jobs)
            num_total = sum(self.counts[j][num] for j in jobs)
            out[key] = (num_total / den_total if den_total else 0.0, "ratio")
        return out


# Counters: each takes (tracer, args, kwargs, result).

def _counter(key):
    return lambda tr, args, kwargs, result: tr.add(key)


def _count_k(key):
    return lambda tr, args, kwargs, result: tr.add(key, _arg(args, kwargs, 1, "k"))


def _count_read(tr, args, kwargs, result):
    tr.add("io.read_bytes", os.path.getsize(_arg(args, kwargs, 0, "path")))


def _count_written(tr, args, kwargs, result):
    if not tr.in_writer():
        tr.add("io.files_written")
        tr.add("io.written_bytes", os.path.getsize(_arg(args, kwargs, 0, "path")))


def _count_nnz(tr, args, kwargs, result):
    tr.add("operators.transitions_nnz", sum(S.nnz for S in result.transitions))


def _count_eigendecompose(tr, args, kwargs, result):
    tr.add("laplacian.eigendecompose_calls")
    tr.add("laplacian.eig_computed", _arg(args, kwargs, 1, "k_request"))


def _count_eig(tr, args, kwargs, result):
    H = _arg(args, kwargs, 0, "H")
    tr.peak("laplacian.system_size", H.shape[0])
    tr.add("laplacian.eig_requested", min(_arg(args, kwargs, 1, "k"), H.shape[0]))
    tr.add("laplacian.eig_returned", len(result[0]))


def _count_rows(tr, args, kwargs, result):
    tr.add("clustering.kmeans_rows", len(_arg(args, kwargs, 0, "points")))


def _count_spectrum(tr, args, kwargs, result):
    tr.add("supra.spectrum_calls")
    tr.add("supra.eig_computed", _arg(args, kwargs, 1, "j"))


def _count_particles(tr, args, kwargs, result):
    grid = _arg(args, kwargs, 0, "grid")
    steps = int(round(1.0 / grid.step))
    tr.add("gyre.particle_steps", grid.n_boxes * grid.particles_per_box * steps)


def _count_steps(tr, args, kwargs, result):
    ops, starts = _arg(args, kwargs, 0, "ops"), _arg(args, kwargs, 1, "starts")
    tr.add("walks.steps", len(starts) * (ops.M - 1))
