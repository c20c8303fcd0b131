"""File formats: graph JSON, CSV exports, and report JSON.

A graph file is a JSON document with integer fields ``n`` and ``M``, a
boolean ``directed``, ``edges`` (records ``[t, i, j, w]`` with integer
1-based view t and 0-based vertices, numeric w > 0; absent entries are
zero) and optionally ``labels`` (M arrays of n integers). Undirected
graphs store each edge once with i <= j; the loader mirrors it. All
writers go through an atomic temp-file-plus-rename.
"""

from __future__ import annotations

import csv
import json
import math
import os
import tempfile
from io import StringIO

import numpy as np
from scipy import sparse

from .errors import GraphFormatError
from .graph import TimeEvolvingGraph


def _numpy_to_json(obj):
    """``json.dumps`` hook for the numpy values a payload may hold."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def atomic_write_text(path, text):
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path, payload):
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True,
                                       default=_numpy_to_json) + "\n")


def save_graph(path, graph: TimeEvolvingGraph, labels=None):
    """Write a graph (and optional ground-truth labels) as JSON."""
    payload = {
        "n": graph.n,
        "M": graph.M,
        "directed": graph.directed,
        "edges": [[t, i, j, w] for t, i, j, w in graph.edge_records()],
    }
    if labels is not None:
        labels = np.asarray(labels, dtype=int)
        if labels.shape != (graph.M, graph.n):
            raise ValueError(f"labels must be {(graph.M, graph.n)}")
        payload["labels"] = labels.tolist()
    write_json(path, payload)


def _edge_records(edges):
    """Parse the ``edges`` field into (t, i, j, w) number tuples."""
    try:
        for t, i, j, w in edges:
            if not (type(t) is type(i) is type(j) is int
                    and type(w) in (int, float)):
                raise TypeError(f"record {[t, i, j, w]!r} is not "
                                "[integer, integer, integer, number]")
            yield t, i, j, float(w)
    except (TypeError, ValueError, OverflowError) as err:
        raise GraphFormatError(f"edges must be a list of [t, i, j, w] number "
                               f"records: {err}") from err


def load_graph(path):
    """Read a graph JSON file; returns (graph, labels-or-None)."""
    with open(path) as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as err:
            raise GraphFormatError(f"not valid JSON: {err}") from err
    try:
        n, M, directed, edges = doc["n"], doc["M"], doc["directed"], doc["edges"]
    except (KeyError, TypeError) as err:
        raise GraphFormatError(f"missing or malformed header field: {err}") from err
    # a JSON integer parses to exactly int; a float, string or boolean fails
    if not (type(n) is type(M) is int and n >= 1 and type(directed) is bool):
        raise GraphFormatError("header fields n and M must be integers, n "
                               "positive, and directed a boolean")

    entries = [dict() for _ in range(M)]
    for t, i, j, w in _edge_records(edges):
        if not 1 <= t <= M:
            raise GraphFormatError(f"view {t} out of range [1, {M}]")
        if not (0 <= i < n and 0 <= j < n):
            raise GraphFormatError(f"vertex pair ({i}, {j}) out of range [0, {n})")
        if not 0 < w < math.inf:
            raise GraphFormatError(f"edge weight must be positive and finite, "
                                   f"got {w}")
        keys = [(i, j)] if directed or i == j else [(i, j), (j, i)]
        for key in keys:
            old = entries[t - 1].get(key)
            if old is not None and old != w:
                raise GraphFormatError(f"conflicting duplicate edge {key} at view {t}")
            entries[t - 1][key] = w

    snapshots = []
    for view in entries:
        if view:
            rows, cols = zip(*view.keys())
            W = sparse.coo_array((list(view.values()), (rows, cols)), shape=(n, n))
        else:
            W = sparse.coo_array((n, n))
        snapshots.append(sparse.csr_array(W))
    graph = TimeEvolvingGraph(n=n, M=M, snapshots=tuple(snapshots), directed=directed)

    labels = doc.get("labels")
    if labels is not None:
        if not (isinstance(labels, list) and len(labels) == M
                and all(isinstance(row, list) and len(row) == n
                        and all(type(v) is int for v in row) for row in labels)):
            raise GraphFormatError(f"labels must be {M} lists of {n} integers")
        try:
            labels = np.array(labels, dtype=int)
        except OverflowError as err:
            raise GraphFormatError(f"labels must be integers: {err}") from err
    return graph, labels


def write_csv(path, header, rows):
    buffer = StringIO()
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    atomic_write_text(path, buffer.getvalue())


def save_spectrum_csv(path, eigenvalues, tags):
    """Columns: index (1-based), eigenvalue_C, eigenvalue_L, tag."""
    rows = [[i + 1, repr(float(ev)), repr(float(1.0 - ev)), tag]
            for i, (ev, tag) in enumerate(zip(eigenvalues, tags))]
    write_csv(path, ["index", "eigenvalue_C", "eigenvalue_L", "tag"], rows)


def save_eigenvectors_csv(path, embedding):
    """Columns: eig_index (1-based), view (1-based), vertex, value."""
    rows = []
    for idx, folded in enumerate(embedding.folded, start=1):
        for t in range(embedding.M):
            for v in range(embedding.n):
                rows.append([idx, t + 1, v, repr(float(folded[t, v]))])
    write_csv(path, ["eig_index", "view", "vertex", "value"], rows)


def save_labels_csv(path, labels):
    """Columns: view (1-based), vertex, label."""
    labels = np.asarray(labels)
    rows = [[t + 1, v, int(labels[t, v])]
            for t in range(labels.shape[0]) for v in range(labels.shape[1])]
    write_csv(path, ["view", "vertex", "label"], rows)


def write_report(path, config, results, timings):
    """Report JSON: resolved config, results, and a separate timing section.

    Everything except ``timings`` is deterministic for a fixed config.
    """
    write_json(path, {"config": config, "results": results, "timings": timings})
