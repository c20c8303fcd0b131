"""File formats: graph JSON, CSV exports, and report JSON.

A graph file is a JSON document with integer fields ``n`` and ``M``, a
boolean ``directed``, ``edges`` (records ``[t, i, j, w]`` with integer
1-based view t and 0-based vertices, numeric w > 0; absent entries are
zero) and optionally ``labels`` (M arrays of n integers). Undirected
graphs store each edge once with i <= j; the loader mirrors it. A header
whose M n exceeds ``MAX_SYSTEM_SIZE`` is rejected before anything of size
n is built. The limit bounds indices, not memory: n = 10^9 with M = 2
passes it, and the views' CSR index pointers then take M (n + 1) entries
whatever the edge count.

``load_graph`` reads the file as bytes and takes one of two routes, chosen
by the bytes alone. A file that starts with exactly the bytes ``save_graph``
writes before the first edge record (``_SAVED_PREFIX``) and holds no string
in its ``edges`` array has that array parsed by orjson ``READ_SLICE_BYTES``
at a time, each slice cut between two records and turned into columns
before the next is parsed; one ``json.loads`` parses every other member, in
the document with that array emptied. Any other layout, and any file in
which that route finds anything amiss, is parsed whole by ``json.load``, so
every file gives the graph and the error the ``json`` route gives. The
sliced route holds the file's bytes, one slice of parsed records and the
edge columns (32 bytes a record), where the ``json`` route holds every
record as Python objects (about 200 bytes a record).

Every writer goes through one atomic handle, ``atomic_file``: a temp file
in the destination directory, created with the mode ``open(path, "w")``
would give, renamed over the destination on success and unlinked on any
exception. ``save_graph`` and every CSV file, through the one CSV writer
``write_csv``, format and write their records ``WRITE_ROW_CHUNK`` at a
time, so the file is never held as one string; the JSON reports are
written in one call by ``json.dumps``. Every streamed field comes from one
tokenizer, ``_tokens``, which formats a chunk with orjson's numpy serializer
and gives each float the text of its ``repr``, as ``json`` and ``csv`` do.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import json
import math
import operator
import os
import re

import numpy as np
import orjson
from scipy import sparse

from .errors import GraphFormatError
from .graph import TimeEvolvingGraph


# The largest system size M n a graph file may declare: every vertex-view
# index then fits the 32-bit indices of scipy's sparse arrays.
MAX_SYSTEM_SIZE = 2**31 - 1

# Records formatted per write by the streaming writers; a chunk of graph
# records (about 70 bytes each) stays below glibc's default 128 KiB mmap
# threshold, so its text is carved from the heap instead of mapped afresh.
WRITE_ROW_CHUNK = 1024

# Bytes of the edges array parsed per orjson call by ``load_graph``; each
# slice's records become columns before the next slice is parsed.
READ_SLICE_BYTES = 512 * 1024

# The members save_graph writes before the edge records, from byte 0 on
_SAVED_PREFIX = re.compile(
    rb'\{\n  "M": -?(?:0|[1-9][0-9]*),\n  "directed": (?:true|false),\n  "edges": \[')
_RECORD_BREAK = re.compile(rb"\][ \t\n\r]*,[ \t\n\r]*\[")


def check_output_file(path):
    """ValueError where ``path`` is a directory, so no file can take its name."""
    if os.path.isdir(path):
        raise ValueError(f"output path {os.fspath(path)!r} is a directory")


@contextlib.contextmanager
def atomic_file(path):
    """Text handle (``newline=""``) on a temp file beside ``path``, renamed
    to ``path`` when the block exits cleanly and removed when it raises; a
    ``path`` that is a directory is a ValueError before anything is written."""
    check_output_file(path)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    while True:  # mode 0o666 under the umask, where mkstemp would give 0o600
        tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}")
        with contextlib.suppress(FileExistsError):
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text):
    with atomic_file(path) as handle:
        handle.write(text)


def write_json(path, payload):
    # numpy arrays and scalars turn into plain Python values through tolist()
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True,
                                       default=lambda value: value.tolist()) + "\n")


def _tokens(chunk):
    """The text of each value of a 1-d array, as ``map(str, chunk.tolist())``
    gives it. orjson formats each number as that text, except a float outside
    1e-4 <= |v| < 1e16 (zeros, subnormals, inf, nan), which ``repr`` formats."""
    kind = chunk.dtype.kind
    if kind not in "iuf" or not len(chunk):
        return chunk.tolist()
    values = np.ascontiguousarray(chunk, dtype=float if kind == "f" else None)
    text = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)
    tokens = text[1:-1].decode().split(",")
    if kind == "f":
        size = np.abs(values)
        for k in np.flatnonzero(~(size < 1e16) | (size < 1e-4)).tolist():
            tokens[k] = repr(float(values[k]))
    return tokens


def _row_chunks(columns, field_sep, row_sep):
    """``row_sep.join(map(field_sep.join, zip(*map(_tokens, columns))))``,
    yielded ``WRITE_ROW_CHUNK`` rows at a time; every chunk after the first
    starts with ``row_sep``."""
    for start in range(0, len(columns[0]), WRITE_ROW_CHUNK):
        rows = zip(*(_tokens(c[start:start + WRITE_ROW_CHUNK]) for c in columns))
        yield (row_sep if start else "") + row_sep.join(map(field_sep.join, rows))


def _write_json_rows(handle, columns):
    """Write the ``json.dumps(indent=2)`` text, at depth 1, of the rows
    ``zip(*columns)``."""
    if not len(columns[0]):
        handle.write("[]")
        return
    handle.write("[\n    [\n      ")
    handle.writelines(_row_chunks(columns, ",\n      ", "\n    ],\n    [\n      "))
    handle.write("\n    ]\n  ]")


def save_graph(path, graph: TimeEvolvingGraph, labels=None):
    """Write a graph (and optional ground-truth labels) as JSON: the text of
    ``json.dumps(payload, indent=2, sort_keys=True)``."""
    if labels is not None:
        labels = np.asarray(labels, dtype=int)
        if labels.shape != (graph.M, graph.n):
            raise ValueError(f"labels must be {(graph.M, graph.n)}")
    with atomic_file(path) as handle:
        handle.write(f'{{\n  "M": {graph.M},\n  "directed": '
                     f'{json.dumps(bool(graph.directed))},\n  "edges": ')
        _write_json_rows(handle, graph.edge_arrays())
        if labels is not None:
            handle.write(',\n  "labels": ')
            _write_json_rows(handle, labels.T)
        handle.write(f',\n  "n": {graph.n}\n}}\n')


def _edge_columns(edges):
    """The t, i, j, w columns of ``edges``, type-checked by C-level reductions."""
    if type(edges) is list and set(map(type, edges)) <= {list} \
            and set(map(len, edges)) <= {4}:
        columns = [list(map(operator.itemgetter(c), edges)) for c in range(4)]
        if set(map(type, itertools.chain(*columns[:3]))) <= {int} \
                and set(map(type, columns[3])) <= {int, float}:
            try:
                return [np.fromiter(col, float if c == 3 else np.int64, len(col))
                        for c, col in enumerate(columns)]
            except OverflowError as err:
                raise GraphFormatError(f"edges must be a list of [t, i, j, w] "
                                       f"number records: {err}") from err
    bad = edges if type(edges) is not list else next(
        r for r in edges if not (type(r) is list and len(r) == 4 and type(r[0])
                                 is type(r[1]) is type(r[2]) is int
                                 and type(r[3]) in (int, float)))
    raise GraphFormatError("edges must be a list of [t, i, j, w] number records, "
                           f"got {bad!r}")


def _reject_first(bad, message):
    """Format error ``message(k)`` for the first flagged record k, if any."""
    if bad.any():
        raise GraphFormatError(message(bad.argmax()))


def _edge_order(t, i, j, n):
    """``np.lexsort((j, i, t))`` for t in [1, M] and i, j in [0, n): one stable
    sort of the key (t n + i) n + j. The header check keeps M n at most
    ``MAX_SYSTEM_SIZE``, so every key is below (M + 1) n² <= 2 (2³¹ - 1)² < 2⁶³."""
    return np.argsort((t * n + i) * n + j, kind="stable")


def _sliced_document(path):
    """The graph document of the file ``path`` in ``save_graph``'s layout,
    with ``edges`` already the tuple of t, i, j, w columns; None where the
    file has another layout or the ``json`` route might give another result.

    With no string in the edges array, the first ``"`` after it opens the
    next member. ``json`` parses the document with the array emptied, so a
    later ``edges`` key, or an escape that may spell one, is left to the
    ``json`` route. Each slice is a run of records, so once each slice parses
    to flat number records, the whole array is their concatenation.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
        head = _SAVED_PREFIX.match(data)
        if head is None:
            return None
        start = head.end()
        quote = data.find(b'"', start)
        close = data.rfind(b"]", start, quote)
        if quote < 0 or close < 0 or data.find(b'"edges"', close) >= 0 \
                or data.find(b"\\", close) >= 0:
            return None
        # strict decoding: json.loads on bytes would pass a lone surrogate
        doc = json.loads((data[:start] + data[close:]).decode("utf-8"))
        view, pieces = memoryview(data), []
        while True:
            cut = _RECORD_BREAK.search(data, start + READ_SLICE_BYTES, close)
            end = close if cut is None else cut.start() + 1
            records = orjson.loads(b"".join((b"[", view[start:end], b"]")))
            pieces.append(_edge_columns(records))
            if cut is None:
                break
            start = cut.end() - 1
    except (OSError, ValueError, RecursionError, GraphFormatError):
        return None  # the json route gives the error, or the graph
    del view, data, records
    doc["edges"] = tuple(map(np.concatenate, zip(*pieces)))
    return doc


def load_graph(path):
    """Read a graph JSON file; returns (graph, labels-or-None)."""
    # the parsed document holds no reference cycles, so the collector passes
    # that its allocations set off would traverse every record and free nothing
    collecting = gc.isenabled()
    gc.disable()
    try:
        doc = _sliced_document(path)
        if doc is None:
            try:
                with open(path, encoding="utf-8") as handle:
                    doc = json.load(handle)
            except FileNotFoundError:
                raise
            # decode errors are ValueErrors, deep nesting a RecursionError
            except (OSError, ValueError, RecursionError) as err:
                raise GraphFormatError(f"not a readable JSON file: {err}") from err
        try:
            n, M, directed, edges = doc["n"], doc["M"], doc["directed"], doc["edges"]
        except (KeyError, TypeError) as err:
            raise GraphFormatError(f"missing or malformed header field: {err}") from err
        # a JSON integer parses to exactly int; a float, string or boolean fails
        if not (type(n) is type(M) is int and n >= 1 and type(directed) is bool):
            raise GraphFormatError("header fields n and M must be integers, n "
                                   "positive, and directed a boolean")
        if M * n > MAX_SYSTEM_SIZE:
            raise GraphFormatError(f"n = {n} vertices over M = {M} views exceed "
                                   f"the system size limit of {MAX_SYSTEM_SIZE}")
        # the sliced route has built the columns already; json gives no tuple
        t, i, j, w = edges if type(edges) is tuple else _edge_columns(edges)
        del doc["edges"], edges  # else the first pass after would traverse them
    finally:
        if collecting:
            gc.enable()

    _reject_first((t < 1) | (t > M), lambda k: f"view {t[k]} out of range [1, {M}]")
    _reject_first((i < 0) | (i >= n) | (j < 0) | (j >= n),
                  lambda k: f"vertex pair ({i[k]}, {j[k]}) out of range [0, {n})")
    _reject_first(~((w > 0) & (w < math.inf)), lambda k: "edge weight must be "
                  f"positive and finite, got {float(w[k])}")
    if not directed:
        off = i != j
        t, i, j, w = (np.concatenate([a, b[off]])
                      for a, b in ((t, t), (i, j), (j, i), (w, w)))
    order = _edge_order(t, i, j, n)
    t, i, j, w = t[order], i[order], j[order], w[order]
    # t[0] >= 1, so the first record always starts a new (t, i, j) key
    new = np.diff(np.stack([t, i, j]), axis=1, prepend=0).any(axis=0)
    _reject_first(~new & (w != np.r_[w[:1], w[:-1]]), lambda k: "conflicting "
                  f"duplicate edge {(int(i[k]), int(j[k]))} at view {t[k]}")
    t, i, j, w = t[new], i[new], j[new], w[new]
    cuts = np.searchsorted(t, np.arange(1, M + 2))
    snapshots = tuple(sparse.coo_array((w[a:b], (i[a:b], j[a:b])), shape=(n, n))
                      .tocsr() for a, b in itertools.pairwise(cuts))
    graph = TimeEvolvingGraph(n=n, M=M, snapshots=snapshots, directed=directed)

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


def write_csv(path, header, columns):
    """The CSV lines of ``header`` and of each row of ``zip(*columns)``, ended
    by CRLF and with the fields of ``_tokens``, as ``csv.writer`` writes them
    from ``tolist()``; no field written here needs quoting."""
    columns = [np.asarray(c) for c in columns]
    with atomic_file(path) as handle:
        handle.write(",".join(header) + "\r\n")
        handle.writelines(_row_chunks(columns, ",", "\r\n"))
        if len(columns[0]):
            handle.write("\r\n")


def save_spectrum_csv(path, eigenvalues, tags):
    """Columns: index (1-based), eigenvalue_C, eigenvalue_L, tag."""
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    write_csv(path, ["index", "eigenvalue_C", "eigenvalue_L", "tag"],
              [np.arange(1, len(eigenvalues) + 1), eigenvalues, 1.0 - eigenvalues, tags])


def save_eigenvectors_csv(path, embedding):
    """Columns: eig_index (1-based), view (1-based), vertex, value."""
    folded = embedding.folded
    index = np.indices(folded.shape).reshape(3, -1) + [[1], [1], [0]]
    write_csv(path, ["eig_index", "view", "vertex", "value"],
              [*index, folded.astype(float).ravel()])


def save_labels_csv(path, labels):
    """Columns: view (1-based), vertex, label."""
    labels = np.asarray(labels, dtype=int)
    index = np.indices(labels.shape).reshape(2, -1) + [[1], [0]]
    write_csv(path, ["view", "vertex", "label"], [*index, labels.ravel()])


def write_report(path, config, results, timings):
    """Report JSON: resolved config, results, and a separate timing section.

    Everything except ``timings`` is deterministic for a fixed config.
    """
    write_json(path, {"config": config, "results": results, "timings": timings})
