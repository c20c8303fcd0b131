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
writes before the first edge record (``_SAVED_PREFIX``), with LF or CRLF
line breaks, and holds no string in its ``edges`` array is read
``READ_SLICE_BYTES`` at a time into one buffer, and the whole records read
so far are parsed by orjson and turned into columns before the next read;
one ``json.loads`` parses every other member, in the document with that
array emptied. Any other layout, and any file in which that route finds
anything amiss, is parsed whole by ``json.load``, so every file gives the
graph and the error the ``json`` route gives. Both routes parse objects
through one hook, ``_members``, which rejects an object that repeats a
member, where ``json`` would keep the last value. The sliced route holds
one read buffer, one run of parsed records and the edge columns (32 bytes a
record), where the ``json`` route holds every record as Python objects
(about 200 bytes a record). Either way the records are then ordered and
deduplicated on one int64 key, which also gives back each record's view and
vertices.

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

# Bytes read from a graph file per ``readinto`` by ``load_graph``; the whole
# records among them become columns before the next read.
READ_SLICE_BYTES = 512 * 1024

# The members save_graph writes before the edge records, from byte 0 on, with
# LF or CRLF line breaks, and their length with CRLF breaks and an 11-character
# M, which holds every M from -2³¹ to the header check's largest, 2³¹ - 1; the
# first read takes that many bytes more, and a file with a longer M is left to
# the json route
_SAVED_PREFIX = re.compile(
    rb'\{\r?\n  "M": -?(?:0|[1-9][0-9]*),\r?\n  "directed": (?:true|false),\r?\n'
    rb'  "edges": \[')
_PREFIX_BYTES = len(b'{\r\n  "M": -2147483648,\r\n  "directed": false,\r\n  "edges": [')
# the last break between two records: the greedy .* backtracks from the end
_LAST_BREAK = re.compile(rb"(?s:.*)(\])[ \t\n\r]*,[ \t\n\r]*\[")


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


def _members(pairs):
    """The dict of a JSON object's (name, value) pairs; a name that comes
    twice is a format error, where ``json`` keeps the last value."""
    members = dict(pairs)
    if len(members) < len(pairs):
        seen = set()
        name = next(name for name, _ in pairs if name in seen or seen.add(name))
        raise GraphFormatError(f"the member {name!r} appears more than once")
    return members


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


def _edge_order(columns, n):
    """The order ``np.lexsort((j, i, t))`` of the records whose t, i, j columns
    lead the list ``columns``, for t in [1, M] and i, j in [0, n), the sorted
    key (t n + i) n + j and the mask of the sorted records whose key differs
    from the one before. The three columns leave the list as soon as the key
    holds them, and one stable sort of the key orders the records. The header
    check keeps M n at most ``MAX_SYSTEM_SIZE``, so every key is below
    (M + 1) n² <= 2 (2³¹ - 1)² < 2⁶³."""
    t, i, j = columns[:3]
    del columns[:3]
    key = (t * n + i) * n + j
    del t, i, j
    order = np.argsort(key, kind="stable")
    key = key[order]
    new = np.ones(len(key), bool)
    np.not_equal(key[1:], key[:-1], out=new[1:])
    return order, key, new


def _edge_run(buf, start, end):
    """The columns of the records in ``buf[start:end]``, a run of whole ones."""
    return _edge_columns(orjson.loads(b"".join((b"[", memoryview(buf)[start:end], b"]"))))


def _sliced_document(path):
    """The graph document of the file ``path`` in ``save_graph``'s layout,
    with ``edges`` already the tuple of t, i, j, w columns; None where the
    file has another layout or the ``json`` route might give another result.

    The file is read ``READ_SLICE_BYTES`` at a time into one buffer, and the
    whole records read so far are parsed as one run, cut at the last break
    between two records. With no string in the edges array, the first ``"``
    after it opens the next member, so the array ends at the last ``]``
    before it; only the bytes from there on are kept. ``json`` parses the
    document with the array emptied, through ``_members``, so a later
    ``edges`` member, spelled out or escaped, raises there and the file goes
    to the ``json`` route. Once each run parses to flat number records, the
    whole array is their concatenation.
    """
    pieces = []
    try:
        with open(path, "rb") as handle:
            buf = bytearray(2 * READ_SLICE_BYTES + _PREFIX_BYTES)
            size = handle.readinto(memoryview(buf)[:READ_SLICE_BYTES + _PREFIX_BYTES])
            head = _SAVED_PREFIX.match(buf, 0, size)
            if head is None:
                return None
            prefix, start = bytes(buf[:head.end()]), head.end()
            while (quote := buf.find(b'"', start, size)) < 0:
                last = _LAST_BREAK.match(buf, start, size)
                if last is not None:
                    pieces.append(_edge_run(buf, start, last.end(1)))
                    start = last.end() - 1
                # the unparsed bytes move to the front; a record longer than
                # a read grows the buffer
                size -= start
                buf[:size] = buf[start:start + size]
                buf += bytes(max(size + READ_SLICE_BYTES - len(buf), 0))
                read = handle.readinto(memoryview(buf)[size:size + READ_SLICE_BYTES])
                if not read:
                    return None
                size, start = size + read, 0
            close = buf.rfind(b"]", start, quote)
            if close < 0:
                return None
            pieces.append(_edge_run(buf, start, close))
            tail = buf[close:size] + handle.read()
        # strict decoding: json.loads on bytes would pass a lone surrogate
        doc = json.loads((prefix + tail).decode("utf-8"), object_pairs_hook=_members)
    except (OSError, ValueError, RecursionError, GraphFormatError):
        return None  # the json route gives the error, or the graph
    pieces = list(zip(*pieces))  # each column's runs, joined and dropped in turn
    doc["edges"] = tuple(np.concatenate(pieces.pop(0)) for _ in range(4))
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
                    doc = json.load(handle, object_pairs_hook=_members)
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
        t, i, j, w = columns = list(edges if type(edges) is tuple
                                    else _edge_columns(edges))
        del doc["edges"], edges  # else the first pass after would traverse them
    finally:
        if collecting:
            gc.enable()

    _reject_first((t < 1) | (t > M), lambda k: f"view {t[k]} out of range [1, {M}]")
    _reject_first((i < 0) | (i >= n) | (j < 0) | (j >= n),
                  lambda k: f"vertex pair ({i[k]}, {j[k]}) out of range [0, {n})")
    _reject_first(~((w > 0) & (w < math.inf)), lambda k: "edge weight must be "
                  f"positive and finite, got {float(w[k])}")
    del t, i, j, w  # the list alone holds the columns: each is freed once used
    if not directed:  # each off-diagonal record again, as (t, j, i, w)
        off = columns[1] != columns[2]
        for c, extra in enumerate([columns[k][off] for k in (0, 2, 1, 3)]):
            columns[c] = np.concatenate([columns[c], extra])
    order, key, new = _edge_order(columns, n)
    w = columns.pop()[order]
    del order
    if not new.all():  # each repeat must carry the weight of the record before
        repeat = ~new
        repeat[1:] &= w[1:] != w[:-1]
        _reject_first(repeat, lambda k: "conflicting duplicate edge {} at view {}".format(
            (int(key[k] // n % n), int(key[k] % n)), key[k] // n // n))
        key, w = key[new], w[new]
    # the sorted key holds each record's t, i and j; view t's keys start at t n²
    cuts = np.searchsorted(key, np.arange(1, M + 2) * n * n)
    i, j = np.divmod(key, n)  # t n + i, and j
    i %= n
    del key
    snapshots = tuple(sparse.coo_array((w[a:b], (i[a:b], j[a:b])), shape=(n, n))
                      for a, b in itertools.pairwise(cuts))
    graph = TimeEvolvingGraph(snapshots, directed=directed)

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
