import contextlib
import csv
import gc
import io
import json
import os
import stat
import tempfile
import tracemalloc

import numpy as np
import orjson
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

import stgl.io as stgl_io
from stgl import (GraphFormatError, GyreParams, SpectralEmbedding,
                  TimeEvolvingGraph, UlamGrid, assemble_system, gen_benchmark1,
                  gen_benchmark2, gen_line_graph, load_graph, propagate_densities,
                  save_graph, static_blocks, ulam_counts)
from stgl.graph import index_dtype
from stgl.io import (_edge_order, atomic_write_text, save_eigenvectors_csv,
                     save_labels_csv, save_spectrum_csv, write_csv, write_report)

from util import (CORRUPTIONS, corrupt, random_teg, reference_graph_payload,
                  reference_load_graph, reference_new_records, with_self_loops)


class TestTimeEvolvingGraph:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(GraphFormatError):
            TimeEvolvingGraph([np.zeros((2, 2)), np.zeros((3, 3))])

    def test_negative_weight_rejected(self):
        with pytest.raises(GraphFormatError):
            TimeEvolvingGraph([-np.eye(2), np.eye(2)])

    @pytest.mark.parametrize("weight", [np.nan, np.inf])
    def test_non_finite_weight_rejected(self, weight):
        W = np.array([[0.0, weight], [weight, 0.0]])
        with pytest.raises(GraphFormatError):
            TimeEvolvingGraph([W, np.eye(2)], directed=True)

    def test_asymmetric_undirected_rejected(self):
        W = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(GraphFormatError):
            TimeEvolvingGraph([W, W], directed=False)

    @pytest.mark.parametrize("as_input", [sparse.csr_array, np.asarray],
                             ids=["sparse", "dense"])
    def test_complex_weight_rejected(self, as_input):
        # a float64 cast would warn and drop the imaginary parts
        W = as_input(np.array([[0, 1 + 1j], [1 + 1j, 0]]))
        with pytest.raises(GraphFormatError, match="complex edge weight"):
            TimeEvolvingGraph((W, W), directed=True)

    def test_single_view_rejected(self):
        with pytest.raises(GraphFormatError):
            TimeEvolvingGraph([np.eye(2)])

    @pytest.mark.parametrize("snapshots, message", [
        ((np.zeros((0, 0)), np.zeros((0, 0))), "vertex count must be positive"),
    ], ids=["no-vertices"])
    def test_header_disagreeing_with_snapshots_rejected(self, snapshots, message):
        with pytest.raises(GraphFormatError, match=message):
            TimeEvolvingGraph(snapshots)

    def test_self_loops_added(self):
        g = gen_line_graph()
        looped = with_self_loops(g)
        np.testing.assert_allclose((looped.snapshots[0] - g.snapshots[0]).toarray(),
                                   np.eye(6))

    def test_caller_arrays_left_untouched(self):
        # csr_array(W) shares a CSR input's arrays, so explicit zeros must be
        # dropped from a copy
        data, indices, indptr = (np.array(a) for a in ([1.0, 0.0, 2.0], [1, 0, 0],
                                                        [0, 2, 3]))
        W = sparse.csr_array((data, indices, indptr), shape=(2, 2))
        g = TimeEvolvingGraph((W, W.copy()), directed=True)
        assert data.tolist() == [1.0, 0.0, 2.0] and indptr.tolist() == [0, 2, 3]
        assert W.nnz == 3
        assert all(S.nnz == 2 for S in g.snapshots)
        np.testing.assert_array_equal(g.snapshots[0].toarray(), [[0.0, 1.0], [2.0, 0.0]])

    def test_later_writes_to_the_caller_arrays_miss_the_graph(self):
        W = sparse.csr_array([[0.0, 1.0], [1.0, 0.0]])
        g = TimeEvolvingGraph((W, W))
        W.data[0], W.indices[1] = -5.0, 1
        for S in g.snapshots:
            np.testing.assert_array_equal(S.toarray(), [[0.0, 1.0], [1.0, 0.0]])

    def test_unsorted_rows_are_stored_sorted(self):
        W = sparse.csr_array((np.array([2.0, 1.0, 3.0]), np.array([1, 0, 0]),
                              np.array([0, 2, 3])), shape=(2, 2))
        g = TimeEvolvingGraph((W, W), directed=True)
        for S in g.snapshots:
            assert S.indices.tolist() == [0, 1, 0] and S.data.tolist() == [1.0, 2.0, 3.0]
            assert S.has_sorted_indices
        assert W.indices.tolist() == [1, 0, 0]

    def test_edge_arrays_undirected_once(self):
        g = gen_line_graph()
        t, i, j, w = g.edge_arrays()
        assert (i <= j).all()
        # 5 chain edges per view, 4 views
        assert len(t) == len(i) == len(j) == len(w) == 20


def _index_types(graph):
    """The index types of every snapshot, transition and cross block of
    ``graph``, and of its view coupling X and X^T."""
    ops = propagate_densities(graph)
    system = assemble_system(ops)
    X = system.coupling()
    matrices = (*graph.snapshots, *ops.transitions, *system.cross, X,
                sparse.csr_array(X.T))
    return {array.dtype for A in matrices for array in (A.indices, A.indptr)}


class TestIndexWidth:
    def test_loaded_graph(self, tmp_path):
        path = tmp_path / "g.json"
        save_graph(path, static_blocks(n=12, blocks=2, M=3, seed=4)[0])
        assert _index_types(load_graph(path)[0]) == {np.dtype(np.int32)}

    def test_ulam_graph(self):
        grid = UlamGrid(nx=6, ny=3, particles_per_box=4)
        snapshots = [ulam_counts(grid, GyreParams(), float(t), 0) for t in range(3)]
        graph = TimeEvolvingGraph(snapshots, directed=True)
        assert _index_types(graph) == {np.dtype(np.int32)}

    def test_caller_int64_csr(self):
        W = sparse.csr_array(np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]))
        W.indices, W.indptr = W.indices.astype(np.int64), W.indptr.astype(np.int64)
        assert _index_types(TimeEvolvingGraph([W, W * 2.0])) == {np.dtype(np.int32)}
        assert W.indices.dtype == W.indptr.dtype == np.int64

    def test_width_rule(self):
        # sizes as numbers: nothing of 2^31 entries is allocated
        assert index_dtype(0) is np.int32
        assert index_dtype(2 ** 31 - 1) is np.int32
        assert index_dtype(2 ** 31) is np.int64
        assert index_dtype(np.int64(2 ** 40)) is np.int64


class TestGraphFiles:
    def test_round_trip_undirected(self, tmp_path):
        g, labels = static_blocks(n=12, blocks=2, M=3, seed=4)
        path = tmp_path / "g.json"
        save_graph(path, g, labels)
        g2, labels2 = load_graph(path)
        assert g2.n == g.n and g2.M == g.M and g2.directed == g.directed
        for W2, W in zip(g2.snapshots, g.snapshots, strict=True):
            np.testing.assert_allclose(W2.toarray(), W.toarray(), atol=0)
        assert np.array_equal(labels2, labels)

    def test_round_trip_directed(self, tmp_path):
        rng = np.random.default_rng(0)
        W = rng.random((4, 4)) * (rng.random((4, 4)) < 0.5)
        np.fill_diagonal(W, 0)
        g = TimeEvolvingGraph([W, W * 2.0], directed=True)
        path = tmp_path / "d.json"
        save_graph(path, g)
        g2, labels = load_graph(path)
        assert labels is None
        np.testing.assert_allclose(g2.snapshots[1].toarray(), g.snapshots[1].toarray(),
                                   atol=0)

    def test_save_is_deterministic(self, tmp_path):
        g, labels = static_blocks(n=10, blocks=2, M=2, seed=5)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_graph(p1, g, labels)
        save_graph(p2, g, labels)
        assert p1.read_bytes() == p2.read_bytes()

    def test_view_out_of_range(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 2, "M": 2, "directed": True,
                                    "edges": [[3, 0, 1, 1.0]]}))
        with pytest.raises(GraphFormatError):
            load_graph(path)

    def test_vertex_out_of_range(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 2, "M": 2, "directed": True,
                                    "edges": [[1, 0, 5, 1.0]]}))
        with pytest.raises(GraphFormatError):
            load_graph(path)

    def test_negative_vertex_count(self, tmp_path):
        # with no edges to range-check, nothing else stops a negative n
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": -1, "M": 2, "directed": True,
                                    "edges": []}))
        with pytest.raises(GraphFormatError):
            load_graph(path)

    def test_nonpositive_weight(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 2, "M": 2, "directed": True,
                                    "edges": [[1, 0, 1, 0.0]]}))
        with pytest.raises(GraphFormatError):
            load_graph(path)

    def test_conflicting_duplicate(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 2, "M": 2, "directed": False,
                                    "edges": [[1, 0, 1, 1.0], [1, 1, 0, 2.0]]}))
        with pytest.raises(GraphFormatError):
            load_graph(path)

    @pytest.mark.parametrize("text, name", [
        ('{"n": 3, "M": 2, "directed": false, "edges": [[1,0,1,1.0],[2,1,2,1.0]], '
         '"edges": [[1,0,0,1.0]]}', "edges"),
        ('{"n": 3, "M": 2, "directed": false, "edges": [[1,0,1,1.0]], "n": 2}', "n"),
    ], ids=["edges", "n"])
    def test_repeated_member(self, tmp_path, text, name):
        # json alone keeps the last value: views of 1 and 0 edges, or n = 2
        path = tmp_path / "bad.json"
        path.write_text(text)
        for loader in (load_graph, reference_load_graph):
            with pytest.raises(GraphFormatError, match=f"member '{name}' appears"):
                loader(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json at all")
        with pytest.raises(GraphFormatError):
            load_graph(path)

    def test_oversized_header_rejected_before_allocating(self, tmp_path):
        # 2^41 vertex-views: the first CSR index array alone would be 8 TiB
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"n": 2**40, "M": 2, "directed": True,
                                    "edges": [[1, 0, 1, 1.0]]}))
        for loader in (load_graph, reference_load_graph):
            with pytest.raises(GraphFormatError, match=f"n = {2**40} .* M = 2 "):
                loader(path)

    def test_system_size_limit_is_inclusive(self, tmp_path, monkeypatch):
        monkeypatch.setattr(stgl_io, "MAX_SYSTEM_SIZE", 6)
        path = tmp_path / "g.json"
        for n, fits in ((3, True), (4, False)):
            path.write_text(json.dumps({"n": n, "M": 2, "directed": True,
                                        "edges": [[1, 0, 1, 1.0]]}))
            for loader in (load_graph, reference_load_graph):
                if fits:
                    assert loader(path)[0].n == n
                else:
                    with pytest.raises(GraphFormatError, match="system size"):
                        loader(path)

    @pytest.mark.parametrize("labels", [np.zeros((3, 2)), np.zeros(6), np.zeros((2, 2))],
                             ids=["transposed", "flat", "too-few-vertices"])
    def test_labels_of_the_wrong_shape_not_saved(self, tmp_path, labels):
        g = TimeEvolvingGraph([np.eye(3), np.eye(3)])
        path = tmp_path / "g.json"
        with pytest.raises(ValueError, match=r"labels must be \(2, 3\)"):
            save_graph(path, g, labels)
        assert not path.exists()

    def test_undirected_mirrored(self, tmp_path):
        path = tmp_path / "u.json"
        path.write_text(json.dumps({"n": 2, "M": 2, "directed": False,
                                    "edges": [[1, 0, 1, 2.5], [2, 0, 1, 1.0]]}))
        g, _ = load_graph(path)
        np.testing.assert_allclose(g.snapshots[0].toarray(), [[0.0, 2.5], [2.5, 0.0]])


def _load_or_none(loader, path):
    try:
        return loader(path)
    except GraphFormatError:
        return None


def assert_same_load(got, want):
    """Bitwise-equal CSR arrays (values and dtypes) and labels."""
    (g, labels), (h, ref_labels) = got, want
    assert (g.n, g.M, g.directed) == (h.n, h.M, h.directed)
    for W, V in zip(g.snapshots, h.snapshots, strict=True):
        for name in ("data", "indices", "indptr"):
            a, b = getattr(W, name), getattr(V, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert (labels is None) == (ref_labels is None)
    if labels is not None:
        assert labels.dtype == ref_labels.dtype
        assert np.array_equal(labels, ref_labels)


class TestLoaderAgainstReference:
    """``load_graph`` against the per-record loader in ``tests/util.py``."""

    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @given(seed=st.integers(0, 2**32 - 1), with_labels=st.booleans(),
           kind=st.none() | st.sampled_from(CORRUPTIONS), data=st.data())
    def test_same_graph_or_both_reject(self, seed, with_labels, kind, data):
        graph = random_teg(seed, n_max=20, M_max=5)
        labels = None
        if with_labels:
            labels = np.random.default_rng(seed).integers(0, 3, (graph.M, graph.n))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "graph.json")
            save_graph(path, graph, labels)
            texts = []
            if kind is not None:
                with open(path) as handle:
                    texts.append(corrupt(handle.read(), kind, data.draw))
                if kind != "truncate":
                    # also in save_graph's layout, which the sliced route reads
                    texts.append(json.dumps(json.loads(texts[0]), indent=2,
                                            sort_keys=True))
            for text in texts or [None]:
                if text is not None:
                    with open(path, "w") as handle:
                        handle.write(text)
                got = _load_or_none(load_graph, path)
                want = _load_or_none(reference_load_graph, path)
                assert (got is None) == (want is None), kind
                if got is not None:
                    assert_same_load(got, want)

    @pytest.mark.parametrize("edges", [
        [[1, 0, 1]], [[1, 0, 1, 1.0, 2]], [{"t": 1, "i": 0, "j": 1, "w": 2}],
        ["abcd"], [[1, 0, 1, True]], [[True, 0, 1, 1.0]], [[1, 0, 1, 1.0], 7],
        [[2**70, 0, 1, 1.0]], [[1, -2**70, 1, 1.0]], [[1, 0, 1, 10**400]],
        [[1, 0, 1, 1.0], [1, 0, 0, 2.0], [1, 1, 0, 3.0]],
    ], ids=["short", "long", "dict", "string", "bool-weight", "bool-view",
            "trailing-int", "huge-view", "huge-vertex", "huge-weight",
            "mirror-conflict"])
    def test_malformed_records_rejected_by_both(self, tmp_path, edges):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 2, "M": 2, "directed": False,
                                    "edges": edges}))
        for loader in (load_graph, reference_load_graph):
            with pytest.raises(GraphFormatError):
                loader(path)

    def test_duplicates_collapse_like_reference(self, tmp_path):
        path = tmp_path / "dup.json"
        path.write_text(json.dumps({
            "n": 3, "M": 3, "directed": False,
            "edges": [[2, 1, 0, 2.0], [2, 0, 1, 2], [2, 2, 2, 1.5],
                      [2, 2, 2, 1.5], [1, 0, 2, 0.5]]}))
        assert_same_load(load_graph(path), reference_load_graph(path))

    @pytest.mark.parametrize("edges,message", [
        ([[1, 0, 1, 1.0], [1, 0, 1, "x"]], r"records, got \[1, 0, 1, 'x'\]"),
        ([[1, 0, 1, 1.0], [1, 0, 1]], r"records, got \[1, 0, 1\]"),
        ([[1, 0, 1, 1.0], [3, 0, 1, 1.0], [0, 0, 1, 1.0]], r"view 3 out of range"),
        ([[1, 0, 1, 1.0], [1, 0, 2, 1.0]], r"vertex pair \(0, 2\)"),
        ([[1, 0, 1, 1.0], [1, 0, 0, -1]], r"got -1\.0"),
        ([[2, 1, 0, 1.0], [2, 0, 1, 2.0]], r"conflicting duplicate edge \(0, 1\) at view 2"),
    ])
    def test_message_names_first_offending_record(self, tmp_path, edges, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 2, "M": 2, "directed": False,
                                    "edges": edges}))
        with pytest.raises(GraphFormatError, match=message):
            load_graph(path)

    def test_benchmarks_load_like_reference(self, tmp_path):
        path = tmp_path / "g.json"
        for generate in (gen_benchmark1, gen_benchmark2):
            save_graph(path, *generate(0))
            assert_same_load(load_graph(path), reference_load_graph(path))


@contextlib.contextmanager
def _collector(enabled):
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


class TestCollectorPause:
    """``load_graph`` pauses the cyclic collector and restores the caller's state."""

    @pytest.mark.parametrize("text,error", [
        ('{"n": 2, "M": 2, "directed": false, "edges": [[1, 0, 1, 1.0]]}', None),
        ('{"n": 2, "M": 2, "directed": false, "edges": [[1, 0, 1, true]]}',
         GraphFormatError),
        ("not json at all", GraphFormatError),
        (None, FileNotFoundError),
    ], ids=["good", "format-error", "not-json", "missing"])
    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_collector_state_restored(self, tmp_path, text, error, enabled):
        path = tmp_path / "g.json"
        if text is not None:
            path.write_text(text)
        with _collector(enabled):
            with pytest.raises(error) if error else contextlib.nullcontext():
                load_graph(path)
            assert gc.isenabled() is enabled

    def test_paused_while_parsing(self, tmp_path, monkeypatch):
        seen = []
        for owner, name in ((json, "load"), (json, "loads"), (orjson, "loads"),
                            (stgl_io, "_edge_columns")):
            def spy(*args, real=getattr(owner, name), name=f"{owner.__name__}.{name}",
                    **kwargs):
                seen.append((name, gc.isenabled()))
                return real(*args, **kwargs)
            monkeypatch.setattr(owner, name, spy)
        graph = random_teg(0)
        path = tmp_path / "g.json"
        # save_graph's layout takes the sliced route, compact JSON the json route
        for write, route in (
                (lambda: save_graph(path, graph), {"orjson.loads", "json.loads",
                                                   "stgl.io._edge_columns"}),
                (lambda: path.write_text(json.dumps(reference_graph_payload(graph))),
                 {"json.load", "json.loads", "stgl.io._edge_columns"})):
            write()
            seen.clear()
            with _collector(True):
                load_graph(path)
                assert gc.isenabled()
            assert {name for name, _ in seen} == route
            assert not any(enabled for _, enabled in seen)


def _small_saved_graph(path):
    """A directed 3-vertex, 2-view graph with labels, saved by ``save_graph``."""
    W1 = np.array([[0.0, 0.5, 0.0], [0.0, 0.0, 2.0], [0.0, 0.0, 0.0]])
    W2 = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 3.0, 0.0]])
    save_graph(path, TimeEvolvingGraph([W1, W2], directed=True),
               [[0, 0, 1], [1, 1, 0]])
    return path.read_text()


_FIRST_RECORD = "    [\n      1,\n      0,\n      1,\n      0.5\n"


def _weight(value):
    return lambda text: text.replace("      0.5\n", f"      {value}\n")


def _view(value):
    return lambda text: text.replace(
        _FIRST_RECORD, _FIRST_RECORD.replace("      1,\n", f"      {value},\n", 1))


class TestSlicedRoute:
    """Every file gives the graph or the error the ``json`` route gives; the
    bytes alone choose the route."""

    @pytest.fixture()
    def json_load_calls(self, monkeypatch):
        """A list that grows by one item per ``json.load`` call."""
        calls = []
        real = json.load
        monkeypatch.setattr(json, "load", lambda *args, **kwargs:
                            calls.append(1) or real(*args, **kwargs))
        return calls

    @staticmethod
    def outcome(path):
        try:
            return load_graph(path)
        except GraphFormatError as err:
            return str(err)

    @staticmethod
    def json_route_outcome(path, monkeypatch):
        with monkeypatch.context() as patch:
            patch.setattr(stgl_io, "_sliced_document", lambda path: None)
            return TestSlicedRoute.outcome(path)

    def assert_json_route_outcome(self, path, monkeypatch):
        got, want = self.outcome(path), self.json_route_outcome(path, monkeypatch)
        if isinstance(want, str):
            assert got == want
        else:
            assert_same_load(got, want)
        return got

    # the messages are those of the json route, which parses the whole file
    @pytest.mark.parametrize("edit,route,message", [
        (lambda text: text.replace("\n", "\r\n"), "sliced", None),
        (lambda text: "\ufeff" + text, "json", "not a readable JSON file: Unexpected "
         "UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
        (lambda text: text.replace("      3.0\n    ]\n  ],", "      3.0\n    ],\n  ],"),
         "json", "not a readable JSON file: Expecting value: line 29 column 3 (char 247)"),
        (lambda text: text.replace('\n  "n": 3', '\n  "edges": [[2, 1, 1, 4.0]],\n  "n": 3'),
         "json", "the member 'edges' appears more than once"),
        (lambda text: text.replace('\n  "n": 3', '\n  "n": 2,\n  "n": 3'), "json",
         "the member 'n' appears more than once"),
        (lambda text: text[:text.index('"edges": [') + 10]
         + text[text.index('],\n  "labels"'):], "sliced", None),
        (_weight(2**64 + 1), "sliced", None),
        (_weight("1e400"), "json", "edge weight must be positive and finite, got inf"),
        (_weight("NaN"), "json", "edge weight must be positive and finite, got nan"),
        (_weight("0.1000000000000000055511151231257827021181583404541015625"),
         "sliced", None),
        (_view("1.0"), "json", "edges must be a list of [t, i, j, w] number records, "
         "got [1.0, 0, 1, 0.5]"),
        (_view("-0"), "sliced", "view 0 out of range [1, 2]"),
        (_view("01"), "json", "not a readable JSON file: Expecting ',' delimiter: "
         "line 6 column 8 (char 58)"),
        # json.loads would read these bytes as a string; strict UTF-8 does not
        (lambda text: text.replace('\n  "n": 3', '\n  "x": "\ud800",\n  "n": 3'),
         "json", "not a readable JSON file: 'utf-8' codec can't decode byte 0xed "
         "in position 353: invalid continuation byte"),
        (lambda text: text.replace('\n  "n": 3', '\n  "\\u0065dges": [[2, 1, 1, 4.0]],'
                                   '\n  "n": 3'), "json",
         "the member 'edges' appears more than once"),
        (lambda text: text.replace('"labels": [\n    [\n      0,',
                                   f'"labels": [\n    [\n      {2**63},'), "sliced",
         "labels must be integers: Python int too large to convert to C long"),
        (lambda text: text.replace('\n  "n": 3', '\n  "x": "\\u0041",\n  "n": 3'),
         "sliced", None),
    ], ids=["crlf", "bom", "trailing-comma", "second-edges", "second-n", "no-edges",
            "weight-2**64+1", "weight-1e400", "weight-NaN", "weight-long-0.1",
            "view-1.0", "view--0", "view-01", "lone-surrogate", "escaped-edges",
            "label-2**63", "escape-in-tail"])
    def test_pinned_cases(self, tmp_path, monkeypatch, json_load_calls, edit, route,
                          message):
        path = tmp_path / "g.json"
        text = edit(_small_saved_graph(path))
        path.write_bytes(text.encode("utf-8", "surrogatepass"))
        got = self.assert_json_route_outcome(path, monkeypatch)
        # one json.load for the json route's outcome, one more if load_graph
        # took that route
        assert len(json_load_calls) == 1 + (route == "json")
        if message is not None:
            assert got == message
        else:
            assert_same_load(got, reference_load_graph(path))

    @pytest.mark.parametrize("chunk", [1, 60, 150])
    @pytest.mark.parametrize("bad", ["1.0, 0, 1, 1.0", "1, 0, 1, NaN", "1, 0, 9, 1.0",
                                     f"{2**64 + 1}, 0, 1, 1.0",
                                     '1, 0, 1, "x"', "1, 0, 1", "1, 0, [1], 1.0"])
    def test_slice_cut_next_to_a_bad_record(self, tmp_path, monkeypatch,
                                            json_load_calls, chunk, bad):
        # records are about 60 bytes apart, and the first read also covers the
        # members before them: a cut falls on each side of every record at
        # chunk 1, and beside some of them at the larger chunks
        monkeypatch.setattr(stgl_io, "READ_SLICE_BYTES", chunk)
        doc = reference_graph_payload(random_teg(3, n_max=8, M_max=2))
        path = tmp_path / "g.json"
        count = len(doc["edges"])
        for k in sorted({0, 1, count // 2, count - 1}):
            edges = doc["edges"][:k] + ["bad"] + doc["edges"][k + 1:]
            text = json.dumps({**doc, "edges": edges}, indent=2, sort_keys=True)
            path.write_text(text.replace('"bad"', f"[{bad}]"))
            assert isinstance(self.assert_json_route_outcome(path, monkeypatch), str)
        path.write_text(json.dumps(doc, indent=2, sort_keys=True))
        json_load_calls.clear()
        got = self.assert_json_route_outcome(path, monkeypatch)
        assert len(json_load_calls) == 1  # the json route's outcome alone
        assert_same_load(got, reference_load_graph(path))

    def test_peak_below_the_json_route(self, tmp_path):
        # the json route holds every record as Python objects, the sliced
        # route one read buffer, one run of records and the columns (10.4 MB
        # against 48.0 MB, numpy 2.4; 30.6 MB when the file was held whole);
        # a leading space sends the same document to the json route, and its
        # CRLF copy takes the sliced route
        path, crlf, spaced = (tmp_path / f"{name}.json"
                              for name in ("b2", "crlf", "spaced"))
        save_graph(path, *gen_benchmark2(0))
        crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        spaced.write_bytes(b" " + path.read_bytes())
        peaks = []
        for file in (path, crlf, spaced):
            tracemalloc.start()
            try:
                load_graph(file)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks[:2]) < 0.45 * peaks[2]


class TestEdgeOrder:
    """The loader's one-key sort orders records exactly as ``np.lexsort``, and
    its dedup mask is bitwise the mask of the stacked column differences."""

    @staticmethod
    def check(columns, n):
        """Whether ``_edge_order``'s order equals the lexsort of the t, i, j
        columns that lead ``columns``, whether its sorted key gives back their
        sorted values, and whether its mask equals ``reference_new_records``."""
        t, i, j = columns[:3]
        order, key, new = returned = _edge_order(columns, n)
        lexsorted = np.lexsort((j, i, t))
        t, i, j = t[lexsorted], i[lexsorted], j[lexsorted]
        want = reference_new_records(t, i, j)
        return (np.array_equal(order, lexsorted),
                all(map(np.array_equal, (key // n // n, key // n % n, key % n), (t, i, j))),
                new.dtype == want.dtype and np.array_equal(new, want)), returned

    @pytest.fixture()
    def checked(self, monkeypatch):
        """Each ``check`` of an ``_edge_order`` call of a load."""
        results = []

        def checking(columns, n):
            result, returned = self.check(columns, n)
            results.append(result)
            return returned

        monkeypatch.setattr("stgl.io._edge_order", checking)
        return results

    @pytest.mark.parametrize("arrangement", ["shuffled", "reversed"])
    @pytest.mark.parametrize("seed", range(6))  # seeds 2, 3 and 5 are undirected
    def test_loads_like_lexsort(self, tmp_path, checked, seed, arrangement):
        graph = random_teg(seed, n_max=30)
        doc = reference_graph_payload(graph)
        edges = doc["edges"]
        rng = np.random.default_rng(seed)
        if not graph.directed:
            # either orientation is valid, and repeats in the other one
            # interleave with the mirrored half of the records
            edges = [[t, j, i, w] if rng.random() < 0.5 else [t, i, j, w]
                     for t, i, j, w in edges]
            edges += [[t, j, i, w] for t, i, j, w in edges[::3]]
        doc["edges"] = (edges[::-1] if arrangement == "reversed"
                        else [edges[k] for k in rng.permutation(len(edges))])
        path = tmp_path / "g.json"
        path.write_text(json.dumps(doc))
        assert_same_load(load_graph(path), reference_load_graph(path))
        assert checked == [(True, True, True)]

    @pytest.mark.parametrize("conflict", [False, True], ids=["repeats", "conflict"])
    @pytest.mark.parametrize("seed", range(6))  # seeds 2, 3 and 5 are undirected
    def test_dedup_mask_like_reference(self, tmp_path, checked, seed, conflict):
        graph = random_teg(seed, n_max=30)
        doc = reference_graph_payload(graph)
        edges = doc["edges"]
        rng = np.random.default_rng(seed)
        # records repeated up to three times, an undirected one also mirrored,
        # and with one repeat's weight changed where the records conflict
        repeats = [[t, j, i, w] if not graph.directed and rng.random() < 0.5
                   else [t, i, j, w] for t, i, j, w in edges
                   for _ in range(rng.integers(0, 4))]
        if conflict:
            repeats[len(repeats) // 2][3] += 1.0
        doc["edges"] = [(edges + repeats)[k]
                        for k in rng.permutation(len(edges) + len(repeats))]
        path = tmp_path / "g.json"
        path.write_text(json.dumps(doc))
        got, want = (_load_or_none(loader, path)
                     for loader in (load_graph, reference_load_graph))
        assert (got is None) is (want is None) is conflict
        if got is not None:
            assert_same_load(got, want)
        assert checked == [(True, True, True)]

    @pytest.mark.parametrize("M", [1, 3])
    def test_exact_where_the_key_would_overflow(self, tmp_path, M):
        # at n = 2**31, (M + 1) n² is 2**63 for M = 1 and 2**64 for M = 3, where
        # the key (t n + i) n + j would wrap; the header check refuses such a
        # file before any sort, and at the largest n it accepts for M views,
        # with t = M and i = j = n - 1, the largest key (M + 1) n² - 1 still
        # fits in int64 (no graph this large is allocated)
        assert (M + 1) * 2**62 >= 2**63
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"n": 2**31, "M": M, "directed": True,
                                    "edges": [[1, 0, 0, 1.0]]}))
        with pytest.raises(GraphFormatError, match="system size"):
            load_graph(path)
        n = stgl_io.MAX_SYSTEM_SIZE // M
        rng = np.random.default_rng(M)
        extremes = np.array([0, 1, n - 2, n - 1])
        t = rng.integers(1, M + 1, 4000)
        i, j = (np.where(rng.random(4000) < 0.5, rng.integers(0, n, 4000),
                         rng.choice(extremes, 4000)) for _ in range(2))
        t[:2], i[:2], j[:2] = M, n - 1, [n - 1, n - 2]
        assert int(((t * n + i) * n + j).max()) == (M + 1) * n * n - 1 < 2**63
        assert self.check([t, i, j], n)[0] == (True, True, True)


def _graph_with_empty_view(seed):
    graph = random_teg(seed, n_max=15, M_max=4)
    snaps = list(graph.snapshots)
    snaps[1] = sparse.csr_array((graph.n, graph.n))
    return TimeEvolvingGraph(snaps, directed=graph.directed)


def _integer_weight_graph():
    W = sparse.csr_array(np.array([[0, 2, 0], [2, 0, 7], [0, 7, 1]]))
    return TimeEvolvingGraph((W, W), directed=False)


class TestSaveGraphBytes:
    """``save_graph`` writes exactly ``json.dumps(indent=2, sort_keys=True)``."""

    @staticmethod
    def assert_dumps_bytes(path, graph, labels=None):
        save_graph(path, graph, labels)
        payload = reference_graph_payload(graph, labels)
        expected = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert path.read_bytes() == expected.encode()

    @pytest.mark.parametrize("seed", range(8))
    def test_random_graphs(self, tmp_path, seed):
        graph = random_teg(seed)
        labels = (np.random.default_rng(seed).integers(-2, 5, (graph.M, graph.n))
                  if seed % 2 else None)
        self.assert_dumps_bytes(tmp_path / "g.json", graph, labels)

    def test_empty_view_and_integer_weights(self, tmp_path):
        for seed in range(2):
            graph = _graph_with_empty_view(seed)
            assert graph.snapshots[1].nnz == 0
            self.assert_dumps_bytes(tmp_path / "e.json", graph)
        self.assert_dumps_bytes(tmp_path / "i.json", _integer_weight_graph())

    def test_no_edges(self, tmp_path):
        graph = TimeEvolvingGraph([np.zeros((2, 2))] * 2)
        self.assert_dumps_bytes(tmp_path / "z.json", graph, np.zeros((2, 2)))

    def test_generators(self, tmp_path):
        self.assert_dumps_bytes(tmp_path / "b1.json", *gen_benchmark1(0))
        self.assert_dumps_bytes(tmp_path / "b2.json", *gen_benchmark2(0))
        self.assert_dumps_bytes(tmp_path / "l.json", gen_line_graph())


def _chain_graph(edges, M):
    """Directed graph on 3 vertices with ``edges`` records at view 1."""
    W = np.zeros((3, 3))
    for (i, j), w in zip([(0, 1), (1, 2), (2, 0), (0, 0)][:edges],
                         [0.1, 2.0, 1e-300, 12345678.9]):
        W[i, j] = w
    return TimeEvolvingGraph([W] + [np.zeros((3, 3))] * (M - 1),
                                        directed=True)


def _record_counts(chunk):
    return sorted({0, 1, chunk - 1, chunk, chunk + 1})


def _float_oracle(values):
    return list(map(repr, np.asarray(values, dtype=float).tolist()))


class TestTokens:
    """``_tokens`` gives the text ``map(str, a.tolist())`` would give: the
    repr of each float64 and the digits of each int64."""

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(st.lists(st.floats(width=64), max_size=40))
    def test_floats(self, values):
        assert stgl_io._tokens(np.array(values, dtype=float)) == _float_oracle(values)

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(st.lists(st.integers(-2**63, 2**63 - 1), max_size=40))
    def test_ints(self, values):
        array = np.array(values, dtype=np.int64)
        assert stgl_io._tokens(array) == list(map(str, values))

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(0).integers(0, 2**64, size=200_000,
                                                 dtype=np.uint64)
        values = bits.view(np.float64)
        assert stgl_io._tokens(values) == _float_oracle(values)

    def test_pinned_values(self):
        tiny, huge = np.finfo(float).smallest_subnormal, np.finfo(float).max
        edges = [v for edge in (1e-4, 1e16) for sign in (1, -1)
                 for v in (np.nextafter(sign * edge, 0), sign * edge,
                           np.nextafter(sign * edge, sign * np.inf))]
        values = [0.0, -0.0, tiny, -tiny, huge, -huge, np.inf, -np.inf,
                  np.nan, *edges, 1.0, 0.1, 12345678.9]
        tokens = stgl_io._tokens(np.array(values))
        assert tokens == _float_oracle(values)
        assert tokens[:9] == ["0.0", "-0.0", "5e-324", "-5e-324",
                              "1.7976931348623157e+308", "-1.7976931348623157e+308",
                              "inf", "-inf", "nan"]
        extremes = [2**63 - 1, -(2**63 - 1), -2**63, 0, -1]
        assert stgl_io._tokens(np.array(extremes)) == list(map(str, extremes))

    def test_empty_strided_float32_and_string_chunks(self):
        assert stgl_io._tokens(np.array([], dtype=float)) == []
        assert stgl_io._tokens(np.array([], dtype=np.int64)) == []
        labels = np.arange(12).reshape(3, 4) * -7
        for column in labels.T:  # stride 4 elements
            assert stgl_io._tokens(column) == list(map(str, column.tolist()))
        values = np.linspace(-3.0, 3.0, 30).reshape(5, 6)[:, ::2].T
        for column in values:
            assert stgl_io._tokens(column) == _float_oracle(column)
        single = np.array([0.1, 1e-5, 3.0], dtype=np.float32)
        assert stgl_io._tokens(single) == _float_oracle(single)
        tags = ("constant", "spatial", "temporal")
        assert stgl_io._tokens(np.asarray(tags)) == list(tags)


class TestStreamedWriters:
    """The chunked writers' bytes do not depend on where the chunks split."""

    @pytest.mark.parametrize("chunk", [1, 2, 3])
    def test_graph_bytes_across_chunk_edges(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(stgl_io, "WRITE_ROW_CHUNK", chunk)
        for count in _record_counts(chunk):
            # count edge records, and max(2, count) label rows
            graph = _chain_graph(count, max(2, count))
            labels = np.arange(graph.M * graph.n).reshape(graph.M, graph.n) % 3
            for truth in (None, labels):
                TestSaveGraphBytes.assert_dumps_bytes(tmp_path / "g.json",
                                                      graph, truth)

    @pytest.mark.parametrize("chunk", [1, 2, 3])
    def test_eigenvector_bytes_across_chunk_edges(self, tmp_path, monkeypatch,
                                                  chunk):
        monkeypatch.setattr(stgl_io, "WRITE_ROW_CHUNK", chunk)
        for count in _record_counts(chunk):
            k = min(count, 1)  # k x M x 1 records with M = count (M = 1 if 0)
            M = max(count, 1)
            vectors = np.linspace(-1.5, 2.5, M * k).reshape(M, k)
            embedding = SpectralEmbedding(M=M, eigenvalues=np.ones(k),
                                          vectors=vectors, tags=("spatial",) * k)
            save_eigenvectors_csv(tmp_path / "vec.csv", embedding)
            rows = [[idx, t + 1, 0, repr(float(folded[t, 0]))]
                    for idx, folded in enumerate(embedding.folded, start=1)
                    for t in range(M)]
            assert len(rows) == count
            assert (tmp_path / "vec.csv").read_bytes() == _csv_writer_bytes(
                ["eig_index", "view", "vertex", "value"], rows)

    @staticmethod
    def fail_after_first_chunk(monkeypatch):
        """Make every streamed write raise once its first chunk is written;
        returns the list of chunks written."""
        monkeypatch.setattr(stgl_io, "WRITE_ROW_CHUNK", 1)
        real = stgl_io._row_chunks
        written = []

        def failing(*args, **kwargs):
            for chunk in real(*args, **kwargs):
                yield chunk
                written.append(chunk)
                raise RuntimeError("disk gone")

        monkeypatch.setattr(stgl_io, "_row_chunks", failing)
        return written

    @pytest.mark.parametrize("write", ["graph", "vectors", "labels"])
    def test_failure_after_first_chunk_leaves_no_file(self, tmp_path,
                                                      monkeypatch, write):
        written = self.fail_after_first_chunk(monkeypatch)
        embedding = SpectralEmbedding(M=2, eigenvalues=np.ones(1),
                                      vectors=np.ones((6, 1)), tags=("spatial",))
        with pytest.raises(RuntimeError, match="disk gone"):
            if write == "graph":
                save_graph(tmp_path / "g.json", _chain_graph(3, 2))
            elif write == "vectors":
                save_eigenvectors_csv(tmp_path / "vec.csv", embedding)
            else:
                save_labels_csv(tmp_path / "labels.csv", np.zeros((2, 3), dtype=int))
        assert len(written) == 1
        assert os.listdir(tmp_path) == []

    def test_failed_rewrite_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "g.json"
        save_graph(path, _chain_graph(2, 2))
        before = path.read_bytes()
        self.fail_after_first_chunk(monkeypatch)
        with pytest.raises(RuntimeError, match="disk gone"):
            save_graph(path, _chain_graph(3, 2))
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["g.json"]

    def test_graph_write_allocates_less_than_the_file(self, tmp_path):
        # the whole text of benchmark2 (15 MB) is never held in memory
        graph, labels = gen_benchmark2(0)
        path = tmp_path / "b2.json"
        tracemalloc.start()
        try:
            save_graph(path, graph, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size


def _csv_writer_bytes(header, rows):
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue().encode()


class TestWriters:
    def test_csv_bytes_and_no_temp_files(self, tmp_path):
        header = ["view", "vertex", "value", "tag"]
        columns = [np.arange(1, 5), np.array([0, 1, -1, 7]),
                   np.array([0.5, -0.0, 1e-300, 12345678.9]),
                   ["spatial", "temporal", "constant", "spatial"]]
        write_csv(tmp_path / "t.csv", header, columns)
        rows = [[t, v, repr(x), tag] for t, v, x, tag in
                zip(columns[0].tolist(), columns[1].tolist(), columns[2].tolist(),
                    columns[3])]
        data = (tmp_path / "t.csv").read_bytes()
        assert data == _csv_writer_bytes(header, rows)
        assert b",-0.0,temporal\r\n" in data and b",1e-300," in data
        write_csv(tmp_path / "empty.csv", header, [[], [], [], []])
        assert (tmp_path / "empty.csv").read_bytes() == _csv_writer_bytes(header, [])
        assert sorted(os.listdir(tmp_path)) == ["empty.csv", "t.csv"]

    def test_spectrum_csv_bytes(self, tmp_path):
        eigenvalues = np.array([1.0, 0.25, -0.0, 1e-300, -0.75, 1 / 3])
        tags = ("constant", "spatial", "temporal", "spatial", "temporal", "spatial")
        save_spectrum_csv(tmp_path / "spectrum.csv", eigenvalues, tags)
        rows = [[i + 1, repr(float(ev)), repr(float(1.0 - ev)), tag]
                for i, (ev, tag) in enumerate(zip(eigenvalues, tags))]
        data = (tmp_path / "spectrum.csv").read_bytes()
        assert data == _csv_writer_bytes(
            ["index", "eigenvalue_C", "eigenvalue_L", "tag"], rows)
        assert b"3,-0.0,1.0,temporal\r\n" in data and b"4,1e-300,1.0," in data

    @pytest.fixture()
    def umask_027(self):
        old = os.umask(0o027)
        try:
            yield
        finally:
            os.umask(old)

    @pytest.mark.skipif(os.name != "posix", reason="POSIX permission bits")
    def test_mode_follows_the_umask(self, tmp_path, umask_027):
        # as open(path, "w") creates a file, for a new and a replaced one
        replaced = tmp_path / "old.csv"
        replaced.write_text("old")
        os.chmod(replaced, 0o600)
        save_labels_csv(tmp_path / "new.csv", np.zeros((2, 3), dtype=int))
        atomic_write_text(replaced, "new")
        with open(tmp_path / "plain.txt", "w"):
            pass
        modes = {path.name: stat.S_IMODE(path.stat().st_mode)
                 for path in tmp_path.iterdir()}
        assert modes == {"new.csv": 0o640, "old.csv": 0o640, "plain.txt": 0o640}
        assert replaced.read_text() == "new"

    def test_taken_temp_name_is_skipped(self, tmp_path, monkeypatch):
        taken = tmp_path / f".tmp-{bytes(8).hex()}"
        taken.write_text("someone else's")
        draws = iter([bytes(8), bytes(range(8))])
        monkeypatch.setattr(stgl_io.os, "urandom", lambda size: next(draws))
        atomic_write_text(tmp_path / "t.txt", "mine")
        assert taken.read_text() == "someone else's"
        assert sorted(os.listdir(tmp_path)) == [taken.name, "t.txt"]

    def test_labels_csv_bytes(self, tmp_path):
        labels = np.array([[0, 1, 1, 2], [2, 2, 0, -1], [1, 0, 0, 0]])
        save_labels_csv(tmp_path / "labels.csv", labels)
        rows = [[t + 1, v, int(labels[t, v])]
                for t in range(labels.shape[0]) for v in range(labels.shape[1])]
        assert (tmp_path / "labels.csv").read_bytes() == _csv_writer_bytes(
            ["view", "vertex", "label"], rows)
        # labels held as floats are still written as integers
        save_labels_csv(tmp_path / "float.csv", labels.astype(float))
        assert ((tmp_path / "float.csv").read_bytes()
                == (tmp_path / "labels.csv").read_bytes())

    def test_eigenvectors_csv_bytes(self, tmp_path):
        n, M, k = 3, 4, 5
        vectors = np.random.default_rng(0).standard_normal((M * n, k))
        vectors[:4, 1] = 0.1                    # one value, repeated
        vectors[4:6, 2] = [0.0, -0.0]           # equal, but printed apart
        vectors[6, 3] = 1e-300
        vectors[7, 3] = 12345678.9
        embedding = SpectralEmbedding(M=M, eigenvalues=np.arange(k, 0, -1.0),
                                      vectors=vectors, tags=("spatial",) * k)
        save_eigenvectors_csv(tmp_path / "vec.csv", embedding)
        rows = [[idx, t + 1, v, repr(float(folded[t, v]))]
                for idx, folded in enumerate(embedding.folded, start=1)
                for t in range(M) for v in range(n)]
        data = (tmp_path / "vec.csv").read_bytes()
        assert data == _csv_writer_bytes(["eig_index", "view", "vertex", "value"],
                                         rows)
        assert b",0.0\r\n" in data and b",-0.0\r\n" in data


class TestReports:
    def test_report_sections(self, tmp_path):
        path = tmp_path / "r.json"
        write_report(path, {"k": 2}, {"ari": [1.0]}, {"total_s": 0.5})
        doc = json.loads(path.read_text())
        assert set(doc) == {"config", "results", "timings"}

    def test_reports_identical_modulo_timings(self, tmp_path):
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        write_report(p1, {"k": 2}, {"x": 1}, {"total_s": 0.123})
        write_report(p2, {"k": 2}, {"x": 1}, {"total_s": 9.876})
        d1, d2 = json.loads(p1.read_text()), json.loads(p2.read_text())
        d1.pop("timings"), d2.pop("timings")
        assert d1 == d2
