import csv
import io
import json
import os

import numpy as np
import pytest

from stgl import (GraphFormatError, TimeEvolvingGraph, gen_line_graph,
                  load_graph, save_graph, static_blocks)
from stgl.io import write_csv, write_report


class TestTimeEvolvingGraph:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(GraphFormatError):
            TimeEvolvingGraph.from_dense([np.zeros((2, 2)), np.zeros((3, 3))])

    def test_negative_weight_rejected(self):
        with pytest.raises(GraphFormatError):
            TimeEvolvingGraph.from_dense([-np.eye(2), np.eye(2)])

    @pytest.mark.parametrize("weight", [np.nan, np.inf])
    def test_non_finite_weight_rejected(self, weight):
        W = np.array([[0.0, weight], [weight, 0.0]])
        with pytest.raises(GraphFormatError):
            TimeEvolvingGraph.from_dense([W, np.eye(2)], directed=True)

    def test_asymmetric_undirected_rejected(self):
        W = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(GraphFormatError):
            TimeEvolvingGraph.from_dense([W, W], directed=False)

    def test_single_view_rejected(self):
        with pytest.raises(GraphFormatError):
            TimeEvolvingGraph.from_dense([np.eye(2)])

    def test_self_loops_added(self):
        g = gen_line_graph()
        looped = g.with_self_loops()
        np.testing.assert_allclose(looped.dense(1) - g.dense(1), np.eye(6))

    def test_edge_records_undirected_once(self):
        g = gen_line_graph()
        records = list(g.edge_records())
        assert all(i <= j for _, i, j, _ in records)
        # 5 chain edges per view, 4 views
        assert len(records) == 20


class TestGraphFiles:
    def test_round_trip_undirected(self, tmp_path):
        g, labels = static_blocks(n=12, blocks=2, M=3, seed=4)
        path = tmp_path / "g.json"
        save_graph(path, g, labels)
        g2, labels2 = load_graph(path)
        assert g2.n == g.n and g2.M == g.M and g2.directed == g.directed
        for t in range(1, g.M + 1):
            np.testing.assert_allclose(g2.dense(t), g.dense(t), atol=0)
        assert np.array_equal(labels2, labels)

    def test_round_trip_directed(self, tmp_path):
        rng = np.random.default_rng(0)
        W = rng.random((4, 4)) * (rng.random((4, 4)) < 0.5)
        np.fill_diagonal(W, 0)
        g = TimeEvolvingGraph.from_dense([W, W * 2.0], directed=True)
        path = tmp_path / "d.json"
        save_graph(path, g)
        g2, labels = load_graph(path)
        assert labels is None
        np.testing.assert_allclose(g2.dense(2), g.dense(2), atol=0)

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

    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json at all")
        with pytest.raises(GraphFormatError):
            load_graph(path)

    def test_undirected_mirrored(self, tmp_path):
        path = tmp_path / "u.json"
        path.write_text(json.dumps({"n": 2, "M": 2, "directed": False,
                                    "edges": [[1, 0, 1, 2.5], [2, 0, 1, 1.0]]}))
        g, _ = load_graph(path)
        np.testing.assert_allclose(g.dense(1), [[0.0, 2.5], [2.5, 0.0]])


class TestWriters:
    def test_csv_bytes_and_no_temp_files(self, tmp_path):
        rows = [[1, 0, "0.5"], [2, 1, 'a "quoted", field']]
        write_csv(tmp_path / "t.csv", ["view", "vertex", "value"], rows)
        expected = io.StringIO()
        writer = csv.writer(expected)
        writer.writerow(["view", "vertex", "value"])
        writer.writerows(rows)
        assert (tmp_path / "t.csv").read_bytes() == expected.getvalue().encode()
        assert b"\r\n" in (tmp_path / "t.csv").read_bytes()
        assert os.listdir(tmp_path) == ["t.csv"]


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
