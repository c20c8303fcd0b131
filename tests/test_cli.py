import json
import os

import numpy as np
import pytest

from stgl import clustering, laplacian
from stgl.cli import main

from util import arpack_two_converged


def run(argv):
    return main(argv)


@pytest.fixture()
def linegraph_file(tmp_path):
    path = tmp_path / "line.json"
    assert run(["generate", "linegraph", "--file", str(path)]) == 0
    return path


@pytest.fixture()
def planted_file(tmp_path):
    path = tmp_path / "planted.json"
    assert run(["generate", "planted", "--seed", "3", "--file", str(path)]) == 0
    return path


class TestGenerate:
    def test_linegraph_summary(self, linegraph_file):
        doc = json.loads(linegraph_file.read_text())
        assert doc["n"] == 6 and doc["M"] == 4 and doc["directed"] is False

    def test_benchmark1_header(self, tmp_path):
        path = tmp_path / "b1.json"
        assert run(["generate", "benchmark1", "--file", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert doc["n"] == 300 and doc["M"] == 10
        assert len(doc["labels"]) == 10

    def test_same_seed_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        run(["generate", "planted", "--seed", "7", "--file", str(p1)])
        run(["generate", "planted", "--seed", "7", "--file", str(p2)])
        assert p1.read_bytes() == p2.read_bytes()

    def test_unknown_generator_is_config_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            run(["generate", "wat"])
        assert err.value.code == 2

    def test_out_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("STGL_OUT_DIR", str(tmp_path / "envout"))
        assert run(["generate", "linegraph"]) == 0
        assert (tmp_path / "envout" / "linegraph.json").exists()


class TestCluster:
    def test_end_to_end_on_planted(self, planted_file, tmp_path):
        out = tmp_path / "out"
        code = run(["cluster", "--input", str(planted_file), "--k", "2",
                    "--seed", "1", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["results"]["ari_per_view"] == [1.0, 1.0, 1.0]
        labels = (out / "labels.csv").read_text().splitlines()
        assert labels[0] == "view,vertex,label"
        assert len(labels) == 1 + 3 * 30
        spectrum = (out / "spectrum.csv").read_text().splitlines()
        assert spectrum[0] == "index,eigenvalue_C,eigenvalue_L,tag"

    def test_deterministic_modulo_timings(self, planted_file, tmp_path):
        outs = []
        for name in ("o1", "o2"):
            out = tmp_path / name
            assert run(["cluster", "--input", str(planted_file), "--k", "2",
                        "--seed", "5", "--out", str(out)]) == 0
            outs.append(out)
        assert (outs[0] / "labels.csv").read_bytes() == (outs[1] / "labels.csv").read_bytes()
        assert (outs[0] / "spectrum.csv").read_bytes() == (outs[1] / "spectrum.csv").read_bytes()
        docs = [json.loads((o / "report.json").read_text()) for o in outs]
        for d in docs:
            d.pop("timings")
        assert docs[0] == docs[1]

    def test_generator_input(self, tmp_path):
        out = tmp_path / "gen"
        code = run(["cluster", "--generator", "linegraph", "--k", "3",
                    "--out", str(out)])
        assert code == 0
        assert (out / "report.json").exists()

    def test_missing_file_is_format_error(self, tmp_path):
        assert run(["cluster", "--input", str(tmp_path / "nope.json"),
                    "--k", "2", "--out", str(tmp_path)]) == 3

    def test_broken_file_is_format_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{]")
        assert run(["cluster", "--input", str(bad), "--k", "2",
                    "--out", str(tmp_path)]) == 3

    @pytest.mark.parametrize("directed,edges", [
        (True, "[[1, 0, 1, NaN]]"),
        (False, "[[1, 0, 1, Infinity]]"),
        (False, "5"),
        (False, "[7]"),
        (False, '[[1, 0, 1, "x"]]'),
        (False, "[[1, 0, 0, 1e308], [1, 0, 1, 1e308]]"),
    ], ids=["nan-weight", "inf-weight", "edges-not-list", "record-not-list",
            "non-numeric-field", "overflowing-degree"])
    def test_bad_input_is_format_error(self, tmp_path, directed, edges):
        bad = tmp_path / "bad.json"
        bad.write_text(f'{{"n": 2, "M": 2, "directed": {str(directed).lower()}, '
                       f'"edges": {edges}}}')
        assert run(["cluster", "--input", str(bad), "--k", "2",
                    "--out", str(tmp_path)]) == 3

    def test_impossible_k_is_insufficient(self, linegraph_file, tmp_path):
        code = run(["cluster", "--input", str(linegraph_file), "--k", "25",
                    "--out", str(tmp_path)])
        assert code == 5

    def test_lanczos_failure_is_numerical_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(laplacian, "DENSE_EIG_CUTOFF", 1)
        monkeypatch.setattr(laplacian, "eigsh", arpack_two_converged)
        code = run(["cluster", "--generator", "planted", "--k", "2",
                    "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 4
        assert "converged 2 of" in err and "Traceback" not in err

    def test_kmeans_failure_is_numerical_error(self, tmp_path, monkeypatch, capsys):
        growing = iter(range(1, 10**6))
        real = clustering._assign
        monkeypatch.setattr(clustering, "_assign", lambda points, centroids: (
            real(points, centroids)[0], float(next(growing))))
        code = run(["cluster", "--generator", "planted", "--k", "2",
                    "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 4
        assert "objective increased" in err and "Traceback" not in err

    def test_zero_restarts_is_config_error(self, tmp_path, capsys):
        code = run(["cluster", "--generator", "planted", "--k", "2",
                    "--restarts", "0", "--out", str(tmp_path)])
        assert code == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_export_vectors(self, linegraph_file, tmp_path):
        out = tmp_path / "vec"
        run(["cluster", "--input", str(linegraph_file), "--k", "2",
             "--export-vectors", "--out", str(out)])
        header = (out / "eigenvectors.csv").read_text().splitlines()[0]
        assert header == "eig_index,view,vertex,value"


class TestSpectrum:
    def test_single_vertex_chain(self, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"n": 1, "M": 2, "directed": True,
                                    "edges": [[1, 0, 0, 1.0], [2, 0, 0, 1.0]]}))
        out = tmp_path / "spec"
        assert run(["spectrum", "--input", str(path), "--j", "2",
                    "--no-self-loops", "--out", str(out)]) == 0
        rows = (out / "spectrum.csv").read_text().splitlines()[1:]
        values = [float(r.split(",")[1]) for r in rows]
        assert values == [1.0]

    def test_full_spectrum_includes_negative(self, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"n": 1, "M": 2, "directed": True,
                                    "edges": [[1, 0, 0, 1.0], [2, 0, 0, 1.0]]}))
        out = tmp_path / "spec2"
        assert run(["spectrum", "--input", str(path), "--j", "2",
                    "--no-self-loops", "--full-spectrum", "--out", str(out)]) == 0
        rows = (out / "spectrum.csv").read_text().splitlines()[1:]
        values = [float(r.split(",")[1]) for r in rows]
        assert values == [1.0, -1.0]


class TestBaseline:
    def test_grid_report(self, planted_file, tmp_path):
        out = tmp_path / "base"
        code = run(["baseline", "--input", str(planted_file), "--k", "2",
                    "--a-grid", "0.1,0.5", "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "baseline_report.json").read_text())
        assert [e["a"] for e in doc["results"]["per_a"]] == [0.1, 0.5]
        assert "best_a" in doc["results"]
        assert (out / "labels_a0.1.csv").exists()

    def test_directed_input_symmetrized_with_warning(self, tmp_path, capsys):
        path = tmp_path / "d.json"
        run(["generate", "benchmark2", "--file", str(path)])
        out = tmp_path / "dirbase"
        code = run(["baseline", "--input", str(path), "--k", "2",
                    "--a-grid", "0.1", "--out", str(out)])
        assert code == 0
        assert "symmetrized" in capsys.readouterr().err

    def test_empty_grid_is_config_error(self, planted_file, tmp_path):
        code = run(["baseline", "--input", str(planted_file), "--k", "2",
                    "--a-grid", " ", "--out", str(tmp_path)])
        assert code == 2

    @pytest.mark.parametrize("a", ["nan", "inf", "0.5,nan"])
    def test_non_finite_coupling_is_config_error(self, tmp_path, a):
        code = run(["baseline", "--generator", "planted", "--k", "2",
                    "--a-grid", a, "--out", str(tmp_path)])
        assert code == 2
        assert not list(tmp_path.glob("labels_a*.csv"))

    def test_overflowing_degree_is_format_error(self, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"n": 3, "M": 2, "directed": False,
                                    "edges": [[1, 0, 1, 1.0], [1, 1, 2, 1.0],
                                              [2, 0, 1, 1e308], [2, 1, 2, 1e308]]}))
        out = tmp_path / "huge"
        code = run(["baseline", "--input", str(path), "--k", "2",
                    "--a-grid", "0.5", "--out", str(out)])
        assert code == 3
        assert not list(out.glob("labels_a*.csv"))

    def test_negative_restarts_is_config_error(self, tmp_path, capsys):
        code = run(["baseline", "--generator", "planted", "--k", "2",
                    "--a-grid", "0.5", "--restarts", "-1", "--out", str(tmp_path)])
        assert code == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_short_single_pass_is_insufficient(self, tmp_path):
        # N = 4 vertex-views hold one temporal vector, so only three others
        path = tmp_path / "pair.json"
        path.write_text(json.dumps({"n": 2, "M": 2, "directed": False,
                                    "edges": [[1, 0, 1, 1.0], [2, 0, 1, 1.0]]}))
        code = run(["baseline", "--input", str(path), "--k", "4",
                    "--a-grid", "0.5", "--out", str(tmp_path / "short")])
        assert code == 5


class TestGyre:
    def test_full_gyre_pipeline(self, tmp_path):
        out = tmp_path / "gyre"
        code = run(["gyre", "--k", "2", "--seed", "1", "--out", str(out)])
        assert code == 0
        for name in ("gyre.json", "gyre_boxes.json", "labels.csv",
                     "spectrum.csv", "boundary.csv", "report.json"):
            assert (out / name).exists()
        doc = json.loads((out / "report.json").read_text())
        amp = doc["results"]["boundary_amplitude"]
        assert 0.15 <= amp <= 0.35
        boxes = json.loads((out / "gyre_boxes.json").read_text())
        assert boxes["nx"] == 40 and boxes["ny"] == 20
        assert len(boxes["centers"]) == 800


class TestWalk:
    def test_escape_report(self, linegraph_file, tmp_path):
        out = tmp_path / "walk"
        code = run(["walk", "--input", str(linegraph_file), "--vertices", "4,5",
                    "--walkers", "400", "--seed", "3", "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "walk_report.json").read_text())
        assert doc["results"]["final_outside_fraction"] < 0.1
        assert len(doc["results"]["occupancy_per_view"]) == 4

    def test_zero_walkers_is_config_error(self, linegraph_file, tmp_path):
        code = run(["walk", "--input", str(linegraph_file), "--vertices", "4,5",
                    "--walkers", "0", "--out", str(tmp_path)])
        assert code == 2
        assert not (tmp_path / "walk_report.json").exists()

    def test_requires_vertices(self, linegraph_file, tmp_path):
        code = run(["walk", "--input", str(linegraph_file), "--vertices", " ",
                    "--out", str(tmp_path)])
        assert code == 2
