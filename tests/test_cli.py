import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stgl import ConvergenceFailure, cli, clustering, laplacian, save_graph
from stgl.cli import main

from test_graph_io import _csv_writer_bytes
from util import (CORRUPTIONS, arpack_two_converged, clique_coupling_graph,
                  corrupt, random_teg, rank_one_coupling_graph)

SRC = Path(__file__).resolve().parents[1] / "src"


def run(argv):
    return main(argv)


def run_fresh(dense_cutoff, *commands):
    """The exit codes of ``main`` on each of ``commands``, run in order in one
    new interpreter with ``DENSE_EIG_CUTOFF`` set."""
    script = ("import json, sys; from stgl import laplacian; "
              "from stgl.cli import main; "
              "laplacian.DENSE_EIG_CUTOFF = int(sys.argv[1]); "
              "codes = [main(argv) for argv in json.loads(sys.argv[2])]; "
              "print(json.dumps(codes))")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script, str(dense_cutoff),
                           json.dumps(commands)],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=300, check=True)
    return json.loads(done.stdout.splitlines()[-1])


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

    def test_file_leaves_the_out_dir_alone(self, tmp_path, monkeypatch):
        monkeypatch.setenv("STGL_OUT_DIR", str(tmp_path / "unused"))
        path = tmp_path / "line.json"
        assert run(["generate", "linegraph", "--file", str(path),
                    "--out", str(tmp_path / "unused_too")]) == 0
        assert run(["generate", "linegraph", "--file", str(path)]) == 0
        assert sorted(os.listdir(tmp_path)) == ["line.json"]


class TestOutputLocation:
    PLANTED = ["cluster", "--generator", "planted", "--k", "2"]

    @pytest.mark.parametrize("argv,env", [
        (PLANTED + ["--out", ""], None),
        (PLANTED, ""),
        (PLANTED + ["--out", "afile"], None),
        (PLANTED + ["--out", "afile/sub"], None),
        (["generate", "linegraph", "--file", ""], None),
        (["generate", "linegraph", "--file", "afile/x.json"], None),
        (["generate", "linegraph", "--file", "sub/"], None),
        (["generate", "linegraph", "--file", "."], None),
        (["generate", "linegraph", "--out", "afile"], None),
    ], ids=["cluster-out-empty", "cluster-env-empty", "cluster-out-file",
            "cluster-out-under-file", "generate-file-empty",
            "generate-file-under-file", "generate-file-slash",
            "generate-file-dir", "generate-out-file"])
    def test_unusable_location_is_config_error(self, tmp_path, monkeypatch,
                                               capsys, argv, env):
        monkeypatch.chdir(tmp_path)
        if env is None:
            monkeypatch.delenv("STGL_OUT_DIR", raising=False)
        else:
            monkeypatch.setenv("STGL_OUT_DIR", env)
        (tmp_path / "afile").write_text("kept")
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert os.listdir(tmp_path) == ["afile"]
        assert (tmp_path / "afile").read_text() == "kept"

    @pytest.mark.parametrize("name", ["labels.csv", "spectrum.csv",
                                      "eigenvectors.csv", "report.json"])
    def test_output_name_that_is_a_directory(self, tmp_path, capsys, name):
        (tmp_path / name).mkdir()
        assert run(["cluster", "--generator", "linegraph", "--k", "3",
                    "--export-vectors", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert name in err and "is a directory" in err
        assert not [f for f in os.listdir(tmp_path) if f.startswith(".tmp-")]
        assert os.listdir(tmp_path / name) == []

    @pytest.mark.parametrize("argv,name", [
        (["cluster", "--generator", "linegraph", "--k", "3", "--export-vectors"],
         "report.json"),
        (["spectrum", "--generator", "linegraph", "--export-vectors"],
         "spectrum_report.json"),
        (["gyre", "--views", "2"], "report.json"),
        (["baseline", "--generator", "planted", "--k", "2", "--a-grid", "0.5"],
         "baseline_report.json"),
        (["generate", "gyre"], "gyre_boxes.json"),
        (["walk", "--generator", "linegraph", "--vertices", "4,5"],
         "walk_report.json"),
    ], ids=["cluster", "spectrum", "gyre", "baseline", "generate", "walk"])
    def test_no_file_written_before_a_later_name_fails(self, tmp_path, monkeypatch,
                                                       capsys, argv, name):
        # each command checks every output name before it writes the first;
        # the line graph stands in for the gyre generator's graph, which takes
        # seconds to build, and the output names stay the same
        monkeypatch.setitem(cli.GENERATORS, "gyre", cli.GENERATORS["linegraph"])
        (tmp_path / name).mkdir()
        assert run(argv + ["--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: output path {str(tmp_path / name)!r} is a directory\n"
        assert os.listdir(tmp_path) == [name]
        assert os.listdir(tmp_path / name) == []

    def test_missing_input_stays_format_error(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(["cluster", "--input", "missing.json", "--k", "2",
                    "--out", ""]) == 3
        assert os.listdir(tmp_path) == []


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

    @pytest.mark.parametrize("graph,cutoff,options,k,j", [
        (clique_coupling_graph()[0], laplacian.DENSE_EIG_CUTOFF, [], 3, 10),
        (rank_one_coupling_graph(), 1, ["--no-self-loops"], 2, 4),
    ], ids=["clique", "rank-one"])
    def test_rank_deficient_input_reproducible(self, tmp_path, graph, cutoff,
                                               options, k, j):
        # a rank-deficient Gram operator makes ARPACK ask for restart vectors,
        # which unseeded would come from fresh entropy in every process; the
        # second process runs the commands in the other order, so each solve
        # is compared both fresh and after an unrelated one
        path = tmp_path / "graph.json"
        save_graph(path, graph)

        def command(name, process):
            extra = ["--k", str(k)] if name == "cluster" else ["--j", str(j),
                                                               "--full-spectrum"]
            return [name, "--input", str(path), *options, *extra, "--export-vectors",
                    "--out", str(tmp_path / process / name)]

        for process, order in (("a", ("cluster", "spectrum")),
                               ("b", ("spectrum", "cluster"))):
            commands = [command(name, process) for name in order]
            assert run_fresh(cutoff, *commands) == [0, 0]
        for name in ("cluster", "spectrum"):
            outs = [tmp_path / process / name for process in ("a", "b")]
            files = sorted(f.name for f in outs[0].iterdir())
            assert "eigenvectors.csv" in files
            assert files == sorted(f.name for f in outs[1].iterdir())
            for f in files:
                a, b = ((out / f).read_bytes() for out in outs)
                if f.endswith(".json"):
                    a, b = json.loads(a), json.loads(b)
                    a.pop("timings"), b.pop("timings")
                assert a == b, f

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

    @pytest.mark.parametrize("kind", ["not-utf8", "directory"])
    def test_unreadable_input_is_format_error(self, tmp_path, capsys, kind):
        bad = tmp_path / "bad.json"
        if kind == "directory":
            bad.mkdir()
        else:
            bad.write_bytes(b'{"n": 2, "M": 2, "directed": false, '
                            b'"edges": [], "x": "\xff\xfe"}')
        code = run(["cluster", "--input", str(bad), "--k", "2",
                    "--out", str(tmp_path / "out")])
        lines = capsys.readouterr().err.splitlines()
        assert code == 3
        assert len(lines) == 1 and lines[0].startswith("error: "), lines

    @pytest.mark.parametrize("layout", ["compact", "saved"])
    def test_deeply_nested_input_is_format_error(self, tmp_path, capsys, layout):
        # a member nested past Python's recursion limit, on the json route
        # and in save_graph's layout
        deep = "[" * 100_000 + "]" * 100_000
        path = tmp_path / "deep.json"
        if layout == "compact":
            path.write_text('{"n": 2, "M": 2, "directed": false, '
                            f'"edges": [[1, 0, 1, 1.0]], "x": {deep}}}')
        else:
            save_graph(path, random_teg(0))
            text = path.read_text()
            path.write_text(text.replace('\n  "n": ', f'\n  "x": {deep},\n  "n": '))
        assert run(["cluster", "--input", str(path), "--k", "1",
                    "--out", str(tmp_path / "out")]) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1, lines
        assert lines[0].startswith("error: not a readable JSON file: maximum "
                                   "recursion depth exceeded")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("directed,edges", [
        ("true", "[[1, 0, 1, NaN]]"),
        ("false", "[[1, 0, 1, Infinity]]"),
        ("false", "5"),
        ("false", "[7]"),
        ("false", '[[1, 0, 1, "x"]]'),
        ("false", "[[1, 0, 0, 1e308], [1, 0, 1, 1e308]]"),
        ('"false"', "[[1, 0, 1, 1.0]]"),
        ("false", "[[1.7, 0, 1, 1.0]]"),
        ("false", "[[1, 0.9, 1, 1.0]]"),
        ("false", '[[1, "0", 1, 1.0]]'),
        ("false", '[[1, 0, 1, 1.0]], "labels": [[0, 1], [0, 1.5]]'),
    ], ids=["nan-weight", "inf-weight", "edges-not-list", "record-not-list",
            "non-numeric-field", "overflowing-degree", "directed-string",
            "fractional-view", "fractional-vertex", "string-vertex",
            "fractional-label"])
    def test_bad_input_is_format_error(self, tmp_path, directed, edges):
        bad = tmp_path / "bad.json"
        bad.write_text(f'{{"n": 2, "M": 2, "directed": {directed}, '
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

    def test_rank_one_coupling_clusters(self, tmp_path, monkeypatch, capsys):
        # the spatial pairs are null vectors of the symmetrized system, a
        # valid if uninformative spectrum, not a numerical failure
        path = tmp_path / "rank1.json"
        save_graph(path, rank_one_coupling_graph())
        monkeypatch.setattr(laplacian, "DENSE_EIG_CUTOFF", 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["cluster", "--input", str(path), "--k", "2",
                        "--no-self-loops", "--export-vectors",
                        "--out", str(tmp_path / "out")])
        assert code == 0
        assert capsys.readouterr().err == ""
        assert (tmp_path / "out" / "eigenvectors.csv").exists()
        spectrum = (tmp_path / "out" / "spectrum.csv").read_text()
        assert "nan" not in spectrum.lower()

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

    @pytest.mark.parametrize("a_grid,name", [
        ("1.234567,1.2345671", "labels_a1.23457.csv"),
        ("0.5,0.5", "labels_a0.5.csv"),
    ])
    def test_repeated_output_name_is_config_error(self, tmp_path, capsys, a_grid,
                                                  name):
        # two a values that format to one file name would leave one file for
        # both; the run writes nothing instead
        out = tmp_path / "base"
        assert run(["baseline", "--generator", "planted", "--k", "2",
                    "--a-grid", a_grid, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: two output files of this run are named "
                       f"{str(out / name)!r}\n")
        assert os.listdir(out) == []

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
    def test_full_gyre_pipeline(self, gyre_cli_run):
        out, code, _ = gyre_cli_run
        assert code == 0
        for name in ("gyre.json", "gyre_boxes.json", "labels.csv",
                     "spectrum.csv", "boundary.csv", "report.json"):
            assert (out / name).exists()
        doc = json.loads((out / "report.json").read_text())
        amp = doc["results"]["boundary_amplitude"]
        assert 0.15 <= amp <= 0.35
        results = doc["results"]
        assert (out / "boundary.csv").read_bytes() == _csv_writer_bytes(
            ["view", "boundary_x"],
            [[t, repr(b)] for t, b in enumerate(results["boundary_x"], start=1)])
        assert (out / "spectrum.csv").read_bytes() == _csv_writer_bytes(
            ["index", "eigenvalue_C", "eigenvalue_L", "tag"],
            [[i, repr(ev), repr(1.0 - ev), tag] for i, (ev, tag) in
             enumerate(zip(results["eigenvalues"], results["tags"]), start=1)])
        boxes = json.loads((out / "gyre_boxes.json").read_text())
        assert boxes["nx"] == 40 and boxes["ny"] == 20
        assert len(boxes["centers"]) == 800

    def test_failed_clustering_leaves_no_files(self, tmp_path, monkeypatch,
                                              capsys):
        def fail(*args, **kwargs):
            raise ConvergenceFailure("Lanczos iteration converged 0 of 2 "
                                     "eigenpairs", converged=0, requested=2)

        monkeypatch.setattr(cli, "spectral_cluster", fail)
        out = tmp_path / "gyre"
        assert run(["gyre", "--views", "2", "--out", str(out)]) == 4
        assert "converged 0 of 2" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("views", [0, 1])
    def test_too_few_views_is_config_error(self, views, tmp_path):
        out = tmp_path / "gyre"
        code = run(["gyre", "--views", str(views), "--out", str(out)])
        assert code == 2
        assert not out.exists()


class TestCountOptions:
    """--k, --restarts, --walkers and --j below 1, and --seed and --gen-seed
    below 0, are rejected before any input is read or directory made."""

    COMMANDS = {
        "cluster": ["cluster", "--generator", "planted"],
        "baseline": ["baseline", "--generator", "planted", "--a-grid", "0.5"],
        "gyre": ["gyre"],
    }

    @staticmethod
    def assert_rejected_up_front(monkeypatch, capsys, argv, out, message):
        def never(*args, **kwargs):
            raise AssertionError("work started before the options were checked")

        for owner, name in ((cli.gyre_mod, "gyre_graph"), (cli, "_load_input"),
                            (cli, "spectral_cluster"), (cli.io, "atomic_file")):
            monkeypatch.setattr(owner, name, never)
        start = time.perf_counter()
        assert run(argv + ["--out", str(out)]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("flag, value", [("--k", "0"), ("--restarts", "0"),
                                             ("--k", "-1"), ("--restarts", "-3"),
                                             ("--seed", "-1")])
    def test_rejected_up_front(self, tmp_path, monkeypatch, capsys, command,
                               flag, value):
        counts = {"--k": "2", "--restarts": "1", flag: value}
        argv = self.COMMANDS[command] + [arg for pair in counts.items() for arg in pair]
        least = 0 if flag == "--seed" else 1
        self.assert_rejected_up_front(monkeypatch, capsys, argv, tmp_path / "out",
                                      f"{flag} must be at least {least}, got {value}")

    def test_walk_seed_rejected_up_front(self, tmp_path, monkeypatch, capsys):
        argv = ["walk", "--generator", "linegraph", "--vertices", "4,5",
                "--seed", "-1"]
        self.assert_rejected_up_front(monkeypatch, capsys, argv, tmp_path / "out",
                                      "--seed must be at least 0, got -1")

    @pytest.mark.parametrize("argv, message", [
        (["generate", "benchmark1", "--seed", "-1"], "--seed must be at least 0, got -1"),
        (["generate", "linegraph", "--seed", "-1"], "--seed must be at least 0, got -1"),
        (["cluster", "--generator", "benchmark1", "--gen-seed", "-1", "--k", "3"],
         "--gen-seed must be at least 0, got -1"),
        (["baseline", "--generator", "planted", "--gen-seed", "-2", "--k", "2",
          "--a-grid", "0.5"], "--gen-seed must be at least 0, got -2"),
        (["spectrum", "--generator", "planted", "--gen-seed", "-1"],
         "--gen-seed must be at least 0, got -1"),
        (["gyre", "--gen-seed", "-1", "--views", "2"],
         "--gen-seed must be at least 0, got -1"),
        (["walk", "--generator", "linegraph", "--vertices", "4,5", "--gen-seed", "-1"],
         "--gen-seed must be at least 0, got -1"),
        (["walk", "--generator", "linegraph", "--vertices", "4,5", "--walkers", "0"],
         "--walkers must be at least 1, got 0"),
        (["spectrum", "--generator", "planted", "--j", "0"], "--j must be at least 1, got 0"),
        (["spectrum", "--generator", "planted", "--j", "-4"],
         "--j must be at least 1, got -4"),
        # a repeated start vertex would weight the walk toward it
        (["walk", "--generator", "benchmark1", "--vertices", "0,0,0,299"],
         "--vertices lists 0 more than once"),
        (["walk", "--generator", "linegraph", "--vertices", "5,4,5"],
         "--vertices lists 5 more than once"),
        (["walk", "--generator", "linegraph", "--vertices", ","],
         "--vertices must list at least one vertex"),
    ], ids=["generate-seed", "generate-linegraph-seed", "cluster-gen-seed",
            "baseline-gen-seed", "spectrum-gen-seed", "gyre-gen-seed", "walk-gen-seed",
            "walkers", "j-0", "j-negative", "vertices-repeated", "vertices-unsorted",
            "vertices-empty"])
    def test_every_command_rejects_up_front(self, tmp_path, monkeypatch, capsys, argv,
                                            message):
        self.assert_rejected_up_front(monkeypatch, capsys, argv, tmp_path / "out",
                                      message)


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


class TestOutOfMemory:
    @pytest.mark.parametrize("error, message", [
        (MemoryError, "MemoryError"),
        (MemoryError("Unable to allocate 7.45 GiB for an array with shape "
                     "(1000000001,) and data type int64"),
         "Unable to allocate 7.45 GiB for an array with shape (1000000001,) "
         "and data type int64"),
    ], ids=["no-text", "numpy-text"])
    def test_exit_6_with_one_error_line(self, tmp_path, monkeypatch, capsys, error,
                                        message):
        def load_graph(path):
            raise error

        monkeypatch.setattr(cli.io, "load_graph", load_graph)
        out = tmp_path / "out"
        assert run(["cluster", "--input", "g.json", "--k", "2", "--out", str(out)]) == 6
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()


class TestCorruptedInput:
    @settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @given(seed=st.integers(0, 2**32 - 1), with_labels=st.booleans(),
           kind=st.sampled_from(CORRUPTIONS), data=st.data())
    def test_clusters_or_exits_with_one_error_line(self, seed, with_labels,
                                                   kind, data):
        graph = random_teg(seed, n_max=12, M_max=4)
        labels = None
        if with_labels:
            labels = np.random.default_rng(seed).integers(0, 3, (graph.M, graph.n))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "graph.json")
            save_graph(path, graph, labels)
            with open(path) as handle:
                text = corrupt(handle.read(), kind, data.draw)
            with open(path, "w") as handle:
                handle.write(text)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = main(["cluster", "--input", path, "--k", "2",
                             "--out", os.path.join(tmp, "out")])
        assert code in (0, 2, 3, 4, 5)
        if code:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), lines
