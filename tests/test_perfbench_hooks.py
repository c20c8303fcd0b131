"""The benchmark's tracer still finds the functions it wraps by name.

``perfbench/tracer.py`` replaces `stgl` functions at their callers' lookup
names, so a rename in `stgl` would otherwise break only the benchmark. One
tiny traced job per command family runs with the test suite instead.
"""

import importlib.util
from pathlib import Path

import stgl
import stgl.cli

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
PATCHED = (stgl.cli, stgl.io, stgl.clustering, stgl.laplacian, stgl.supra,
           stgl.gyre, stgl.walks, stgl.laplacian.SpatioTemporalSystem)


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_hooks_record_spans_and_uninstall(tmp_path):
    before = [dict(vars(owner)) for owner in PATCHED]
    tracer = load_tracer().Tracer()
    tracer.install(stgl)
    try:
        codes = [
            tracer.job("cluster", stgl.cli.main,
                       ["cluster", "--generator", "planted", "--k", "2",
                        "--out", str(tmp_path / "cluster")]),
            tracer.job("baseline", stgl.cli.main,
                       ["baseline", "--generator", "planted", "--k", "2",
                        "--a-grid", "0.5", "--out", str(tmp_path / "baseline")]),
        ]
    finally:
        tracer.uninstall()
    assert codes == [0, 0]
    names = {span[0] for span in tracer.spans}
    assert {"laplacian.symmetrize", "laplacian.eigensolve",
            "supra.spectrum"} <= names
    # the solver counters wrap `laplacian.eigh` and `laplacian.eigsh` by name
    for job in ("cluster", "baseline"):
        counts = tracer.counts[job]
        assert counts["laplacian.dense_solves"] + counts["laplacian.lanczos_solves"] >= 1
    for owner, saved in zip(PATCHED, before):
        after = vars(owner)
        assert all(after[key] is value for key, value in saved.items())


def test_tracer_attributes_the_coupling_solve(tmp_path):
    # benchmark1 (N = 3000) takes Lanczos on the odd-view Gram matrix of
    # the view coupling, n floor(M / 2) = 1500, inside the eigensolve span
    tracer = load_tracer().Tracer()
    tracer.install(stgl)
    try:
        code = tracer.job("cluster", stgl.cli.main,
                          ["cluster", "--generator", "benchmark1", "--k", "3",
                           "--out", str(tmp_path)])
    finally:
        tracer.uninstall()
    assert code == 0
    counts = tracer.counts["cluster"]
    assert counts["laplacian.lanczos_solves"] == 1
    assert counts["laplacian.system_size"] == 1500
    assert "laplacian.eigensolve" in {span[0] for span in tracer.spans}


def test_tracer_attributes_the_file_load(tmp_path):
    # cluster-file's largest layer is reading the graph file: a split or
    # rename of `load_graph` must not drop its `io.load` span
    path = tmp_path / "planted.json"
    assert stgl.cli.main(["generate", "planted", "--file", str(path)]) == 0
    tracer = load_tracer().Tracer()
    tracer.install(stgl)
    try:
        code = tracer.job("cluster", stgl.cli.main,
                          ["cluster", "--input", str(path), "--k", "2",
                           "--out", str(tmp_path / "out")])
    finally:
        tracer.uninstall()
    assert code == 0
    assert "io.load" in {span[0] for span in tracer.spans}
    assert tracer.counts["cluster"]["io.read_bytes"] == path.stat().st_size > 0
