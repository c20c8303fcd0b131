"""Qualitative behaviors of the full pipeline on the benchmark generators."""

import ast
import importlib.metadata
import inspect
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import stgl
from stgl import (OperatorSequence, SpatioTemporalSystem, SpectralEmbedding,
                  StglError, SupraSystem, TimeEvolvingGraph, adjusted_rand_index,
                  build_supra, escape_rate, gen_benchmark1, gen_planted_partition,
                  kmeans, score_against, simulate_walks, spectral_cluster,
                  static_blocks, supra_cluster)
from stgl.supra import classify_folded


@pytest.fixture(scope="module")
def bench1():
    graph, truth = gen_benchmark1(seed=0)
    result = spectral_cluster(graph, 3, seed=1, truth=truth)
    return graph, truth, result


class TestBenchmark1Eigenvectors:
    def test_top_eigenvector_constant(self, bench1):
        _, _, result = bench1
        assert result.embedding.tags[0] == "constant"
        top = result.embedding.folded[0]
        assert top.std() <= 1e-8 * np.abs(top).max()

    def test_spectrum_mixes_spatial_and_temporal(self, bench1):
        graph, _, result = bench1
        tags = result.embedding.tags[:10]
        assert "temporal" in tags
        assert "spatial" in tags

    def test_exact_tags_match_threshold_oracle(self, bench1):
        # the closed-form tags agree with the within-view spread heuristic
        _, _, result = bench1
        emb = result.embedding
        assert emb.tags == tuple(classify_folded(f) for f in emb.folded)

    def test_selection_skips_temporal(self, bench1):
        _, _, result = bench1
        sel = result.selection
        tags = result.embedding.tags
        assert all(tags[i] != "temporal" for i in sel)
        assert tags[sel[0]] == "constant"

    def test_shrinking_cluster_level_set(self, bench1):
        # some selected eigenvector separates cluster 1 from cluster 2, and
        # its positive level set over the first 100 vertices shrinks from
        # ~100 at view 1 to ~65 at view 10
        _, truth, result = bench1
        emb = result.embedding
        best, best_sep = None, 0.0
        for j in result.selection:
            f10 = emb.folded[j][9]
            sep = abs(f10[truth[9] == 0].mean() - f10[truth[9] == 1].mean())
            sep /= max(f10.std(), 1e-15)
            if sep > best_sep:
                best, best_sep = j, sep
        folded = emb.folded[best]
        side = np.sign(folded[0][:65].mean())

        def level_count(t):
            return int((np.sign(folded[t][:100]) == side).sum())

        assert abs(level_count(0) - 100) <= 5
        assert abs(level_count(9) - 65) <= 5
        counts = [level_count(t) for t in range(10)]
        assert all(b <= a + 2 for a, b in zip(counts, counts[1:]))


class TestBenchmark1Supra:
    def test_tuned_coupling_reaches_reported_quality(self, bench1):
        # the comparison method, tuned over a small grid, reaches endpoint
        # ARIs comparable to the reported 0.961 / 0.971
        graph, truth, _ = bench1
        best = -1.0
        for a in (0.03, 0.1, 0.3):
            res = supra_cluster(build_supra(graph, a), 3, seed=1)
            ari = score_against(res.labels, truth)
            best = max(best, (ari[0] + ari[-1]) / 2.0)
        assert best >= 0.9


class TestBenchmark1Eigenvalues:
    def test_no_clean_eigengap(self, bench1):
        # spatial and temporal eigenvalues interleave; the k-th gap of the
        # surfaced spectrum does not dominate the ones around it
        _, _, result = bench1
        ev = result.embedding.eigenvalues[:8]
        gaps = -np.diff(ev)
        third = gaps[2]
        assert third < 3 * max(gaps[1], gaps[3])


def test_public_surface_is_pinned():
    # adding or removing an export must show up as a change to this list
    assert sorted(stgl.__all__) == [
        "ClusteringResult", "ConvergenceFailure", "DegenerateInput",
        "DensityVanished", "DirectedInput", "GraphFormatError", "GyreParams",
        "InsufficientSpatialEigenvectors",
        "OperatorSequence", "PipelineResult", "SpatioTemporalSystem",
        "SpectralEmbedding", "StepTooLarge", "StglError", "SupraSystem",
        "TimeEvolvingGraph", "UlamGrid", "ZeroOutDegree",
        "adjusted_rand_index", "assemble_system", "boundary_columns",
        "build_supra", "eigendecompose", "escape_rate", "gen_benchmark1",
        "gen_benchmark2", "gen_line_graph", "gen_planted_partition",
        "gyre_graph", "integrate_rk4", "kmeans", "load_graph", "occupancy",
        "propagate_densities", "row_normalize", "save_graph", "score_against",
        "select_spatial", "simulate_walks", "spectral_cluster",
        "static_blocks", "supra_cluster", "symmetrize", "ulam_counts",
        "velocity",
    ]


def test_constructors_take_only_what_they_cannot_compute():
    # n, M and the densities follow from the data; taking them as inputs
    # again would need checks that the inputs agree
    params = {cls: list(inspect.signature(cls).parameters)
              for cls in (TimeEvolvingGraph, OperatorSequence, SpatioTemporalSystem,
                          SpectralEmbedding, SupraSystem)}
    assert params == {TimeEvolvingGraph: ["snapshots", "directed"],
                      OperatorSequence: ["transitions"],
                      SpatioTemporalSystem: ["cross", "B_diag"],
                      SpectralEmbedding: ["M", "eigenvalues", "vectors", "tags"],
                      SupraSystem: ["M", "H", "scale"]}
    assert not hasattr(TimeEvolvingGraph, "from_dense")


# one bad value per kind; "view-count" gives an entry point one view too few
BAD_VALUES = {"nan": np.nan, "inf": np.inf, "negative": -1.0, "zero": 0,
              "float-for-int": 2.0, "bool": True, "complex": 1 + 1j, "view-count": None}
# the (entry point, kind) pairs whose value is valid input there, such as a
# negative or a complex label; every other pair must be rejected
VALID = {("graph", "zero"), ("graph", "float-for-int"), ("graph", "bool"),
         ("labels", "negative"), ("labels", "zero"), ("labels", "float-for-int"),
         ("labels", "bool"), ("labels", "complex"), ("generator", "float-for-int"),
         ("generator", "bool"), ("walk", "zero")}


def _with(array, index, value):
    array = array.astype(np.result_type(array, value))
    array[index] = value
    return array


def _bad_call(entry, kind, n, pick, rng):
    """A call of one entry point on valid random input of n vertices with
    one input replaced by the bad value of ``kind``; ``pick`` chooses
    which input or entry."""
    value = BAD_VALUES[kind]
    # M, k, the block counts and the walk seed take "negative" as an int, so
    # that their bound meets it and not their integer check
    number = -1 if kind == "negative" else value
    if entry == "embedding":
        vectors, values = rng.standard_normal((2 * n, 2)), np.ones(2)
        if kind == "view-count":  # M = 2 with a row or an eigenvalue short
            number = 2
            if pick % 2:
                vectors = vectors[1:]
            else:
                values = values[1:]
        return lambda: SpectralEmbedding(number, values, vectors, ("spatial",) * 2)
    if entry == "supra":
        H, scale = np.eye(2 * n), np.ones(2 * n)
        if kind == "view-count":  # a row of H, a column of H or an entry of scale short
            short = [(H[1:, 1:], scale[1:]), (H[:, 1:], scale), (H, scale[1:])][pick % 3]
            return lambda: SupraSystem(2, *short)
        return lambda: SupraSystem(number, H, scale)
    if entry == "k":
        W = np.triu(rng.uniform(0.5, 1.5, (n, n)), 1)
        graph = TimeEvolvingGraph([W + W.T] * 2)
        if kind == "view-count":  # the truth a view short
            return lambda: spectral_cluster(graph, 2, truth=np.zeros((1, n), int))
        if pick % 2:
            return lambda: supra_cluster(build_supra(graph, 1.0), number)
        return lambda: spectral_cluster(graph, number)
    if entry == "graph":
        W = np.triu(rng.uniform(0.5, 1.5, (n, n)), 1)
        W = W + W.T
        if kind == "view-count":
            return lambda: TimeEvolvingGraph([W])
        if kind == "bool":
            W = W > 0
        i, j = pick % n, (pick + 1) % n
        return lambda: TimeEvolvingGraph([_with(_with(W, (i, j), value), (j, i), value), W])
    if entry == "operators":
        S = np.full((n, n), 1.0 / n)
        if kind == "view-count":
            return lambda: OperatorSequence(())
        return lambda: OperatorSequence((S, _with(S, (pick % n, 0), value)))
    if entry == "kmeans":
        points, args = rng.standard_normal((2 * n, 2)), {"k": 2, "restarts": 2, "views": 2}
        if kind == "view-count":
            args["views"] = 2 * n + 1
        elif kind in ("nan", "inf", "complex"):
            points = _with(points, (pick % (2 * n), pick % 2), value)
        else:
            args[("k", "restarts", "views")[pick % 3]] = value
        return lambda: kmeans(points, **args)
    if entry == "blocks":
        if kind == "view-count":
            return lambda: static_blocks(n=2 * n, M=1)
        args = {"n": 2 * n, "blocks": 2, "M": 2}
        args[("n", "blocks", "M")[pick % 3]] = number
        return lambda: static_blocks(**args)
    if entry == "walk":
        if kind == "view-count":  # the per-view sets a view short
            return lambda: escape_rate(np.zeros((2, 2), int), [[0]])
        ops = OperatorSequence([np.full((n, n), 1.0 / n)] * 2)
        return lambda: simulate_walks(ops, [pick % n], number)
    if entry == "labels":
        a, b = rng.integers(0, 3, n), rng.integers(0, 3, n)
        if kind == "view-count":
            return lambda: adjusted_rand_index(a, b[1:])
        return lambda: adjusted_rand_index(_with(a, pick % n, value), b)
    membership = rng.integers(0, 2, (3, n))
    if kind == "view-count":
        return lambda: gen_planted_partition(membership[:1], 0.8, 0.2)
    if kind in ("float-for-int", "bool"):
        membership = membership.astype(float if kind == "float-for-int" else bool)
        return lambda: gen_planted_partition(membership, 0.8, 0.2)
    weight_range = [0.5, 1.5]
    weight_range[pick % 2] = value
    return lambda: gen_planted_partition(membership, 0.8, 0.2,
                                         weight_range=tuple(weight_range))


@pytest.mark.parametrize("kind", sorted(BAD_VALUES))
@settings(derandomize=True, max_examples=30, deadline=None)
@given(n=st.integers(2, 6), pick=st.integers(0, 5), seed=st.integers(0, 2 ** 16))
def test_bad_input_raises_only_value_or_package_errors(kind, n, pick, seed):
    for entry in ("graph", "operators", "embedding", "supra", "k", "kmeans", "labels",
                  "generator", "blocks", "walk"):
        try:
            _bad_call(entry, kind, n, pick, np.random.default_rng(seed))()
        except (ValueError, StglError):
            continue
        assert (entry, kind) in VALID, f"{entry} accepted {kind}"


def test_no_unused_imports():
    # every name a module of the package imports is read in it, unless the
    # module re-exports it through __all__
    unused = []
    for path in sorted(Path(stgl.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        exported = set()
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__"
                            for t in node.targets)):
                exported.update(ast.literal_eval(node.value))
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in read | exported]
    assert unused == []


def test_commands_write_only_through_the_output_stage():
    # no cmd_* function of cli.py calls an io writer or _write_boxes itself:
    # each names its files to _write_outputs, which checks the whole set first
    package = Path(stgl.__file__).parent
    writers = {name for name in vars(stgl.io)
               if name.startswith(("save_", "write_", "atomic_"))}
    tree = ast.parse((package / "cli.py").read_text())
    direct = []
    for command in tree.body:
        if not (isinstance(command, ast.FunctionDef)
                and command.name.startswith("cmd_")):
            continue
        for node in ast.walk(command):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (isinstance(func, ast.Name) and func.id == "_write_boxes") or (
                    isinstance(func, ast.Attribute) and func.attr in writers
                    and isinstance(func.value, ast.Name) and func.value.id == "io"):
                direct.append(f"{command.name}:{node.lineno}")
    assert writers >= {"save_graph", "write_report", "atomic_file"}
    assert direct == []


def test_third_party_imports_are_declared():
    # each top-level module the package imports is stgl, ships with Python,
    # or comes from a distribution that pyproject.toml's dependencies name
    tomllib = pytest.importorskip("tomllib")
    package = Path(stgl.__file__).parent
    project = tomllib.loads((package.parents[1] / "pyproject.toml").read_text())

    def normalized(name):
        return re.sub(r"[-_.]+", "-", name).lower()

    declared = {normalized(re.match(r"[\w.-]+", requirement).group())
                for requirement in project["project"]["dependencies"]}
    providers = importlib.metadata.packages_distributions()
    undeclared = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for top in {module.split(".")[0] for module in modules}:
                if top == "stgl" or top in sys.stdlib_module_names:
                    continue
                if not declared & set(map(normalized, providers.get(top, [top]))):
                    undeclared.append(f"{path.name}:{node.lineno} {top}")
    assert undeclared == []


def test_every_error_class_is_raised():
    # each exception class of errors.py is named by a raise in the package,
    # or is a base of a class that is
    package = Path(stgl.__file__).parent
    tree = ast.parse((package / "errors.py").read_text())
    bases = {node.name: {b.id for b in node.bases if isinstance(b, ast.Name)}
             for node in tree.body if isinstance(node, ast.ClassDef)}
    raised = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    used, frontier = set(), raised
    while frontier:
        used |= frontier
        frontier = {base for name in frontier for base in bases.get(name, ())} - used
    assert sorted(bases.keys() - used) == []
