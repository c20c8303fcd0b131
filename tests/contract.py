"""Check that two checkouts of stgl keep the same output contract.

Usage: python tests/contract.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are the ``src`` directories of two checkouts. Every
command of ``RUNS`` runs once per tree, each in a fresh interpreter under
``OPENBLAS_NUM_THREADS=1`` and in a work directory of its own, so the
relative paths the commands print and record are the same for both trees.
The two trees must then agree on

- every exit code, stdout and stderr;
- the set of files written and every file's bytes, except that a report
  JSON is compared only up to its ``timings`` section, of which just the
  keys must agree.

Before the runs, ``write_inputs`` writes the ``LOADER_INPUTS`` graph files:
the benchmark1, benchmark2 and planted files that OLD_SRC generates, edited
as text so that they reach each route of the loader and its format errors.
Both trees read the same bytes, each with ``cluster --input F --k 2``.

Each tree also runs the ``SESSION`` commands twice through ``stgl.cli.main``
in one interpreter (a library session); both calls must give the codes,
streams and files of the tree's fresh runs.

Bytes may depend on the BLAS thread count, so each tree then runs the
``THREADED`` commands, every ``cluster`` command after the ``generate``
command whose file one of them reads, once more in fresh interpreters under
``OPENBLAS_NUM_THREADS=2``; the two trees must agree at that count too.

Every difference is printed on its own line. The exit code is 0 when there
is none, 1 otherwise and 2 on a usage error. Pytest does not collect this
file.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

GENERATORS = {"benchmark1": 3, "benchmark2": 4, "linegraph": 3, "planted": 2}
SUBCOMMANDS = ("generate", "cluster", "baseline", "spectrum", "gyre", "walk")
# graph files made by write_inputs, in ../../inputs from each tree's fresh runs
LOADER_INPUTS = ("compact-benchmark1", "crlf-benchmark2", "truncated-benchmark2",
                 "nan-weight", "string-in-edges", "conflicting-duplicate",
                 "vertex-out-of-range", "labels-wrong-shape", "second-edges")


def _runs():
    """(name, argv) of every checked command, in the order they run; a
    command that reads a generated file comes after the one writing it."""
    runs = []
    for name in (*GENERATORS, "gyre"):
        runs.append((f"generate-{name}", ["generate", name]))
    for name in ("benchmark1", "benchmark2"):
        for seed in range(5):
            runs.append((f"cluster-{name}-{seed}",
                         ["cluster", "--generator", name, "--gen-seed", str(seed),
                          "--k", str(GENERATORS[name]), "--export-vectors"]))
    for name in ("linegraph", "planted"):
        runs.append((f"cluster-{name}", ["cluster", "--generator", name, "--k",
                                         str(GENERATORS[name]), "--export-vectors"]))
    runs.append(("cluster-benchmark2-file",
                 ["cluster", "--input", "runs/generate-benchmark2/benchmark2.json",
                  "--k", "4", "--export-vectors"]))
    for name in LOADER_INPUTS:
        runs.append((f"cluster-{name}", ["cluster", "--input",
                                         f"../../inputs/{name}.json", "--k", "2"]))
    # without self-loops, and a spectrum solved on the view coupling
    runs.append(("cluster-benchmark2-no-self-loops",
                 ["cluster", "--generator", "benchmark2", "--k", "4",
                  "--no-self-loops", "--export-vectors"]))
    runs.append(("spectrum-linegraph",
                 ["spectrum", "--generator", "linegraph", "--j", "24",
                  "--full-spectrum", "--export-vectors"]))
    runs.append(("spectrum-benchmark1",
                 ["spectrum", "--generator", "benchmark1", "--j", "20",
                  "--export-vectors"]))
    for seed in range(3):
        runs.append((f"gyre-{seed}", ["gyre", "--views", "7", "--gen-seed", str(seed)]))
    # M = 2: a view coupling of one block
    runs.append(("gyre-two-views", ["gyre", "--views", "2"]))
    for name in ("planted", "benchmark1", "benchmark2"):
        runs.append((f"baseline-{name}",
                     ["baseline", "--generator", name, "--k", str(GENERATORS[name]),
                      "--a-grid", "1e-4,0.05,10"]))
    # the unnormalized supra variant, and a = 0, which adds no coupling entries
    runs.append(("baseline-benchmark1-unnormalized",
                 ["baseline", "--generator", "benchmark1", "--k", "3",
                  "--laplacian-variant", "unnormalized", "--a-grid", "1e-4,0.05,10"]))
    runs.append(("baseline-planted-zero-a",
                 ["baseline", "--generator", "planted", "--k", "2",
                  "--a-grid", "0,0.05,10"]))
    runs.append(("walk-linegraph", ["walk", "--generator", "linegraph",
                                    "--vertices", "4,5", "--walkers", "1000"]))
    # walks from the planted cluster 200-299, over rows of many columns
    cluster = ",".join(str(v) for v in range(200, 300))
    for name, generator, extra in (("walk-benchmark1", "benchmark1", []),
                                   ("walk-benchmark2", "benchmark2", []),
                                   ("walk-benchmark1-no-self-loops", "benchmark1",
                                    ["--no-self-loops"])):
        runs.append((name, ["walk", "--generator", generator, "--vertices", cluster,
                            "--walkers", "3000", *extra]))
    runs = [(name, argv + ["--out", f"runs/{name}"]) for name, argv in runs]

    runs.append(("help", ["--help"]))
    runs += [(f"help-{cmd}", [cmd, "--help"]) for cmd in SUBCOMMANDS]
    usage = {
        "no-command": [],
        "unknown-command": ["cluter"],
        "missing-k": ["cluster", "--generator", "planted"],
        "unknown-generator": ["cluster", "--generator", "nope", "--k", "2"],
        "both-inputs": ["cluster", "--generator", "planted", "--input", "x.json",
                        "--k", "2"],
        "k-not-int": ["cluster", "--generator", "planted", "--k", "two"],
        "k-zero": ["cluster", "--generator", "planted", "--k", "0"],
        "restarts-zero": ["baseline", "--generator", "planted", "--k", "2",
                          "--a-grid", "0.5", "--restarts", "0"],
        "k-too-large": ["cluster", "--generator", "linegraph", "--k", "25"],
        "missing-input": ["cluster", "--input", "missing.json", "--k", "2"],
        "empty-a-grid": ["baseline", "--generator", "planted", "--k", "2",
                         "--a-grid", ","],
        "infinite-a": ["baseline", "--generator", "planted", "--k", "2",
                       "--a-grid", "inf"],
        "one-view-gyre": ["gyre", "--views", "1"],
        "no-vertices": ["walk", "--generator", "linegraph", "--vertices", ","],
        "empty-out": ["cluster", "--generator", "planted", "--k", "2", "--out", ""],
        "file-is-directory": ["generate", "planted", "--file", "."],
    }
    # no --out: a failing command writes nothing, so none may appear
    runs += [(f"usage-{name}", argv) for name, argv in usage.items()]
    return runs


RUNS = _runs()
# library-session commands: fresh runs that need no generated file
SESSION = [name for name, argv in RUNS
           if argv and argv[0] in ("cluster", "spectrum", "baseline", "walk")
           and "--input" not in argv]

# the second BLAS thread count, and the commands run again at it
THREADS = "2"
THREADED = [(name, argv) for name, argv in RUNS
            if name.startswith("cluster-") or name == "generate-benchmark2"]

MAIN = "import sys; from stgl.cli import main; sys.exit(main(sys.argv[1:]))"
SESSION_MAIN = """
import contextlib, io, json, os, sys
from stgl.cli import main
records = []
for cwd, argv in json.loads(sys.argv[1]):
    os.makedirs(cwd, exist_ok=True)
    os.chdir(cwd)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    records.append([code, out.getvalue(), err.getvalue()])
sys.stdout.write(json.dumps(records))
"""


def _env(src, threads="1"):
    env = {k: v for k, v in os.environ.items() if k != "STGL_OUT_DIR"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env["OPENBLAS_NUM_THREADS"] = threads
    return env


def _set_field(text, k, value):
    """``text``, in save_graph's layout, with field k of its first edge record
    set to ``value``."""
    start = text.index('"edges": [\n    [\n') + len('"edges": [\n    [\n')
    end = text.index("\n    ]", start)
    fields = text[start:end].split(",\n")
    fields[k] = f"      {value}"
    return text[:start] + ",\n".join(fields) + text[end:]


def write_inputs(src, inputs):
    """Write the ``LOADER_INPUTS`` files into the new directory ``inputs``,
    made from the benchmark1, benchmark2 and planted files of the tree ``src``."""
    texts = {}
    for name in ("benchmark1", "benchmark2", "planted"):
        subprocess.run([sys.executable, "-c", MAIN, "generate", name, "--out",
                        str(inputs)], env=_env(src), capture_output=True,
                       check=True, timeout=900)
        texts[name] = (inputs / f"{name}.json").read_text()
    bench1, bench2, planted = texts.values()
    doc = json.loads(planted)
    t, i, j, w = doc["edges"][0]
    tail = planted.index(',\n  "n": ')
    files = {
        "compact-benchmark1": json.dumps(json.loads(bench1), separators=(",", ":")),
        "crlf-benchmark2": bench2.replace("\n", "\r\n"),
        # cut between two fields of a record, after several read slices
        "truncated-benchmark2": bench2[:bench2.index(",\n      ", len(bench2) // 2) + 4],
        "nan-weight": _set_field(planted, 3, "NaN"),
        "string-in-edges": _set_field(planted, 1, '"0"'),
        "conflicting-duplicate": planted.replace(
            '"edges": [\n', f'"edges": [\n    [\n      {t},\n      {i},\n      {j},'
            f'\n      {2 * w + 1}\n    ],\n', 1),
        "vertex-out-of-range": _set_field(planted, 2, doc["n"]),
        "labels-wrong-shape": planted[:planted.index('"labels": ')] + '"labels": '
        + json.dumps(doc["labels"][:-1]) + planted[tail:],
        "second-edges": planted[:tail] + ',\n  "edges": [[1, 0, 0, 1.0]]'
        + planted[tail:],
    }
    for name in LOADER_INPUTS:
        (inputs / f"{name}.json").write_bytes(files[name].encode())


def run_fresh(runs, cwd, env):
    """{name: (code, stdout, stderr)} of ``runs``, each in a fresh interpreter
    in the new directory ``cwd``."""
    records = {}
    cwd.mkdir(parents=True)
    for name, argv in runs:
        done = subprocess.run([sys.executable, "-c", MAIN, *argv], cwd=cwd,
                              env=env, capture_output=True, text=True, timeout=900)
        records[name] = (done.returncode, done.stdout, done.stderr)
    return records


def run_tree(src, work):
    """Fresh and session records of one tree: {name: (code, stdout, stderr)}
    and, per session call, the same for the ``SESSION`` commands."""
    env = _env(src)
    fresh = run_fresh(RUNS, work / "fresh", env)
    argvs = dict(RUNS)
    calls = [[str(work / f"session{i}"), argvs[name]] for i in (1, 2) for name in SESSION]
    done = subprocess.run([sys.executable, "-c", SESSION_MAIN, json.dumps(calls)],
                          cwd=work, env=env, capture_output=True, text=True, timeout=1800)
    if done.returncode:
        raise RuntimeError(f"library session under {src} failed:\n{done.stderr}")
    records = [tuple(r) for r in json.loads(done.stdout)]
    sessions = [dict(zip(SESSION, records[:len(SESSION)])),
                dict(zip(SESSION, records[len(SESSION):]))]
    return fresh, sessions


def _tree_files(root):
    """Relative path -> None for a directory, else the file's absolute path."""
    found = {}
    for dirpath, dirnames, filenames in os.walk(root):
        rel = Path(dirpath).relative_to(root)
        for d in dirnames:
            found[str(rel / d) + "/"] = None
        for f in filenames:
            found[str(rel / f)] = Path(dirpath) / f
    return found


def _split_report(data):
    """(bytes before the timings section, sorted timing keys) of a report."""
    marker = b'\n  "timings": '
    head, sep, _ = data.rpartition(marker)
    if not sep:
        return data, None
    return head, sorted(json.loads(data)["timings"])


def compare_file(old, new):
    """A description of how two files differ, or None."""
    a, b = old.read_bytes(), new.read_bytes()
    if a == b:
        return None
    if old.name.endswith("report.json"):
        (head_a, keys_a), (head_b, keys_b) = _split_report(a), _split_report(b)
        if head_a == head_b and keys_a == keys_b:
            return None
        if head_a == head_b:
            return f"timing keys differ: {keys_a} vs {keys_b}"
        a, b = head_a, head_b
    at = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    return (f"bytes differ from offset {at} ({len(a)} vs {len(b)} bytes): "
            f"{a[at:at + 40]!r} vs {b[at:at + 40]!r}")


def compare_trees(old_root, new_root, label):
    """Differences between two output trees, one line each, and the count of
    files compared."""
    diffs = []
    old, new = _tree_files(old_root), _tree_files(new_root)
    for rel in sorted(old.keys() - new.keys()):
        diffs.append(f"{label}: {rel} only in the old tree")
    for rel in sorted(new.keys() - old.keys()):
        diffs.append(f"{label}: {rel} only in the new tree")
    shared = sorted(rel for rel in old.keys() & new.keys() if old[rel] is not None)
    for rel in shared:
        why = compare_file(old[rel], new[rel])
        if why:
            diffs.append(f"{label}: {rel}: {why}")
    return diffs, len(shared)


def compare_records(old, new, label):
    diffs = []
    for name in old:
        for what, a, b in zip(("exit code", "stdout", "stderr"), old[name], new[name]):
            if a != b:
                diffs.append(f"{label}: {name}: {what} differs: {a!r} vs {b!r}")
    return diffs


def main(argv):
    if len(argv) != 2 or not all(Path(p, "stgl", "cli.py").is_file() for p in argv):
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        print("each argument must be a src directory holding stgl/", file=sys.stderr)
        return 2
    start = time.perf_counter()
    srcs = [str(Path(p).resolve()) for p in argv]
    with tempfile.TemporaryDirectory(prefix="stgl-contract-") as tmp:
        write_inputs(srcs[0], Path(tmp, "inputs"))
        works = [Path(tmp, "old"), Path(tmp, "new")]
        with ThreadPoolExecutor(max_workers=2) as pool:
            (old_fresh, old_sessions), (new_fresh, new_sessions) = pool.map(
                run_tree, srcs, works)
            old_threaded, new_threaded = pool.map(
                lambda src, work: run_fresh(THREADED, work / "threaded",
                                            _env(src, THREADS)), srcs, works)
        diffs = compare_records(old_fresh, new_fresh, "old vs new")
        tree_diffs, files = compare_trees(works[0] / "fresh", works[1] / "fresh",
                                          "old vs new")
        diffs += tree_diffs
        label = f"old vs new at {THREADS} threads"
        diffs += compare_records(old_threaded, new_threaded, label)
        tree_diffs, threaded_files = compare_trees(works[0] / "threaded",
                                                   works[1] / "threaded", label)
        diffs += tree_diffs
        for side, work, fresh, sessions in (("old", works[0], old_fresh, old_sessions),
                                            ("new", works[1], new_fresh, new_sessions)):
            for i, session in enumerate(sessions, start=1):
                label = f"{side} session call {i} vs fresh"
                diffs += compare_records({n: fresh[n] for n in SESSION}, session, label)
                for name in SESSION:
                    more, _ = compare_trees(work / "fresh" / "runs" / name,
                                            work / f"session{i}" / "runs" / name,
                                            f"{label}: {name}")
                    diffs += more
    for line in diffs:
        print(line)
    print(f"{len(RUNS)} commands per tree, {files} files compared, "
          f"{len(SESSION)} commands called twice per library session, "
          f"{len(THREADED)} commands and {threaded_files} files at {THREADS} "
          f"BLAS threads; "
          f"{len(diffs)} differences in {time.perf_counter() - start:.0f} s")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
