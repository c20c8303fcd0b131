"""Time `stgl` from graph to labels, end to end and layer by layer.

    python3 perfbench/run.py --workload cluster-file --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout: `stgl` is imported from ``src/``
next to this directory and nowhere else. Each job is one in-process call
of ``stgl.cli.main([...])``, the same call a user's ``stgl`` command makes.
The run sets up (imports `stgl`, writes the inputs of and runs one small
warm-up round), then runs rounds of jobs until ``--seconds`` of job time
have passed; ``setup_s`` adds the median time to write one round's inputs. Round r uses generator seed ``gen_seeds[(seed + r) % len]``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs every
round twice, untraced and then traced on fresh inputs, and reports the
per-layer metrics of the traced jobs and the tracing overhead. The last
line of stdout is the JSON result; the full record (environment, every
job, every span) goes to ``.perfbench_out/<workload>-seed<n>-trace<t>.json``.
"""

from __future__ import annotations

import os

# Fixed before numpy loads. One thread keeps the dense eigensolve's time
# steady on a small shared machine; two threads were faster but spread more.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import gc
import importlib
import io
import json
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench_out"
DEFAULT_GEN_SEEDS = "0,1,2,3,4"   # the ROADMAP's seeds; 5-9 are held out


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True,
                        help="picks the generator seed of each round")
    parser.add_argument("--seconds", type=float, required=True,
                        help="job time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--gen-seeds", default=DEFAULT_GEN_SEEDS,
                        help="generator seeds to draw rounds from "
                             f"(default {DEFAULT_GEN_SEEDS}; held out: 5,6,7,8,9)")
    return parser.parse_args(argv)


def import_stgl():
    """Import `stgl` from this checkout's ``src``; fail if it is not there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    stgl = importlib.import_module("stgl")
    for name in ("cli", "io", "benchmarks"):
        importlib.import_module(f"stgl.{name}")
    if src not in Path(stgl.__file__).resolve().parents:
        raise ImportError(f"stgl was imported from {stgl.__file__}, not {src}")
    return stgl


def environment(stgl):
    import numpy
    import scipy

    def blas(config):
        deps = config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps['name']} {deps['version']}"

    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config),
        "scipy_blas": blas(scipy.show_config),
        "blas_threads": BLAS_THREADS,
        "stgl": stgl.__version__,
        "platform": platform.platform(),
    }


class Runner:
    """Runs jobs, checks their outputs and keeps one record per job."""

    def __init__(self, stgl, work, reference):
        self.stgl = stgl
        self.work = work
        self.reference = reference
        self.results = []
        self.hashes = {}    # key -> first hash seen in this process

    def run(self, job, label, tracer=None):
        out = self.work / f"out-{len(self.results)}"
        argv = [*job.argv, "--out", str(out)]
        record = {"id": len(self.results), "key": job.key, "family": job.family,
                  "label": label, "argv": argv, "traced": tracer is not None,
                  "errors": [], "quality": {}}
        stdout, stderr = io.StringIO(), io.StringIO()
        gc.collect()
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                if tracer is None:
                    code = self.stgl.cli.main(argv)
                else:
                    code = tracer.job(record["id"], self.stgl.cli.main, argv)
        except (Exception, SystemExit):
            code = None
            record["errors"].append(traceback.format_exc())
        record["wall_s"] = time.perf_counter() - start
        record["cpu_s"] = time.process_time() - cpu_start
        record["exit_code"] = code
        if code != 0:
            record["errors"].append(f"exit code {code}: {stderr.getvalue()[-2000:]}")
        else:
            self._check(job, out, record)
        shutil.rmtree(out, ignore_errors=True)
        self.results.append(record)
        return record

    def _check(self, job, out, record):
        from workloads import CheckFailed
        try:
            record["quality"] = job.check(out)
        except CheckFailed as err:
            record["errors"].append(f"check failed: {err}")
            return
        digest = record["quality"]["hash"]
        first = self.hashes.setdefault(job.key, digest)
        if digest != first:
            record["errors"].append("outputs differ from an earlier job on the "
                                    "same input in this process")
        expected = self.reference.get(job.key)
        if expected is not None and digest != expected:
            record["errors"].append(f"labels differ from perfbench/"
                                    f"label_hashes.json ({expected[:12]}...)")


def round_job_s(records):
    """Median over rounds of the mean job time in the round."""
    rounds = {}
    for r in records:
        rounds.setdefault(r["label"], []).append(r["wall_s"])
    return statistics.median(sum(v) / len(v) for v in rounds.values()), len(rounds)


def main(argv=None):
    args = parse_args(argv)
    load_start = os.getloadavg()
    start = time.perf_counter()
    try:
        stgl = import_stgl()
    except ImportError as err:
        print(f"error: cannot import stgl from {ROOT / 'src'}: {err}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - start

    import workloads
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    prepare, family_checks = workloads.WORKLOADS[args.workload]
    gen_seeds = [int(s) for s in args.gen_seeds.split(",")]
    reference = json.loads((BENCH_DIR / "label_hashes.json").read_text())
    work = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    runner = Runner(stgl, work, reference.get(args.workload, {}))
    tracer = Tracer() if args.trace else None
    input_s = []    # time to generate and write each round's inputs

    def prepare_round(seed, name, warmup=False):
        directory = work / name
        directory.mkdir(parents=True)
        t0 = time.perf_counter()
        jobs = prepare(stgl, seed, directory, warmup=warmup)
        input_s.append(time.perf_counter() - t0)
        return jobs

    try:
        warmup = prepare_round(workloads.WARMUP_SEED, "warmup", warmup=True)
        warmup_s = input_s.pop() + sum(runner.run(job, "warmup")["wall_s"]
                                       for job in warmup)

        # A failed round ends the run: it is already incorrect, and a job
        # that fails at once would otherwise repeat until the time is up.
        job_time, r, failing = 0.0, 0, False
        while r == 0 or (job_time < args.seconds and not failing):
            seed = gen_seeds[(args.seed + r) % len(gen_seeds)]
            records = [runner.run(job, f"round{r}")
                       for job in prepare_round(seed, f"round{r}")]
            if tracer is not None:
                for job in prepare_round(seed, f"round{r}-traced"):
                    tracer.install(stgl)
                    try:
                        records.append(runner.run(job, f"round{r}-traced", tracer))
                    finally:
                        tracer.uninstall()
            job_time += sum(rec["wall_s"] for rec in records)
            failing = any(rec["errors"] for rec in records)
            r += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    results = runner.results
    timed = [rec for rec in results if rec["label"] != "warmup"]
    failed_ids = {rec["id"] for rec in results if rec["errors"]}
    family_failures = family_checks(timed) if family_checks else {}
    for rec in results:
        if rec["family"] in family_failures:
            rec["errors"].append(f"family check failed: {family_failures[rec['family']]}")
            failed_ids.add(rec["id"])

    untraced = [rec for rec in timed if not rec["traced"]]
    job_s, samples = round_job_s(untraced)
    metrics = {}
    if tracer is None:
        setup_s = import_s + statistics.median(input_s) + warmup_s
        metrics = {
            "job_s": {"value": job_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "unit": "MB"},
        }
    else:
        traced_ids = [rec["id"] for rec in timed if rec["traced"]]
        traced_mean = statistics.fmean(rec["wall_s"] for rec in timed if rec["traced"])
        untraced_mean = statistics.fmean(rec["wall_s"] for rec in untraced)
        for key, (value, unit) in tracer.layer_metrics(traced_ids).items():
            metrics[key] = {"value": value, "unit": unit}
        metrics["trace.job_s"] = {"value": traced_mean, "unit": "s"}
        metrics["trace.overhead_frac"] = {"value": traced_mean / untraced_mean - 1.0,
                                          "unit": "ratio"}

    summary = {"correct": not failed_ids, "attempted": len(results),
               "failed": len(failed_ids), "metrics": metrics}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "gen_seeds": gen_seeds,
        "environment": environment(stgl),
        "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
        "setup": {"import_s": import_s, "input_s": input_s, "warmup_s": warmup_s},
        "job_s_samples": samples,
        "failed_frac": len(failed_ids) / len(results),
        "quality": quality_summary(timed),
        "jobs": results, "result": summary,
        "spans": tracer.spans if tracer is not None else [],
    }
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(summary))
    return 0


def quality_summary(records):
    """Median of each quality number per job family."""
    families = {}
    for rec in records:
        for key, value in rec["quality"].items():
            if key != "hash":
                families.setdefault(rec["family"], {}).setdefault(key, []).append(value)
    return {family: {key: statistics.median(v) for key, v in values.items()}
            for family, values in families.items()}


if __name__ == "__main__":
    sys.exit(main())
