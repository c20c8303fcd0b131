"""Write perfbench/label_hashes.json: the label hash of every job input.

    python3 perfbench/record_hashes.py

Runs each labelled job once per generator seed 0-9, and each warm-up
job once, with the `stgl` in ``src/`` and records the hash of its
partitions. ``run.py`` then fails any job whose labels differ. Run it only
at a commit whose labels are the reference; the ROADMAP fixes the labels,
so a later change that alters them is a regression, not a new reference.
Walk jobs are left out: their outputs follow the random stream, which the
ROADMAP allows to change, and their check compares with the exact value.
"""

from __future__ import annotations

import json
import shutil
import sys

import run

SEEDS = tuple(range(10))


def main():
    stgl = run.import_stgl()
    import workloads

    table = {}
    for name, (prepare, _) in workloads.WORKLOADS.items():
        work = run.OUT_DIR / f"hashes-{name}"
        runner = run.Runner(stgl, work, reference={})
        try:
            runs = [(seed, False) for seed in SEEDS] + [(workloads.WARMUP_SEED, True)]
            for seed, warmup in runs:
                directory = work / f"seed{seed}"
                directory.mkdir(parents=True)
                for job in prepare(stgl, seed, directory, warmup=warmup):
                    if job.family == "walk":
                        continue
                    record = runner.run(job, f"seed{seed}")
                    if record["errors"]:
                        print(f"{name} {job.key}: not recorded: {record['errors']}",
                              file=sys.stderr)
                        continue
                    table.setdefault(name, {})[job.key] = record["quality"]["hash"]
                    print(f"{name} {job.key} {record['wall_s']:.2f}s", flush=True)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    path = run.BENCH_DIR / "label_hashes.json"
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
