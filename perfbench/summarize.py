"""Median, quartiles and spread of each metric over a set of runs.

    python3 perfbench/summarize.py .perfbench_out/*.json [--write FILE]

Reads the records ``run.py`` writes, groups them by workload and trace
mode, and prints for every metric the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, their
distance as a share of the median. ``--write`` also saves the summary,
with the environment and the quality medians, as a baseline file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys


def describe(values):
    median = statistics.median(values)
    if len(values) < 2:
        return {"n": len(values), "median": median}
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else 0.0
    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "spread": spread}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("records", nargs="+")
    parser.add_argument("--write", help="save the summary as JSON here")
    args = parser.parse_args(argv)

    groups = {}
    for path in args.records:
        with open(path) as handle:
            record = json.load(handle)
        groups.setdefault((record["workload"], record["trace"]), []).append(record)

    summary = {}
    for (workload, trace), records in sorted(groups.items()):
        results = [r["result"] for r in records]
        metrics = {name: describe([res["metrics"][name]["value"] for res in results])
                   | {"unit": results[0]["metrics"][name]["unit"]}
                   for name in results[0]["metrics"]}
        quality = {family: {key: statistics.median(r["quality"][family][key]
                                                   for r in records)
                            for key in values}
                   for family, values in records[0]["quality"].items()}
        summary.setdefault(workload, {})[f"trace{trace}"] = {
            "runs": len(records),
            "seeds": sorted(r["seed"] for r in records),
            "correct": all(res["correct"] for res in results),
            "attempted": sum(res["attempted"] for res in results),
            "failed": sum(res["failed"] for res in results),
            "metrics": metrics, "quality": quality,
            "environment": records[0]["environment"],
        }
        print(f"{workload} trace={trace}: {len(records)} runs, "
              f"correct={summary[workload][f'trace{trace}']['correct']}")
        for name, stats in metrics.items():
            line = f"  {name:32s} median {stats['median']:.6g} {stats['unit']}"
            if "spread" in stats:
                line += (f"  q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}"
                         f"  spread {stats['spread']:.3f}")
            print(line)

    if args.write:
        with open(args.write, "w") as handle:
            json.dump(summary, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
