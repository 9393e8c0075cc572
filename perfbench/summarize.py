"""Fold benchmark records into one point of the bench trajectory.

Run from the repository root after a set of perfbench/run.py invocations:

    python3 perfbench/summarize.py --label "<commit and machine>" --out point.json

Reads every record in .perfbench/results/ and writes, per workload, its
parameters and scene seed, the seeds run, the median and quartiles over
invocations of each end-to-end metric, the median per-layer metrics and
layer shares of the traced invocations, and the output digests of every run
seed seen. perfbench/reference.json is such a point, made on the seed
commit; run.py --check-reference compares against its digests.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from workloads import WORKLOADS  # noqa: E402


def spread(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (values[0],) * 3)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med if med else None}


def summarize(records: list[dict], label: str) -> dict:
    point = {"label": label, "workloads": {}, "digests": {}}
    for name, spec in WORKLOADS.items():
        mine = [r for r in records if r["workload"] == name and "result" in r]
        if not mine:
            continue
        entry = {"why": spec["why"], "scenario": spec["scenario"], "run": spec["run"],
                 "scene_seed": mine[0]["prepare"]["scene_seed"],
                 "seeds": sorted({r["seed"] for r in mine}),
                 "numpy": next(run["numpy"] for r in mine for run in r["runs"]
                               if "numpy" in run),
                 "env": mine[0]["env_before"]}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            results = [r["result"] for r in mine if r["trace"] == trace]
            if results:
                entry[key] = {m: spread([res["metrics"][m]["value"] for res in results])
                              for m in results[0]["metrics"]}
                entry[f"{key}_failed"] = sum(res["failed"] for res in results)
                entry[f"{key}_attempted"] = sum(res["attempted"] for res in results)
        if "per_layer" in entry:
            entry["layer_shares"] = {m.split(".", 1)[1]: v["median"]
                                     for m, v in entry["per_layer"].items()
                                     if m.startswith("share.")}
        point["workloads"][name] = entry
        point["digests"][name] = {str(run["run_seed"]): run["digests"]
                                  for r in mine for run in r["runs"] if run["ok"]}
    return point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--results", default=os.path.join(".perfbench", "results"))
    args = parser.parse_args(argv)
    records = []
    for path in sorted(glob.glob(os.path.join(args.results, "*.json"))):
        with open(path) as fh:
            records.append(json.load(fh))
    with open(args.out, "w") as fh:
        json.dump(summarize(records, args.label), fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
