"""plotburn benchmark: one workload, one seed, end-to-end or per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload pixels --seed 1 --seconds 20 --trace 0

Workloads are defined in perfbench/workloads.py; each has one fixed scene
and the program receives only the generated inputs. For --seconds the
benchmark repeats pipeline.run_pipeline, each call in a fresh interpreter so
that peak RSS covers that call alone, and reports medians. The seed picks
the calls' RunConfig.seed values: the first seed runs twice, every later call
takes a new one, and the accuracies are averaged over the seeds.

Every call's outputs are checked: a complete manifest, every artifact
present, and confusion tables that match the calls in predictions.csv scored
against the generator's truth. The digests of features.csv, cv_scores.csv,
importance.csv and predictions.csv must agree between calls on one seed,
traced or not.

The end-to-end times are in seconds at the reference host's speed: each
call's wall and CPU time, and the set-up time, are multiplied by the host
speed measured just before and after them with a fixed calibration loop that
runs no plotburn code (worker.calibrate). On a shared host the raw wall time
of the same call drifts by about 30% over minutes; the raw medians are
printed too, and are per-layer metrics under host.*.

--trace 0 prints the end-to-end metrics. --trace 1 runs untraced and traced
calls in pairs on one seed and prints the per-layer metrics from the traced
ones, plus the tracing overhead. --check-reference also requires the digests
to equal those recorded in perfbench/reference.json for the seeds it holds.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. Human-readable lines, the environment record and the
spans go above it and into .perfbench/results/. The orchestrating process
imports only the standard library.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS, run_seed  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
REFERENCE = os.path.join(HERE, "reference.json")
OUT_DIR = ".perfbench"
SETUP_SNIPPET = ("import plotburn.cli\n"
                 "from plotburn.pipeline import RunConfig\n"
                 "from plotburn.synth import ScenarioConfig\n"
                 "RunConfig(out_root='.', scenario=ScenarioConfig())\n")
SETUP_REPEATS = 5
MIN_RUNS = 3                 # untraced runs, and traced runs with --trace 1
WORKER_TIMEOUT_S = 150


class BenchError(RuntimeError):
    """The benchmark could not set up or run the program at all."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath("src"), env.get("PYTHONPATH")) if p)
    return env


def _spawn(argv: list[str]) -> tuple[float, str]:
    """Run a child to completion; (wall seconds, stdout). Raises on failure."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=_env(), text=True)
    try:
        out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{argv[1]} timed out after {WORKER_TIMEOUT_S} s") from None
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv[:2])} exited {proc.returncode}: "
                         f"{err.strip()[-2000:]}")
    return wall, out


def _job(job: dict) -> dict:
    _, out = _spawn([sys.executable, WORKER, json.dumps(job)])
    return json.loads(out.strip().splitlines()[-1])


def measure_setup() -> tuple[list[float], float]:
    """Wall times of fresh interpreters importing the CLI and building a
    RunConfig, and the mean host speed measured before and after them."""
    argv = [sys.executable, "-c", SETUP_SNIPPET]
    _spawn(argv)                         # compiles bytecode; not a user's cost
    before = _job({"kind": "calibrate"})["speed"]
    walls = [_spawn(argv)[0] for _ in range(SETUP_REPEATS)]
    after = _job({"kind": "calibrate"})["speed"]
    return walls, (before + after) / 2


def environment() -> dict:
    record = {"nproc": os.cpu_count(),
              "affinity": len(os.sched_getaffinity(0)),
              "python": platform.python_version(),
              "loadavg": list(os.getloadavg())}
    try:
        with open("/sys/fs/cgroup/cpu.max") as fh:
            record["cgroup_cpu_max"] = fh.read().strip()
    except OSError:
        record["cgroup_cpu_max"] = None
    return record


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it, if any above 50."""
    n = len(values)
    pct = int(100 * (n - 10) / n) if n > 10 else 0
    if pct <= 50:
        return None
    return pct, statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def run_benchmark(args) -> dict:
    stamp = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    work = os.path.abspath(os.path.join(OUT_DIR, "work", stamp))
    inputs = os.path.join(work, "inputs")
    kinds = (False, True) if args.trace else (False,)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "env_before": environment(), "runs": []}
    try:
        record["setup_s"], record["setup_speed"] = measure_setup()
        t0 = time.perf_counter()
        record["prepare"] = _job({"kind": "prepare", "workload": args.workload,
                                  "inputs": inputs})
        record["prepare"]["s"] = time.perf_counter() - t0
        runs = record["runs"]
        start = time.perf_counter()
        while (time.perf_counter() - start < args.seconds
               or any(sum(r["trace"] == k for r in runs) < MIN_RUNS for k in kinds)):
            # Untraced and traced runs come in pairs on one run seed. Without
            # tracing the second run repeats the first seed, and every later
            # run takes a new one, so accuracy averages over many forests.
            i = len(runs)
            traced = kinds[i % len(kinds)]
            group = i // 2 if args.trace else max(0, i - 1)
            job = {"kind": "run", "workload": args.workload,
                   "run_seed": run_seed(args.seed, group),
                   "scene_seed": record["prepare"]["scene_seed"],
                   "inputs": inputs, "trace": traced,
                   "out_root": os.path.join(work, f"run{len(runs)}")}
            try:
                runs.append(_job(job))
            except BenchError as exc:
                runs.append({"ok": False, "trace": traced, "error": str(exc),
                             "run_seed": job["run_seed"]})
        record["measured_s"] = time.perf_counter() - start
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["env_after"] = environment()
    return record


def load_spec() -> dict:
    with open("BENCHMARK.json") as fh:
        return json.load(fh)


def by_seed(runs: list[dict]) -> dict[int, list[dict]]:
    groups: dict[int, list[dict]] = {}
    for r in runs:
        groups.setdefault(r["run_seed"], []).append(r)
    return groups


def judge(record: dict, reference: dict | None) -> list[str]:
    """Fail runs whose digests differ from a run on the same seed; list other problems."""
    problems = []
    expected = (reference or {}).get(record["workload"], {})
    for seed, group in by_seed(record["runs"]).items():
        ok = [r for r in group if r["ok"]]
        if len({json.dumps(r["digests"], sort_keys=True) for r in ok}) > 1:
            for r in ok:
                r["ok"] = False
                r.setdefault("problems", []).append(
                    "output digests differ between runs on one seed")
        elif ok and reference is not None and str(seed) in expected:
            if expected[str(seed)] != ok[0]["digests"]:
                problems.append(f"run seed {seed}: output digests differ from "
                                "perfbench/reference.json")
    if reference is not None and not any(str(s) in expected
                                         for s in by_seed(record["runs"])):
        problems.append("no reference digests for any run seed of this invocation")
    return problems


def metrics_of(record: dict, spec: dict) -> dict[str, float]:
    ok = [r for r in record["runs"] if r["ok"]]
    plain = [r for r in ok if not r["trace"]]
    traced = [r for r in ok if r["trace"]]
    if not plain or (record["trace"] and not traced):
        first = next((r.get("error") or r.get("problems") for r in record["runs"]
                      if not r["ok"]), None)
        raise BenchError(f"no successful run to take metrics from; first failure: {first}")
    host = host_figures(record)
    if not record["trace"]:
        values = {name: statistics.median(r[name] * r["speed"] for r in plain)
                  for name in ("run_s", "cpu_s")}
        values["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in plain)
        firsts = [group[0] for group in by_seed(plain).values()]
        for name in ("accuracy_max", "accuracy_balanced"):
            values[name] = statistics.fmean(r[name] for r in firsts)
        values["setup_s"] = host["host.setup_s"] * record["setup_speed"]
        wanted = [m["name"] for m in spec["end_to_end"]]
    else:
        values = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        values["trace.overhead_frac"] = (
            statistics.median(r["run_s"] * r["speed"] for r in traced)
            / statistics.median(r["run_s"] * r["speed"] for r in plain) - 1.0)
        values.update(host)
        wanted = [m["name"] for m in spec["per_layer"]]
    if sorted(values) != sorted(wanted):
        raise BenchError(f"metrics {sorted(set(values) ^ set(wanted))} are not "
                         "both measured and listed in BENCHMARK.json")
    return {name: values[name] for name in wanted}


def host_figures(record: dict) -> dict[str, float]:
    """Raw medians of the untraced calls and set-ups, and the host speed."""
    plain = [r for r in record["runs"] if r["ok"] and not r["trace"]]
    return {"host.run_s": statistics.median(r["run_s"] for r in plain),
            "host.cpu_s": statistics.median(r["cpu_s"] for r in plain),
            "host.setup_s": statistics.median(record["setup_s"]),
            "host.speed": statistics.median(r["speed"] for r in plain)}


def report(record: dict, spec: dict, values: dict, problems: list[str]) -> dict:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    runs = record["runs"]
    failed = [r for r in runs if not r["ok"]]
    n_traced = sum(r["trace"] for r in runs)
    print(f"workload {record['workload']} seed {record['seed']}: {len(runs)} runs "
          f"({len(runs) - n_traced} untraced, {n_traced} traced) in "
          f"{record['measured_s']:.1f} s, {len(failed)} failed, "
          f"failed_frac {len(failed) / len(runs):.3f}")
    for r in failed:
        print(f"  failed run: {r.get('error') or r.get('problems')}")
    for p in problems:
        print(f"  problem: {p}")
    for name, value in values.items():
        print(f"  {name:34s} {value:14.6g} {units[name]}")
    if not record["trace"]:
        for name, value in host_figures(record).items():
            print(f"  {name:34s} {value:14.6g} {units[name]} (raw; listed with --trace 1)")
    plain = [r["run_s"] * r["speed"] for r in runs if r["ok"] and not r["trace"]]
    tail = tail_percentile(plain)
    print(f"  run_s samples: {len(plain)}; " + (
        f"p{tail[0]} {tail[1]:.4f} s" if tail else
        "too few for a percentile above the median with 10 samples beyond it"))
    for seed, group in by_seed(runs).items():
        digests = next((r["digests"] for r in group if r["ok"]), None)
        print(f"  run seed {seed} x{len(group)}: " + json.dumps(digests, sort_keys=True))
    numpy = next((r["numpy"] for r in runs if "numpy" in r), None)
    print("  env before: " + json.dumps({**record["env_before"], "numpy": numpy},
                                        sort_keys=True))
    print("  env after:  " + json.dumps(record["env_after"], sort_keys=True))
    return {"correct": not failed and not problems, "attempted": len(runs),
            "failed": len(failed),
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in values.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check-reference", action="store_true")
    args = parser.parse_args(argv)
    # A terminated benchmark still stops its worker and removes its work dir.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not os.path.isfile(os.path.join("src", "plotburn", "pipeline.py")):
        print("run from the repository root: src/plotburn is missing", file=sys.stderr)
        return 2
    spec = load_spec()
    reference = None
    if args.check_reference:
        with open(REFERENCE) as fh:
            reference = json.load(fh)["digests"]
    try:
        record = run_benchmark(args)
        problems = judge(record, reference)
        values = metrics_of(record, spec)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    result = report(record, spec, values, problems)
    record["result"] = result
    os.makedirs(os.path.join(OUT_DIR, "results"), exist_ok=True)
    path = os.path.join(OUT_DIR, "results", f"{args.workload}-s{args.seed}-t{args.trace}-"
                        f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    print(f"  record: {path}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
