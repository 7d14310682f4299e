"""Record a results file: untraced runs over several seeds, plus two traced
runs per workload with one seed to check that counts and result files
repeat exactly; the script exits with status 1 if they do not.

    python3 perfbench/record.py --seeds 1-10 --out perfbench/results/BENCH_baseline.json

For each end-to-end metric the file keeps every run's value, the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread
(quartile distance over the median) that ``BENCHMARK.json``'s bounds are
judged against.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

from run import WORKLOAD_NAMES

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
TRACED_SEED = 1  # the determinism check's seed


def _seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def _run(workload, seed, seconds, trace, trace_out=None):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit("%s seed %d exited %d:\n%s" % (workload, seed, proc.returncode, proc.stderr))
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    # every metric the run printed, by name, from its table
    table = {}
    for line in lines[1:-1]:
        parts = line.split()
        if len(parts) == 3 and line.startswith("  "):
            table[parts[0]] = {"value": float(parts[1]), "unit": parts[2]}
    result["printed"] = table
    return result


def _summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values) if statistics.median(values) else None}


def disagreements(first, second):
    """What differs between two traced runs' trace files: each exact
    count, then each result file's sha256."""
    out = []
    for key, what in (("exact_counts", "%s is %r, then %r"),
                      ("result_sha256", "result file %s is %s, then %s")):
        a, b = first[key], second[key]
        for name in sorted(set(a) | set(b)):
            if a.get(name) != b.get(name):
                out.append(what % (name, a.get(name), b.get(name)))
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    seeds = _seeds(args.seeds)
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    record = {
        "commit": head.stdout.strip() if head.returncode == 0 else None,
        "machine": {"cpus": os.cpu_count(), "platform": platform.platform(),
                    "python": platform.python_version()},
        "run_seconds": seconds,
        "seeds": seeds,
        "workloads": {},
    }
    mismatches = []
    for workload in WORKLOAD_NAMES:
        runs = []
        for seed in seeds:
            r = _run(workload, seed, seconds, 0)
            runs.append({"seed": seed, **r})
            print("%s seed %d: correct %s, %s" % (workload, seed, r["correct"], {
                k: round(v["value"], 4) for k, v in r["metrics"].items()}), flush=True)
        entry = {
            "runs": runs,
            "summary": {m["name"]: _summary([r["metrics"][m["name"]]["value"] for r in runs])
                        for m in spec["end_to_end"]},
            "printed_median": {k: statistics.median(r["printed"][k]["value"] for r in runs)
                               for k in runs[0]["printed"]},
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
        }
        traces = []
        for i in range(2):
            path = os.path.join(ROOT, ".perfbench-traces", "record-%s-%d.json" % (workload, i))
            r = _run(workload, TRACED_SEED, seconds, 1, trace_out=path)
            with open(path) as fh:
                traces.append((r, json.load(fh)))
        (r0, t0), (r1, t1) = traces
        same_counts = t0["exact_counts"] == t1["exact_counts"]
        same_files = t0["result_sha256"] == t1["result_sha256"]
        mismatches += ["%s: %s" % (workload, d) for d in disagreements(t0, t1)]
        entry["traced"] = {
            "seed": TRACED_SEED,
            "correct": r0["correct"] and r1["correct"],
            "metrics": t0["metrics"],
            "exact_counts": [t0["exact_counts"], t1["exact_counts"]],
            "counts_repeat": same_counts,
            "result_files_repeat": same_files,
            "result_files": len(t0["result_sha256"]),
        }
        print("%s traced: counts repeat %s, result files repeat %s, overhead %.3f"
              % (workload, same_counts, same_files, t0["metrics"]["trace.overhead_frac"]),
              flush=True)
        record["workloads"][workload] = entry
        for name, s in entry["summary"].items():
            print("  %-14s median %.6g  spread %.4f" % (name, s["median"], s["spread"]), flush=True)

    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    if mismatches:
        print("traced runs with the same seed disagree:\n  " + "\n  ".join(mismatches),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
