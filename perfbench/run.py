"""Benchmark of the microshell package: one workload, one run.

    python3 perfbench/run.py --workload phase-rate --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the package is imported from ``src/``
and the configs are read from ``configs/``.  An untraced run repeats the
workload's pass (its fixed work, inputs drawn from the seed and the pass
index) while the next pass is expected to end within ``--seconds``, and
always runs at least one pass.  A traced run makes one untraced and one
traced pass over the same inputs.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and the
metrics named in ``BENCHMARK.json``: the end-to-end ones untraced, the
per-layer ones traced.  ``--workload all`` runs the three workloads one
after another and prints every end-to-end metric of each.
"""

import argparse
import ctypes
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")
TRACES = os.path.join(ROOT, ".perfbench-traces")
WORKLOAD_NAMES = ("phase-rate", "shell-chain", "marginal-oracle")
SETUP_REPEATS = 7


class BenchError(Exception):
    """The benchmark cannot run here; exit without a result."""


def _cap_blas_threads():
    """One process; BLAS may use at most one thread per core."""
    cores = os.cpu_count() or 1
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        cur = os.environ.get(var, "")
        if not cur.isdigit() or not 1 <= int(cur) <= cores:
            os.environ[var] = str(cores)


def _fix_allocator():
    """Pin glibc's malloc thresholds.  By default the mmap threshold grows
    with the largest block freed, so a pass runs faster once earlier work
    has freed large arrays; pinned thresholds make a pass's time
    independent of what ran before it in the process."""
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return
    libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    libc.mallopt.restype = ctypes.c_int
    libc.mallopt(-3, 32 * 1024 * 1024)  # M_MMAP_THRESHOLD, glibc's maximum
    libc.mallopt(-1, 256 * 1024 * 1024)  # M_TRIM_THRESHOLD


def _import_program():
    """Import microshell from this checkout's src/ and nowhere else."""
    if not os.path.isdir(os.path.join(SRC, "microshell")):
        raise BenchError("no microshell package under %s" % SRC)
    sys.path.insert(0, SRC)
    import microshell

    where = os.path.dirname(os.path.abspath(microshell.__file__))
    if where != os.path.join(SRC, "microshell"):
        raise BenchError("microshell imported from %s, not from %s" % (where, SRC))
    return microshell


def _declared():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError("cannot read BENCHMARK.json: %s" % exc)
    return spec["end_to_end"], spec["per_layer"]


def _setup_probe(workload, seed):
    """Child-process body: import the package, then load configs, warm
    caches and draw inputs.  The benchmark's own modules are imported
    between the two timed parts."""
    start = time.perf_counter()
    _import_program()
    import microshell.cli  # noqa: F401  (the only module the package imports lazily)

    imported = time.perf_counter() - start
    import workloads

    start = time.perf_counter()
    workloads.WORKLOADS[workload]().setup(ROOT, seed)
    print(repr(imported + time.perf_counter() - start))


def _measure_setup(workload, seed):
    """Median set-up time over fresh processes, so import time counts."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise BenchError("set-up failed:\n" + proc.stderr)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def _peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def _run_passes(wl, seed, seconds, first_inputs, work_dir):
    from harness import Recorder

    passes = []
    start = time.perf_counter()
    inputs = first_inputs
    index = 0
    while True:
        out = os.path.join(work_dir, "pass%d" % index)
        rec = Recorder()
        t0 = time.perf_counter()
        wl.run_pass(rec, inputs, out)
        shutil.rmtree(out, ignore_errors=True)
        passes.append(rec)
        took = time.perf_counter() - t0
        index += 1
        if time.perf_counter() - start + took > seconds:
            return passes
        inputs = wl.inputs(seed, index)


def _untraced(wl, args, inputs, work_dir):
    import layers

    passes = _run_passes(wl, args.seed, args.seconds, inputs, work_dir)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    found = {
        "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
        "passes": (len(passes), "count"),
        "failed_frac": (failed / attempted, "ratio"),
    }
    named = wl.metrics(passes)
    found.update(named)
    found["work_per_s"] = (named[wl.work_metric][0], "1/s")
    found.update(layers.sloc(os.path.join(SRC, "microshell")))
    return found, attempted, failed, None


def _traced(wl, args, inputs, work_dir):
    from harness import Op, Recorder
    import layers
    from spans import Tracer, self_times
    from workloads import _hash_tree

    plain = Recorder()
    wl.run_pass(plain, inputs, os.path.join(work_dir, "untraced"))
    plain_files = _hash_tree(os.path.join(work_dir, "untraced"))

    tracer = Tracer(hooks=layers.HOOKS)
    tracer.install(layers.modules())
    try:
        rec = Recorder(tracer)
        wl.run_pass(rec, inputs, os.path.join(work_dir, "traced"))
    finally:
        tracer.uninstall()
    traced_files = _hash_tree(os.path.join(work_dir, "traced"))

    found = layers.metrics(tracer)
    found.update(layers.sloc(os.path.join(SRC, "microshell")))
    found["trace.wall_s"] = (rec.wall_s, "s")
    found["trace.untraced_wall_s"] = (plain.wall_s, "s")
    found["trace.overhead_frac"] = (rec.wall_s / plain.wall_s - 1.0, "ratio")
    found["trace.spans"] = (len(tracer.spans), "count")

    # result files of a re-run must be byte-identical (run.log excluded),
    # and the spans must account for the traced pass's time
    checks = Op("trace.checks", 0)
    checks.expect(plain_files == traced_files,
                  "result files differ between the untraced and the traced pass")
    accounted = sum(self_times(tracer.spans))
    checks.expect(abs(accounted - rec.wall_s) <= 1e-3 * rec.wall_s,
                  "layer self times sum to %r s, traced wall %r s" % (accounted, rec.wall_s))
    rec.ops.append(checks)

    attempted = plain.attempted + rec.attempted
    failed = plain.failed + rec.failed
    trace = {
        "workload": wl.name,
        "seed": args.seed,
        "metrics": {k: v for k, (v, _) in found.items()},
        "exact_counts": {k: found[k][0] for k in layers.EXACT_COUNTS},
        "result_sha256": traced_files,
        "span_fields": ["name", "layer", "start", "end", "parent"],
        "spans": tracer.spans,
    }
    return found, attempted, failed, trace


def run_one(args):
    end_to_end, per_layer = _declared()
    _import_program()
    setup_s = _measure_setup(args.workload, args.seed)

    import workloads

    wl = workloads.WORKLOADS[args.workload]()
    inputs = wl.setup(ROOT, args.seed)
    work_dir = os.path.join(WORK, "%s-%d" % (args.workload, os.getpid()))
    try:
        body = _traced if args.trace else _untraced
        found, attempted, failed, trace = body(wl, args, inputs, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass
    found["setup_s"] = (setup_s, "s")
    found["peak_rss_mb"] = (_peak_rss_mb(), "MB")

    print("workload %s  seed %d  trace %d  attempted %d  failed %d"
          % (args.workload, args.seed, args.trace, attempted, failed))
    for name in sorted(found):
        value, unit = found[name]
        print("  %-52s %.10g %s" % (name, value, unit))

    if trace is not None:
        path = args.trace_out or os.path.join(TRACES, "%s-seed%d.json" % (args.workload, args.seed))
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(trace, fh)
        print("  spans written to %s" % os.path.relpath(path, ROOT))

    declared = per_layer if args.trace else end_to_end
    metrics = {}
    for m in declared:
        if m["name"] not in found:
            raise BenchError("metric %s was not measured" % m["name"])
        value, unit = found[m["name"]]
        if unit != m["unit"]:
            raise BenchError("metric %s measured in %s, declared %s" % (m["name"], unit, m["unit"]))
        metrics[m["name"]] = {"value": value, "unit": unit}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(args):
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise BenchError("workload %s exited %d" % (name, proc.returncode))
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {"%s/%s" % (w, k): v for w, r in results.items() for k, v in r["metrics"].items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", default=None, help="where a traced run writes its spans")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _cap_blas_threads()
    _fix_allocator()
    try:
        if args.setup_probe:
            _setup_probe(args.workload, args.seed)
            return 0
        result = run_all(args) if args.workload == "all" else run_one(args)
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
