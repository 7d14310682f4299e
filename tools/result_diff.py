"""Compare the result files of every CLI subcommand on every config,
as run by two checkouts.

    python3 tools/result_diff.py TREE_A TREE_B

For each file in configs/*.json and each of the seven subcommands, runs
``python3 -m microshell.cli <command> --config <file>`` once with each
tree's src first on the import path and its own copy of the config, in
a fresh temporary directory.  Exit codes must match, and so must stdout
and stderr once the tree's and the run directory's paths are replaced
by placeholders.  manifest.json and run.log are left out: they hold the
library version and the wall-clock time.

A result file whose bytes match is reported as identical.  Otherwise
both sides are parsed and compared value by value:

  * keys, strings, ints, list lengths and CSV headers and row counts
    must match exactly, and lists of named entries (verify's checks)
    are paired by name;
  * a JSON string that parses as a float counts as that float, so
    floats written as quoted repr strings compare against numbers;
  * every float is held to REL_TOL relative, or to its entry in
    RELAXED; a JSON field named in BOUNDS is instead held below its
    bound on both sides.

It prints one line per run and per result file, and one line per
value beyond its tolerance (the file, the field or the (row, column),
and both values), then a count.  It exits 1 when any value, stream,
exit code or structure differs beyond its tolerance, 2 when it is not
given two trees with the same configs/*.json, and 0 otherwise.
"""

import glob
import json
import math
import os
import subprocess
import sys
import tempfile

COMMANDS = ("validate", "solve", "classify", "rate", "sample", "bruteforce", "verify")
EXCLUDED = ("manifest.json", "run.log")
REL_TOL = 1e-8  # moments, tilts, chain states: every float not named below
# the rate function, the phase boundaries and Legendre duality
RELAXED = {"I_value": 1e-6, "g1": 1e-6, "g2": 1e-6,
           "rate_value": 1e-6, "direct_value": 1e-6}
# JSON fields checked against the bound verify holds them to
BOUNDS = {"residual": 1e-6, "ks": 0.05}
SHOWN = 10  # beyond-tolerance lines printed per file


def run_one(tree, config_name, command):
    """(exit code, stdout, stderr, {result file: bytes}) of one run of
    `command` on TREE/configs/`config_name` with TREE's code."""
    tree = os.path.abspath(tree)
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        proc = subprocess.run(
            [sys.executable, "-m", "microshell.cli", command,
             "--config", os.path.join(tree, "configs", config_name), "--out", out],
            cwd=tmp, env=env, capture_output=True,
        )
        streams = [
            s.replace(tmp.encode(), b"<run>").replace(tree.encode(), b"<tree>")
            for s in (proc.stdout, proc.stderr)
        ]
        files = {}
        for name in sorted(os.listdir(out)) if os.path.isdir(out) else []:
            if name not in EXCLUDED:
                with open(os.path.join(out, name), "rb") as fh:
                    files[name] = fh.read()
    return proc.returncode, streams[0], streams[1], files


def _as_float(value):
    """value as a float if it is one, or a string that parses as one."""
    if isinstance(value, float):
        return value
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            return None
    return None


class _Comparison:
    """The differences found in one result file: moved floats (within
    tolerance) and problems (beyond it)."""

    def __init__(self):
        self.moved = 0
        self.largest = (0.0, None)
        self.problems = []

    def floats(self, where, field, a, b, bounded):
        if a == b:
            return
        if bounded and field in BOUNDS:
            if not (abs(a) <= BOUNDS[field] and abs(b) <= BOUNDS[field]):
                self.problems.append("%s: %r vs %r, bound %g" % (where, a, b, BOUNDS[field]))
            self.moved += 1
            return
        tol = RELAXED.get(field, REL_TOL)
        rel = abs(a - b) / max(abs(a), abs(b)) if math.isfinite(a - b) else math.inf
        if rel <= tol:
            self.moved += 1
            if rel > self.largest[0]:
                self.largest = (rel, where)
        else:
            self.problems.append("%s: %r vs %r, relative %.3g > %g" % (where, a, b, rel, tol))

    def values(self, where, field, a, b):
        fa, fb = _as_float(a), _as_float(b)
        if fa is not None and fb is not None:
            self.floats(where, field, fa, fb, bounded=True)
        elif type(a) is not type(b):
            self.problems.append("%s: %r vs %r" % (where, a, b))
        elif isinstance(a, dict):
            for key in sorted(set(a) | set(b)):
                at = "%s.%s" % (where, key) if where else key
                if key not in b or key not in a:
                    self.problems.append("%s: only in %s" % (at, "A" if key in a else "B"))
                else:
                    self.values(at, key, a[key], b[key])
        elif isinstance(a, list) and all(isinstance(v, dict) and "name" in v for v in a + b):
            self.values(where, field, {v["name"]: v for v in a}, {v["name"]: v for v in b})
        elif isinstance(a, list) and len(a) != len(b):
            self.problems.append("%s: %d entries vs %d" % (where, len(a), len(b)))
        elif isinstance(a, list):
            for i, (va, vb) in enumerate(zip(a, b)):
                self.values("%s[%d]" % (where, i), field, va, vb)
        elif a != b:
            self.problems.append("%s: %r vs %r" % (where, a, b))

    def csv(self, a, b):
        rows_a = [line.split(",") for line in a.decode().split("\r\n")[:-1]]
        rows_b = [line.split(",") for line in b.decode().split("\r\n")[:-1]]
        if rows_a[:1] != rows_b[:1] or len(rows_a) != len(rows_b):
            self.problems.append("header %s and %d rows vs header %s and %d rows" % (
                ",".join(rows_a[0]), len(rows_a) - 1, ",".join(rows_b[0]), len(rows_b) - 1))
            return
        header = rows_a[0]
        for i, (ra, rb) in enumerate(zip(rows_a[1:], rows_b[1:])):
            if len(ra) != len(rb):
                self.problems.append("row %d: %d cells vs %d" % (i, len(ra), len(rb)))
            for col, ca, cb in zip(header, ra, rb):
                if ca == cb:
                    continue
                where = "(row %d, %s)" % (i, col)
                fa, fb = _as_float(ca), _as_float(cb)
                if fa is None or fb is None or ca.lstrip("-").isdigit() or cb.lstrip("-").isdigit():
                    self.problems.append("%s: %s vs %s" % (where, ca, cb))
                else:
                    self.floats(where, col, fa, fb, bounded=False)


def compare_file(name, a, b):
    """(moved, largest (relative, where), problems) of one result file
    as written by the two trees."""
    found = _Comparison()
    if name.endswith(".json"):
        found.values("", None, json.loads(a), json.loads(b))
    else:
        found.csv(a, b)
    return found.moved, found.largest, found.problems


def diff_run(tree_a, tree_b, config_name, command):
    """(report lines, number of beyond-tolerance problems) of one
    (config, command) run on the two trees."""
    tag = "%s %s" % (config_name, command)
    (code_a, out_a, err_a, files_a), (code_b, out_b, err_b, files_b) = (
        run_one(tree, config_name, command) for tree in (tree_a, tree_b))
    lines, problems = [], 0
    if (code_a, out_a, err_a) == (code_b, out_b, err_b):
        lines.append("%s: exit %d, stdout and stderr identical" % (tag, code_a))
    else:
        problems += 1
        lines.append("%s: DIFFERS: exit %d vs %d, stdout %s, stderr %s" % (
            tag, code_a, code_b, "identical" if out_a == out_b else "differs",
            "identical" if err_a == err_b else "differs"))
    for name in sorted(set(files_a) | set(files_b)):
        if name not in files_a or name not in files_b:
            problems += 1
            lines.append("%s %s: DIFFERS: only in %s" % (tag, name, "A" if name in files_a else "B"))
            continue
        if files_a[name] == files_b[name]:
            lines.append("%s %s: identical" % (tag, name))
            continue
        moved, (rel, where), found = compare_file(name, files_a[name], files_b[name])
        summary = "%d values moved" % moved if moved else "values equal"
        if where is not None:
            summary += ", largest %.2g relative at %s" % (rel, where)
        if found:
            problems += len(found)
            lines.append("%s %s: DIFFERS: %d beyond tolerance; %s" % (tag, name, len(found), summary))
            lines += ["    %s" % p for p in found[:SHOWN]]
            if len(found) > SHOWN:
                lines.append("    ... and %d more" % (len(found) - SHOWN))
        else:
            lines.append("%s %s: within tolerance; %s" % (tag, name, summary))
    return lines, problems


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python3 tools/result_diff.py TREE_A TREE_B", file=sys.stderr)
        return 2
    names = [sorted(os.path.basename(p) for p in glob.glob(os.path.join(t, "configs", "*.json")))
             for t in args]
    if not names[0] or names[0] != names[1]:
        print("error: the trees need the same, non-empty configs/*.json: %s vs %s"
              % tuple(names), file=sys.stderr)
        return 2
    total = 0
    for config_name in names[0]:
        for command in COMMANDS:
            lines, problems = diff_run(args[0], args[1], config_name, command)
            print("\n".join(lines), flush=True)
            total += problems
    print("%d beyond tolerance over %d runs" % (total, len(names[0]) * len(COMMANDS)))
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
