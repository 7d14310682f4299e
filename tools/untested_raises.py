"""List every raise statement of the package that the tier-1 suite never runs.

    python3 tools/untested_raises.py

Runs pytest on the repository's test paths in this process, with a
sys.settrace line tracer that records only frames of src/microshell,
then prints each `raise` line of src/microshell/*.py that never
executed, as path:line and the statement, and their count.  Hypothesis
is seeded with 0, so two runs draw the same examples and list the same
lines.  Code that a
test runs in a subprocess (the demos, result_diff) is not traced, so a
raise reached only there is listed too.  Needs no coverage package.
"""

import ast
import glob
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "microshell") + os.sep


def main():
    hits = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(PACKAGE) else None

    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    import pytest

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        pytest.main(["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = []
    for path in sorted(glob.glob(PACKAGE + "*.py")):
        with open(path) as fh:
            source = fh.read()
        lines = source.splitlines()
        raises = sorted(n.lineno for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Raise))
        missed += ["%s:%d: %s" % (os.path.relpath(path, ROOT), i, lines[i - 1].strip())
                   for i in raises if (path, i) not in hits]
    print("\n".join(missed))
    print("%d raise lines never executed" % len(missed))


if __name__ == "__main__":
    main()
