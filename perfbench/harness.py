"""Operation timing, failure counting and the percentile rule.

An operation is one call into the program.  Only the call is timed;
oracle checks on its result run afterwards and do not count towards the
operation's time.  An operation fails when the call raises or when any
check on its result fails, and ``failed / attempted`` is the run's
failure fraction.
"""

import math
import sys
import time
import traceback


class Op:
    """One timed call and the outcome of the checks made on its result."""

    __slots__ = ("kind", "units", "seconds", "value", "errors")

    def __init__(self, kind, units):
        self.kind = kind
        self.units = units
        self.seconds = 0.0
        self.value = None
        self.errors = []

    @property
    def ok(self):
        return not self.errors

    def fail(self, message):
        self.errors.append(message)
        print("check failed [%s]: %s" % (self.kind, message), file=sys.stderr)

    def expect(self, condition, message):
        if not condition:
            self.fail(message)
        return bool(condition)

    def verify(self, check, *args):
        """Run check(value, *args) -> list of failure messages.  A check
        that raises counts as failed, with its traceback on stderr."""
        try:
            problems = check(self.value, *args)
        except Exception as exc:  # a broken result must not stop the run
            traceback.print_exc()
            problems = ["check raised %s: %s" % (type(exc).__name__, exc)]
        for message in problems:
            self.fail(message)
        return not problems


class Recorder:
    """Collects the operations of one pass over a workload's fixed work.

    With a tracer, each operation runs under a root span of layer
    ``bench``, so the self times of all spans sum to the pass's wall time.
    """

    def __init__(self, tracer=None, clock=time.perf_counter):
        self.tracer = tracer
        self.clock = clock
        self.ops = []

    def run(self, kind, fn, *args, units=0, **kwargs):
        op = Op(kind, units)
        start = self.clock()
        try:
            if self.tracer is None:
                op.value = fn(*args, **kwargs)
            else:
                op.value = self.tracer.call("bench." + kind, "bench", fn, *args, **kwargs)
        except Exception as exc:  # count the failure, keep the run going
            op.seconds = self.clock() - start
            traceback.print_exc()
            op.fail("raised %s: %s" % (type(exc).__name__, exc))
        else:
            op.seconds = self.clock() - start
        self.ops.append(op)
        return op

    @property
    def wall_s(self):
        return sum(op.seconds for op in self.ops)

    @property
    def attempted(self):
        return len(self.ops)

    @property
    def failed(self):
        return sum(1 for op in self.ops if not op.ok)

    def seconds(self, kinds):
        return [op.seconds for op in self.ops if op.kind in kinds]

    def units(self, kinds):
        return sum(op.units for op in self.ops if op.kind in kinds and op.ok)


def rate(passes, kinds):
    """Units completed per second spent in operations of the given kinds."""
    units = sum(p.units(kinds) for p in passes)
    seconds = sum(sum(p.seconds(kinds)) for p in passes)
    return units / seconds if seconds > 0 else 0.0


def tail_count(n, q):
    """Samples ranked above the nearest-rank q-quantile of n samples."""
    return n - max(1, math.ceil(q * n))


def nearest_rank(values, q, min_tail=10):
    """Nearest-rank q-quantile (the ceil(q n)-th smallest value).

    Reporting a high percentile needs at least ``min_tail`` samples above
    it, so p90 needs 100 samples; fewer raise ValueError.
    """
    values = sorted(values)
    n = len(values)
    if n == 0:
        raise ValueError("no samples")
    if tail_count(n, q) < min_tail and q > 0.5:
        raise ValueError(
            "p%g needs %d samples beyond it, %d samples give %d"
            % (100 * q, min_tail, n, tail_count(n, q))
        )
    return values[max(1, math.ceil(q * n)) - 1]
