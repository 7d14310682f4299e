"""In-memory span tracing of microshell's public functions.

The tracer wraps every public function (``__all__``) of the traced modules
by replacing the module attribute, so the package's source is untouched.
Calls between modules go through module attributes (``quad.moments``), and
calls inside a module go through its globals, so both are seen.  Private
helpers are not wrapped: their time counts as self time of the public
function that called them.

Each span records its name, layer (the module), start, end and the index
of its parent span.  Self time is a span's duration minus the durations
of its direct children; because spans of one thread nest, the self times
of all spans under a root sum to the root's duration.
"""

import functools
import inspect
import time
from collections import defaultdict


class Tracer:
    """Records spans and, through hooks, counts read from return values.

    ``hooks`` maps a qualified name ``layer.function`` to a callable
    ``hook(tracer, args, kwargs, result)`` run after a call returns; hooks
    add to ``tracer.counts``.
    """

    def __init__(self, hooks=None, clock=time.perf_counter):
        self.clock = clock
        self.hooks = dict(hooks or {})
        self.spans = []  # [name, layer, start, end, parent]
        self.counts = defaultdict(float)
        self.wrapped = []  # qualified names of the wrapped functions
        self._stack = []
        self._patched = []

    def open(self, name, layer):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, layer, self.clock(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index):
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError("span %s closed out of order" % self.spans[index][0])
        self._stack.pop()
        self.spans[index][3] = self.clock()

    def within(self, name):
        """True while a span of the given name is open."""
        return any(self.spans[idx][0] == name for idx in self._stack)

    def call(self, name, layer, fn, *args, **kwargs):
        """Run fn under a span of its own."""
        idx = self.open(name, layer)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    def _wrap(self, fn, name, layer):
        hook = self.hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def install(self, modules):
        """Wrap the public functions of each module; layer = short name."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[-1]
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn):
                    name = "%s.%s" % (layer, attr)
                    self._patched.append((module, attr, fn))
                    self.wrapped.append(name)
                    setattr(module, attr, self._wrap(fn, name, layer))

    def uninstall(self):
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched = []


def self_times(spans):
    """Self time of each span: its duration minus its children's."""
    child = [0.0] * len(spans)
    for _, _, start, end, parent in spans:
        if parent is not None:
            child[parent] += end - start
    return [s[3] - s[2] - c for s, c in zip(spans, child)]


def summarize(spans):
    """Per-function calls, total and self seconds, and per-layer self seconds.

    A function's total counts only its outermost activations, so a
    function reached again below itself is not counted twice.
    """
    selfs = self_times(spans)
    funcs = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    layers = defaultdict(float)
    for i, (name, layer, start, end, parent) in enumerate(spans):
        f = funcs[name]
        f["calls"] += 1
        f["self_s"] += selfs[i]
        layers[layer] += selfs[i]
        outermost = True
        p = parent
        while p is not None:
            if spans[p][0] == name:
                outermost = False
                break
            p = spans[p][4]
        if outermost:
            f["total_s"] += end - start
    return dict(funcs), dict(layers)


def has_ancestor(spans, index, layer):
    p = spans[index][4]
    while p is not None:
        if spans[p][1] == layer:
            return True
        p = spans[p][4]
    return False
