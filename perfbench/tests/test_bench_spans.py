"""Self time from nested spans and the module-attribute tracer."""

import types

from spans import Tracer, has_ancestor, self_times, summarize


def _fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 7] > b [2, 5]; root > c [8, 9]
    spans = [
        ["root", "bench", 0.0, 10.0, None],
        ["m.a", "m", 1.0, 7.0, 0],
        ["n.b", "n", 2.0, 5.0, 1],
        ["m.c", "m", 8.0, 9.0, 0],
    ]
    assert self_times(spans) == [3.0, 3.0, 3.0, 1.0]
    funcs, layers = summarize(spans)
    assert layers == {"bench": 3.0, "m": 4.0, "n": 3.0}
    assert sum(layers.values()) == 10.0
    assert funcs["m.a"] == {"calls": 1, "total_s": 6.0, "self_s": 3.0}
    assert has_ancestor(spans, 2, "m") and not has_ancestor(spans, 1, "n")


def test_recursive_function_total_counts_outermost_call():
    spans = [
        ["m.f", "m", 0.0, 4.0, None],
        ["m.f", "m", 1.0, 3.0, 0],
    ]
    funcs, _ = summarize(spans)
    assert funcs["m.f"] == {"calls": 2, "total_s": 4.0, "self_s": 4.0}


def test_tracer_wraps_public_functions_and_restores_them():
    mod = types.ModuleType("pkg.layer")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    mod.inner, mod.outer, mod.CONST = inner, outer, 3
    mod.__all__ = ["inner", "outer", "CONST"]
    seen = []
    tracer = Tracer(hooks={"layer.inner": lambda t, a, k, r: seen.append((a, r))},
                    clock=_fake_clock([0.0, 1.0, 2.0, 3.0, 4.0, 5.0]))
    tracer.install([mod])
    try:
        assert tracer.wrapped == ["layer.inner", "layer.outer"]
        assert tracer.call("root", "bench", mod.outer, 1) == 4
    finally:
        tracer.uninstall()
    assert mod.inner is inner and mod.outer is outer
    assert [s[0] for s in tracer.spans] == ["root", "layer.outer", "layer.inner"]
    assert [s[4] for s in tracer.spans] == [None, 0, 1]
    assert seen == [((1,), 2)]
    assert sum(self_times(tracer.spans)) == 5.0  # the root's duration


def test_span_is_closed_when_the_call_raises():
    tracer = Tracer(clock=_fake_clock([0.0, 1.0]))

    def fails():
        raise KeyError("x")

    try:
        tracer.call("root", "bench", fails)
    except KeyError:
        pass
    assert tracer.spans == [["root", "bench", 0.0, 1.0, None]]
