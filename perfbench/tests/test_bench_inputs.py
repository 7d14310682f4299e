"""Workload inputs: a pure function of (seed, pass) with unambiguous verdicts."""

import numpy as np
import pytest

import oracles
import workloads


@pytest.mark.parametrize("seed", [1, 2, 3, 1000])
def test_s12_targets_keep_their_phase_and_margin(seed):
    rng = np.random.default_rng(seed)
    targets = workloads._jittered_s12_targets(rng)
    assert len(targets) == 45
    regimes = [oracles.s12_regime(v1, v2) for v1, v2 in targets]
    for v1, v2 in targets:
        assert 0.5 <= v1 <= 2.0 and 0.25 <= v2 <= 6.0
        assert abs(v2 / (v1 * v1) - 1) >= workloads.BOUNDARY_MARGIN
        assert abs(v2 / (2 * v1 * v1) - 1) >= workloads.BOUNDARY_MARGIN
    # the jitter keeps every grid point's phase, so the mix is fixed
    base = workloads._jittered_s12_targets(np.random.default_rng(12345))
    assert regimes == [oracles.s12_regime(v1, v2) for v1, v2 in base]


def _same(a, b):
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


@pytest.mark.parametrize("cls", list(workloads.WORKLOADS.values()))
def test_inputs_repeat_for_a_seed_and_differ_across_seeds(cls):
    wl = cls()
    assert _same(wl.inputs(7, 0), wl.inputs(7, 0))
    assert not _same(wl.inputs(7, 0), wl.inputs(8, 0))
    assert not _same(wl.inputs(7, 0), wl.inputs(7, 1))


def test_s123_targets_sit_in_their_closed_form_regions():
    inp = workloads.PhaseRate().inputs(5, 0)
    for (v1, v2, a3), want in inp["s123"]:
        if want == "FULL_TILT_S2":
            assert v2 > 2 * v1 * v1 and a3 > v2 * v2 / v1
        else:
            assert v1 * v1 < v2 < 2 * v1 * v1
