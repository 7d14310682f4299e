"""Closed-form oracles, cross-checked against each other and the package."""

import math

import numpy as np
import pytest

import oracles
from microshell import observables as obs
from microshell import quadrature as quad
from microshell import sampler as smp

S12 = obs.power_set([1, 2])


@pytest.mark.parametrize("v1,v2,want", [
    (1.0, 1.0, "INADMISSIBLE"), (1.0, 1.5, "INTERIOR_S1"),
    (1.0, 2.0, "EXTRANEOUS"), (2.0, 7.9, "INTERIOR_S1"), (0.5, 0.2, "INADMISSIBLE"),
])
def test_s12_regime_boundaries(v1, v2, want):
    assert oracles.s12_regime(v1, v2) == want


def test_flat_rate_gives_i_2_8():
    assert oracles.s12_flat_rate(2.0) == pytest.approx(1.0 - math.log(2.0), abs=1e-15)
    assert oracles.s12_flat_rate(1.0) == 0.0


def test_exponential_closed_forms_match_the_package():
    p1 = 0.3
    d = quad.tilted_density(S12, (p1, 0.0))
    u = np.array([0.01, 0.5, 0.99])
    q = quad.quantile(d, u)
    assert np.all(np.abs(q / oracles.exp_quantile(p1, u) - 1.0) <= oracles.QUANTILE_REL_TOL)
    m = quad.moments(S12, (p1, 0.0))
    assert np.allclose(m, oracles.exp_moments(p1), rtol=oracles.MOMENT_TOL, atol=0)
    lam = oracles.exp_rate(p1)
    a, b = 1.0, 2.5
    assert oracles.exp_log_prob_interval(p1, a, b) == pytest.approx(
        math.log(math.exp(-lam * a) - math.exp(-lam * b)), rel=1e-14)


def test_independent_moments_match_closed_forms():
    lam = oracles.exp_rate(-0.5)
    m1, m2, m3 = oracles.power_moments((-0.5, 0.0), (1.0, 2.0), (1, 2, 3))
    assert m1 == pytest.approx(1 / lam, rel=1e-12)
    assert m2 == pytest.approx(2 / lam ** 2, rel=1e-12)
    assert m3 == pytest.approx(6 / lam ** 3, rel=1e-12)
    # a half-normal: p = (1, -1/2) gives exp(-x^2 / 2) on (0, inf)
    h1, h2 = oracles.power_moments((1.0, -0.5), (1.0, 2.0), (1, 2))
    assert h1 == pytest.approx(math.sqrt(2 / math.pi), rel=1e-12)
    assert h2 == pytest.approx(1.0, rel=1e-12)


def test_uniform_ks_known_values():
    assert oracles.uniform_ks([0.5]) == 0.5
    assert oracles.uniform_ks([0.25, 0.75]) == 0.25


def test_exact_n2_marginal_agrees_with_sampling_the_shell():
    a, delta = (1.0, 1.6), 0.15
    rng = np.random.default_rng(0)
    x = rng.uniform(0.0, 2.0 * (a[0] + delta), size=(400000, 2))
    inside = np.all(np.abs(np.stack([x.mean(1), (x ** 2).mean(1)], 1) - a) <= delta, axis=1)
    first = np.sort(x[inside, 0])
    ks = oracles.uniform_ks(oracles.s12_shell_marginal_cdf(a, delta, first))
    assert ks <= 3.0 / math.sqrt(first.size)


def test_brute_force_table_within_tolerance_and_shell_moments():
    spec = smp.ShellSpec(set=S12, n=2, delta=0.15, a=(1.0, 1.6))
    table = smp.brute_force_conditional(spec)
    right = table.x * np.sqrt(table.x[1] / table.x[0])
    err = np.max(np.abs(oracles.s12_shell_marginal_cdf(spec.a, spec.delta, right) - table.cdf))
    assert err <= oracles.BRUTE_FORCE_CDF_TOL
    for e, ai in zip((1.0, 2.0), spec.a):
        assert oracles.table_moment_in_shell(table, e, ai, spec.delta)[0]
    assert not oracles.table_moment_in_shell(table, 1.0, 2.0, spec.delta)[0]


def test_close_rejects_non_finite():
    assert oracles.close(1.0, 1.0 + 1e-9, abs_=1e-8)
    assert not oracles.close(math.inf, math.inf, abs_=1.0)
    assert not oracles.close(math.nan, 0.0, abs_=1.0)
