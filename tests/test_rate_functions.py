import math

import numpy as np
import pytest

from microshell import dual_solver as dual
from microshell import observables as obs
from microshell import quadrature as quad
from microshell import rate_functions as rf
from microshell.errors import ArgumentError

S12 = obs.power_set([1, 2])
S123 = obs.power_set([1, 2, 3])
S2 = obs.power_set([2])


class TestRateValues:
    def test_zero_at_reference_moments(self):
        assert rf.rate_I(S12, (1.0, 2.0)).value == pytest.approx(0.0, abs=1e-6)

    def test_scaled_exponential_closed_form(self):
        # v = (2, 8) is the rate-1/2 exponential: I = 1 - log 2
        ev = rf.rate_I(S12, (2.0, 8.0))
        assert ev.value == pytest.approx(1.0 - math.log(2.0), abs=1e-6)

    def test_constant_beyond_phase_boundary(self):
        # the last coordinate is flat above g2 = 2
        a = rf.rate_I(S12, (1.0, 2.5)).value
        b = rf.rate_I(S12, (1.0, 3.5)).value
        assert a == pytest.approx(b, abs=1e-6)

    def test_positive_in_interior(self):
        assert rf.rate_I(S12, (1.0, 1.5)).value > 1e-3

    def test_infinite_below_floor(self):
        assert rf.rate_I(S12, (1.0, 0.5)).value == math.inf

    def test_nonnegative(self):
        for v in [(0.7, 1.2), (1.5, 3.0), (2.0, 5.0), (1.0, 9.0)]:
            assert rf.rate_I(S12, v).value >= -1e-12

    def test_k1(self):
        assert rf.rate_I(S2, (2.0,)).value > 0
        assert rf.rate_I(S2, (2.0,)).value == pytest.approx(
            0.75 * 2.0 - math.log(2.0), abs=1e-8
        )


class TestLegendreDuality:
    @pytest.mark.parametrize(
        "p", [(-0.5, -0.2), (0.4, -0.6), (0.8, -0.05), (-2.0, -1.0)]
    )
    def test_roundtrip_two_constraints(self, p):
        v = quad.moments(S12, list(p))
        direct = float(np.dot(p, v)) - quad.log_partition(S12, list(p))
        ev = rf.rate_I(S12, v)
        assert ev.value == pytest.approx(direct, abs=1e-6)
        assert np.allclose(ev.maximizer_p, p, atol=1e-4)

    @pytest.mark.parametrize("p", [(0.3, 0.4, -0.3), (-0.5, 0.1, -0.8)])
    def test_roundtrip_three_constraints(self, p):
        v = quad.moments(S123, list(p))
        direct = float(np.dot(p, v)) - quad.log_partition(S123, list(p))
        ev = rf.rate_I(S123, v)
        assert ev.value == pytest.approx(direct, abs=1e-6)
        assert np.allclose(ev.maximizer_p, p, atol=1e-4)


class TestProjectedRate:
    def test_zero_displacement(self):
        assert rf.jmax_projected(S12, (1.0, 3.0), 0.0) == 0.0

    def test_monotone_in_displacement(self):
        vals = [rf.jmax_projected(S12, (1.0, 3.0), z) for z in (0.0, 0.3, 0.6)]
        assert vals[0] <= vals[1] <= vals[2] + 1e-12

    def test_flat_while_inside_constancy_region(self):
        # moving a_k down but staying above g2 = 2 costs nothing
        assert rf.jmax_projected(S12, (1.0, 3.0), 0.5) == pytest.approx(
            0.0, abs=1e-8
        )

    def test_positive_past_boundary(self):
        assert rf.jmax_projected(S12, (1.0, 3.0), 1.5) > 1e-3

    def test_whole_last_coordinate_is_infinite(self):
        assert rf.jmax_projected(S12, (1.0, 3.0), 3.0) == math.inf

    def test_difference_of_two_rates(self):
        a, z = (1.0, 1.8), 0.5
        expected = rf.rate_I(S12, (1.0, 1.3)).value - rf.rate_I(S12, a).value
        assert rf.jmax_projected(S12, a, z) == pytest.approx(expected, abs=1e-12)


class TestEntropy:
    def test_exponential(self):
        d = quad.tilted_density(S12, [0.0, 0.0])
        assert rf.entropy(d) == pytest.approx(1.0, abs=1e-8)

    def test_rate_half_exponential(self):
        d = quad.tilted_density(S12, [0.5, 0.0])
        assert rf.entropy(d) == pytest.approx(1.0 + math.log(2.0), abs=1e-8)

    def test_k_constant_extraneous(self):
        assert rf.K_of(S12, (1.0, 3.0)) == pytest.approx(-1.0, abs=1e-8)

    def test_entropy_duality_identity(self):
        # -h(lambda*) equals I restricted to the matched moments
        p = [0.4, -0.6]
        d = quad.tilted_density(S12, p)
        v = quad.moments(S12, p)
        lhs = -rf.entropy(d)
        # I(v) = p.v - H(p); h = H(p) - (c . v_leb) with the reference
        # shift, so the two agree up to the linear reference term v_1
        rhs = rf.rate_I(S12, v).value - float(v[0])
        assert lhs == pytest.approx(rhs, abs=1e-8)


class TestPhaseBoundaryTie:
    """v_k = g2 = 2 v1^2 exactly: rate_I, rate_scan and classify all put
    the tie in the flat region, with the reduced tilt as maximizer."""

    @pytest.mark.parametrize("v", [(1.0, 2.0), (2.0, 8.0)])
    def test_rate_I_takes_reduced_tilt(self, v):
        reduced = dual.solve_reduced(S12, v[:1])
        ev = rf.rate_I(S12, v)
        assert ev.maximizer_p == reduced.p
        assert dual.classify(S12, v).regime == "EXTRANEOUS"

    @pytest.mark.parametrize("v", [(1.0, 2.0), (2.0, 8.0)])
    def test_rate_scan_takes_reduced_tilt(self, v):
        reduced = dual.solve_reduced(S12, v[:1])
        evals = rf.rate_scan(S12, v[:1], [0.9 * v[1], v[1], 1.1 * v[1]])
        assert evals[1].maximizer_p == reduced.p
        assert evals[1].value == evals[2].value
        assert evals[1].value == rf.rate_I(S12, v).value


class TestJustBelowPhaseBoundary:
    # a_k a relative 3e-9 below g2 = 8, where no interior tilt is found
    v = (2.0, 8.0 * (1.0 - 3e-9))

    def test_rate_I_and_rate_scan_agree_on_flat_value(self):
        ev = rf.rate_I(S12, self.v)
        (scan,) = rf.rate_scan(S12, self.v[:1], [self.v[1]])
        assert ev.value == scan.value
        assert ev.maximizer_p == scan.maximizer_p
        assert ev.value == pytest.approx(1.0 - math.log(2.0), abs=1e-6)
        assert ev.maximizer_p == dual.classify(S12, self.v).reduced.p


class TestRateScan:
    def test_shape_and_flat_tail(self):
        zs = np.linspace(1.2, 4.0, 15)
        evals = rf.rate_scan(S12, (1.0,), zs)
        assert len(evals) == 15
        vals = np.array([e.value for e in evals])
        # decreasing toward the boundary, then constant above g2 = 2
        above = zs >= 2.0
        assert np.allclose(vals[above], vals[above][0], atol=1e-8)
        below = vals[~above]
        assert np.all(np.diff(below) <= 1e-10)

    def test_infinite_below_floor_flagged(self):
        evals = rf.rate_scan(S12, (1.0,), np.array([0.5, 3.0]))
        assert evals[0].value == math.inf
        assert evals[0].maximizer_p == rf.BOUNDARY

    @pytest.mark.parametrize(
        "oset, prefix, zs",
        [
            # floor g1 = 1.69, boundary g2 = 3.38
            (S12, (1.3,), np.linspace(1.0, 5.0, 9)),
            # floor g1 = v2^2 / v1 = 3.24, boundary g2 above it
            (S123, (1.0, 1.8), np.linspace(2.5, 9.0, 9)),
        ],
    )
    def test_equals_rate_I_pointwise(self, oset, prefix, zs):
        evals = rf.rate_scan(oset, prefix, zs)
        regimes = set()
        for z, ev in zip(zs, evals):
            v = prefix + (float(z),)
            one = rf.rate_I(oset, v)
            assert ev.v == one.v
            assert ev.value == one.value
            assert ev.maximizer_p == one.maximizer_p
            regimes.add(dual.classify(oset, v).regime)
        # the grid crosses the floor, the interior and the flat part
        assert regimes == {"INADMISSIBLE", "INTERIOR_S1", "EXTRANEOUS"}


@pytest.mark.parametrize("call, match", [
    (lambda: rf.rate_scan(S12, (), [1.0, 2.0]), "prefix"),
    (lambda: rf.rate_scan(S12, (0.0,), [1.0, 2.0]), "prefix"),
    (lambda: rf.rate_scan(S12, (math.nan,), [1.0, 2.0]), "prefix"),
    (lambda: rf.rate_scan(S12, (math.inf,), [1.0, 2.0]), "prefix"),
    (lambda: rf.rate_scan(S12, (1.0,), [2.0, 1.0]), "z_grid"),
    (lambda: rf.rate_scan(S12, (1.0,), [1.0, 1.0]), "z_grid"),
    (lambda: rf.rate_scan(S12, (1.0,), [1.0, math.nan]), "z_grid"),
    (lambda: rf.rate_scan(S12, (1.0,), [1.0, math.inf]), "z_grid"),
    (lambda: rf.jmax_projected(S12, (1.0, 3.0), -0.5), "0 <= z <= a_k"),
    (lambda: rf.jmax_projected(S12, (1.0, 3.0), 3.5), "0 <= z <= a_k"),
], ids=["prefix_length", "prefix_zero", "prefix_nan", "prefix_inf", "z_decreasing",
        "z_repeated", "z_nan", "z_inf", "jmax_negative", "jmax_beyond_a_k"])
def test_raised_error_paths(call, match):
    with pytest.raises(ArgumentError, match=match):
        call()
