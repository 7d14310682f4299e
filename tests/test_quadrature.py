import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from microshell import observables as obs
from microshell import quadrature as quad
from microshell.errors import ArgumentError, DomainError, QuadratureError

S12 = obs.power_set([1, 2])
S123 = obs.power_set([1, 2, 3])
S2 = obs.power_set([2])


class TestDomain:
    def test_zero_tilt_inside(self):
        assert quad.in_domain(S12, [0.0, 0.0])
        assert quad.in_domain(S123, [0.0, 0.0, 0.0])

    def test_negative_last_inside(self):
        assert quad.in_domain(S12, [5.0, -1.0])
        assert quad.in_domain(S123, [2.0, 3.0, -0.5])

    def test_lexicographic_faces(self):
        # trailing zero: membership falls to the previous coordinate
        assert quad.in_domain(S123, [2.0, -1.0, 0.0])
        assert not quad.in_domain(S123, [2.0, 1.0, 0.0])
        assert quad.in_domain(S123, [0.5, 0.0, 0.0])
        assert not quad.in_domain(S123, [1.5, 0.0, 0.0])

    def test_first_coordinate_threshold_is_one(self):
        # the reference already carries e^{-phi_1}; p_1 < 1 keeps it finite
        assert quad.in_domain(S12, [0.999, 0.0])
        assert not quad.in_domain(S12, [1.0, 0.0])

    def test_positive_last_outside(self):
        assert not quad.in_domain(S12, [0.0, 0.1])


class TestPartitionFunction:
    def test_zero_tilt_is_zero(self):
        assert quad.log_partition(S12, [0.0, 0.0]) == 0.0
        assert quad.log_partition(S123, [0.0, 0.0, 0.0]) == 0.0

    def test_halved_rate_closed_form(self):
        # tilt e^{0.5 x} against e^{-x} dx: integral 2, so H = log 2
        val = quad.log_partition(S12, [0.5, 0.0])
        assert val == pytest.approx(math.log(2.0), abs=1e-10)

    def test_gaussian_closed_form(self):
        # k=1, phi = x^2: H(p) = log(1/sqrt(1-p)) for the half-Gaussian
        val = quad.log_partition(S2, [0.75])
        assert val == pytest.approx(math.log(2.0), abs=1e-10)

    def test_outside_domain_raises(self):
        with pytest.raises(DomainError):
            quad.log_partition(S12, [1.0, 0.0])


class TestMoments:
    def test_exponential_reference(self):
        m = quad.moments(S12, [0.0, 0.0])
        assert m[0] == pytest.approx(1.0, abs=1e-10)
        assert m[1] == pytest.approx(2.0, abs=1e-10)

    def test_exponential_reference_three_moments(self):
        m = quad.moments(S123, [0.0, 0.0, 0.0])
        assert np.allclose(m, [1.0, 2.0, 6.0], atol=1e-9)

    def test_rate_two(self):
        # tilt e^{-x}: density prop to e^{-2x}, moments (1/2, 1/2)
        m = quad.moments(S12, [-1.0, 0.0])
        assert np.allclose(m, [0.5, 0.5], atol=1e-10)

    def test_rate_half(self):
        # tilt e^{x/2}: density prop to e^{-x/2}, moments (2, 8)
        m = quad.moments(S12, [0.5, 0.0])
        assert np.allclose(m, [2.0, 8.0], atol=1e-9)

    def test_gradient_matches_moments_richardson(self):
        # central differences of H converge to the moment map at O(eps^2)
        p = np.array([0.2, -0.3])
        m = quad.moments(S12, p)
        for i in range(2):
            errs = []
            for eps in (1e-3, 5e-4):
                e = np.zeros(2)
                e[i] = eps
                fd = (
                    quad.log_partition(S12, p + e) - quad.log_partition(S12, p - e)
                ) / (2 * eps)
                errs.append(abs(fd - m[i]))
            assert errs[0] <= 1e-5
            # halving eps divides the error by about four
            if errs[0] > 1e-11:
                assert errs[1] <= errs[0] / 3.0


class TestCovariance:
    def test_psd_and_symmetric(self):
        cov = quad.covariance(S12, [0.3, -0.4])
        assert np.allclose(cov, cov.T)
        assert np.all(np.linalg.eigvalsh(cov) > 0)

    def test_matches_hessian_of_h(self):
        p = np.array([0.1, -0.2])
        cov = quad.covariance(S12, p)
        eps = 1e-4
        for i in range(2):
            e = np.zeros(2)
            e[i] = eps
            fd = (
                np.asarray(quad.moments(S12, p + e))
                - np.asarray(quad.moments(S12, p - e))
            ) / (2 * eps)
            assert np.allclose(fd, cov[i], atol=1e-6)

    def test_exponential_closed_form(self):
        # exp(1): Var(x) = 1, Cov(x, x^2) = E x^3 - E x E x^2 = 4,
        # Var(x^2) = E x^4 - (E x^2)^2 = 24 - 4 = 20
        cov = quad.covariance(S12, [0.0, 0.0])
        assert np.allclose(cov, [[1.0, 4.0], [4.0, 20.0]], atol=1e-8)

    @settings(max_examples=15, deadline=None)
    @given(
        st.floats(min_value=-2.0, max_value=0.9),
        st.floats(min_value=-1.5, max_value=-0.05),
    )
    def test_psd_on_random_interior_tilts(self, p1, p2):
        cov = quad.covariance(S12, [p1, p2])
        assert np.all(np.linalg.eigvalsh(cov) > -1e-12)


class TestTiltedDensity:
    def test_median_of_exponential(self):
        d = quad.tilted_density(S12, [0.0, 0.0])
        assert quad.quantile(d, 0.5) == pytest.approx(math.log(2.0), rel=1e-6)

    def test_cdf_quantile_roundtrip(self):
        d = quad.tilted_density(S12, [0.5, -0.25])
        us = np.array([0.05, 0.3, 0.5, 0.9, 0.99])
        xs = quad.quantile(d, us)
        back = quad.cdf(d, xs)
        assert np.allclose(back, us, atol=1e-7)

    def test_density_normalizes(self):
        d = quad.tilted_density(S12, [0.2, -0.1])
        assert quad.cdf(d, 1e6) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize(
        "p, a, b",
        [
            pytest.param((0.0, 0.0), 2.0, 5.0, id="exp1-2-5"),
            pytest.param((0.0, 0.0), 0.0, math.inf, id="exp1-whole-line"),
            pytest.param((0.0, 0.0), 0.0, 0.5, id="exp1-0-0.5"),
            pytest.param((0.0, 0.0), 1e-8, 1e-6, id="exp1-1e-8-1e-6"),
            # below the default scan range, which starts at t = -80
            pytest.param((0.0, 0.0), 0.0, 1e-40, id="exp1-0-1e-40"),
            pytest.param((0.5, 0.0), 2.0, 5.0, id="p1=0.5-2-5"),
            pytest.param((-1.0, 0.0), 2.0, 5.0, id="p1=-1-2-5"),
        ]
        + [
            # the appendix shells sqrt((M -+ 0.1) n) of diagnostics
            pytest.param(
                (0.0, 0.0),
                math.sqrt((M - 0.1) * n),
                math.sqrt((M + 0.1) * n),
                id="shell-M%g-n%d" % (M, n),
            )
            for M in (0.5, 2.0)
            for n in (10, 10**4)
        ]
        + [pytest.param((0.2, -0.1), 0.5, 3.0, id="S12-tilt-0.5-3")],
    )
    def test_log_prob_interval_closed_form(self, p, a, b):
        d = quad.tilted_density(S12, list(p))
        got = quad.log_prob_interval(d, a, b)
        if p[1] == 0.0:
            # exponential law with rate 1 - p_1
            r = 1.0 - p[0]
            expected = -r * a + math.log(-math.expm1(-r * (b - a)))
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-15)
        else:
            expected = math.log(quad.cdf(d, b) - quad.cdf(d, a))
            assert got == pytest.approx(expected, rel=1e-9)

    def test_log_prob_interval_beyond_default_scan(self):
        # phi = x^0.02 at p = 0: x^0.02 is Gamma(50), so P(X > e^200) is
        # the upper incomplete gamma ratio Q(50, e^4); the log-weight
        # peaks near t = 196, beyond the default scan end t = 60, and
        # falls by more than the tail cut from t = 200 down to t = 60
        d = quad.tilted_density(obs.power_set([0.02]), [0.0])
        y = math.exp(4.0)
        expected = math.log(
            math.fsum(math.exp(k * 4.0 - math.lgamma(k + 1) - y) for k in range(50))
        )
        got = quad.log_prob_interval(d, math.exp(200.0), math.inf)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_log_prob_interval_deep_tail(self):
        # far tails where direct CDF subtraction would lose all precision
        d = quad.tilted_density(S12, [0.0, 0.0])
        got = quad.log_prob_interval(d, 100.0, 110.0)
        expected = -100.0 + math.log1p(-math.exp(-10.0))
        assert got == pytest.approx(expected, rel=1e-8)

    def test_log_prob_interval_without_width_in_log_x_raises(self):
        # log a and log b round to the same t
        d = quad.tilted_density(S12, [0.0, 0.0])
        with pytest.raises(QuadratureError, match="no resolvable support"):
            quad.log_prob_interval(d, 1e10, math.nextafter(1e10, math.inf))

    def test_log_prob_interval_narrow_in_log_x_raises(self):
        # log a and log b are 12 ulps apart: the integral between the
        # rounded logs gave -1025.265 where the exact value is -1025.328
        d = quad.tilted_density(S12, [0.0, 0.0])
        with pytest.raises(QuadratureError, match="below 1e10 spacings"):
            quad.log_prob_interval(d, 1e3, 1e3 * (1.0 + 1e-14))

    def test_log_prob_interval_below_rounding_of_its_maximum_raises(self):
        # near t = log 1e30 the log-weight is about -1e30, so its maximum
        # minus the tail cut rounds back to the maximum
        d = quad.tilted_density(S12, [0.0, 0.0])
        with pytest.raises(QuadratureError, match="no resolvable support"):
            quad.log_prob_interval(d, 1e30, math.inf)

    def test_lebesgue_coefficients(self):
        d = quad.tilted_density(S12, [0.25, -0.5])
        assert tuple(d.lebesgue_coeffs) == pytest.approx((-0.75, -0.5))


def _gamma_moment(e1, v1, s):
    # E[x^s] under the density prop. to exp(-x^e1 / (e1 v1)), whose
    # mean of x^e1 is v1: x^e1 is Gamma(1/e1) with scale e1 v1
    return math.exp(
        math.lgamma((s + 1.0) / e1) - math.lgamma(1.0 / e1)
        + (s / e1) * math.log(e1 * v1)
    )


_E1 = st.floats(min_value=0.5, max_value=2.5)
_GAP = st.floats(min_value=0.1, max_value=3.0)
_V1 = st.floats(min_value=0.25, max_value=4.0)


class TestPowerPairClosedForms:
    """phi = (x^e1, x^e2) with zero last tilt is a generalized gamma law;
    its moments and log-partition function are Gamma-function ratios."""

    @settings(max_examples=25, deadline=None)
    @given(_E1, _GAP, _V1)
    def test_moments(self, e1, gap, v1):
        e2 = e1 + gap
        s = obs.power_set([e1, e2])
        p1 = 1.0 - 1.0 / (e1 * v1)
        m = quad.moments(s, [p1, 0.0])
        assert m[0] == pytest.approx(v1, rel=1e-8)
        assert m[1] == pytest.approx(_gamma_moment(e1, v1, e2), rel=1e-8)

    @settings(max_examples=25, deadline=None)
    @given(_E1, _GAP, st.floats(min_value=-3.0, max_value=0.95))
    def test_log_partition(self, e1, gap, p1):
        s = obs.power_set([e1, e1 + gap])
        assert quad.log_partition(s, [p1, 0.0]) == pytest.approx(
            -math.log(1.0 - p1) / e1, abs=1e-8
        )


def _bisection_quantile(d, u):
    """Reference inverse: 64 bisection passes over the CDF grid's
    support, comparing the CDF at the midpoint with u."""
    edges = d.edges
    lo = np.full(np.shape(u), edges[0])
    hi = np.full(np.shape(u), edges[-1])
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        take_hi = quad._cdf_t(d, mid) < u
        lo = np.where(take_hi, mid, lo)
        hi = np.where(take_hi, hi, mid)
    return np.exp(0.5 * (lo + hi))


class TestQuantile:
    S12_TILT = (0.5, -0.25)
    S123_TILT = (0.2, 0.1, -0.5)
    DOCUMENTED_U = np.array([1e-16, 5e-7, 0.5, 1.0 - 5e-7, 1.0 - 2.0**-53])

    @pytest.fixture(scope="class")
    def densities(self):
        return [
            quad.tilted_density(S12, self.S12_TILT),
            quad.tilted_density(S123, self.S123_TILT),
            quad.tilted_density(S123, TestTiltStatsKernel.NARROW),
        ]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_argument_raises(self, densities, bad):
        d = densities[0]
        with pytest.raises(ArgumentError, match="finite"):
            quad.quantile(d, bad)
        with pytest.raises(ArgumentError, match="finite"):
            quad.quantile(d, [0.5, bad])
        with pytest.raises(ArgumentError, match="finite"):
            quad.cdf(d, bad)

    @pytest.mark.parametrize("u", [0.0, 1.0, -0.1, 1.5])
    def test_argument_outside_unit_interval_raises(self, densities, u):
        with pytest.raises(ArgumentError, match="lie in"):
            quad.quantile(densities[0], u)

    def test_argument_below_the_grid_raises(self, densities):
        # the CDF grid drops the mass below its lower edge: for exp(1),
        # u = 1e-300 used to return that edge, 6.4e-36
        below = math.nextafter(quad._QUANTILE_U_MIN, 0.0)
        assert quad._QUANTILE_U_MIN == pytest.approx(8.8e-27, rel=1e-2)
        for u in (1e-300, below, [0.5, below]):
            with pytest.raises(ArgumentError, match="lie in"):
                quad.quantile(densities[0], u)

    def test_negative_cdf_argument_raises(self, densities):
        with pytest.raises(ArgumentError, match="nonnegative"):
            quad.cdf(densities[0], [1.0, -0.5])

    def test_documented_tolerance_in_probability(self, densities):
        for d in densities:
            q = quad.quantile(d, self.DOCUMENTED_U)
            assert np.all(np.isfinite(q)) and np.all(q > 0)
            assert np.max(np.abs(quad.cdf(d, q) - self.DOCUMENTED_U)) <= 1e-10

    def test_shape_and_scalar(self, densities):
        d = densities[0]
        u = np.linspace(0.1, 0.9, 6).reshape(2, 3)
        q = quad.quantile(d, u)
        assert q.shape == (2, 3)
        assert isinstance(quad.quantile(d, 0.25), float)
        assert np.array_equal(q.ravel(), quad.quantile(d, u.ravel()))

    @settings(max_examples=30, deadline=None)
    @given(
        st.floats(min_value=-1.0, max_value=0.6),
        st.lists(
            st.floats(min_value=1e-20, max_value=1.0 - 1e-12),
            min_size=1,
            max_size=40,
        ),
    )
    def test_exponential_closed_form(self, p1, us):
        # tilt (p1, 0) of S12 is the exponential law with rate 1 - p1;
        # the cached grid starts 80 nats below the peak and so drops
        # about e^-81 = 7e-36 of the mass: u stays above 1e-20
        d = quad.tilted_density(S12, (p1, 0.0))
        u = np.array(us)
        exact = -np.log1p(-u) / (1.0 - p1)
        assert np.all(np.abs(quad.quantile(d, u) / exact - 1.0) <= 1e-8)

    def test_exponential_closed_form_at_the_lower_bound(self):
        d = quad.tilted_density(S12, (0.0, 0.0))
        u = np.array([quad._QUANTILE_U_MIN, 1e-16])
        exact = -np.log1p(-u)
        assert np.all(np.abs(quad.quantile(d, u) / exact - 1.0) <= 1e-8)

    def test_exponential_top_of_double_range(self):
        # u = 1 - 2^-53 is counted from the right as 2^-53 of the mass
        d = quad.tilted_density(S12, (0.0, 0.0))
        assert quad.quantile(d, 1.0 - 2.0**-53) == pytest.approx(53 * math.log(2.0), rel=1e-8)

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([0, 1, 2]),
        st.floats(min_value=1e-12, max_value=1.0 - 1e-12),
        st.lists(st.integers(min_value=-30, max_value=30), min_size=2, max_size=30),
        st.lists(st.floats(min_value=1e-16, max_value=1.0 - 1e-16), max_size=30),
    )
    # four equal u, which a Gauss-Legendre sum rounding by row gives two
    # values of x
    @example(which=0, base=0.17979740518726492, offsets=[0, 19, 19, 19, 19], spread=[0.5])
    def test_nondecreasing_in_u(self, densities, which, base, offsets, spread):
        # neighbours a few floats apart, plus values across (0, 1)
        u = base + np.array(offsets) * np.spacing(base)
        u = np.sort(np.concatenate([u[(u > 0.0) & (u < 1.0)], spread]))
        rng = np.random.default_rng(len(u))
        perm = rng.permutation(len(u))
        q = np.empty_like(u)
        q[perm] = quad.quantile(densities[which], u[perm])
        assert np.all(np.diff(q) >= 0.0)

    def test_dense_float_neighbours_nondecreasing(self, densities):
        rng = np.random.default_rng(3)
        base = rng.random(5000)
        u = np.sort(np.concatenate([base + k * np.spacing(base) for k in range(-20, 21)]))
        for d in densities:
            assert np.all(np.diff(quad.quantile(d, u)) >= 0.0)

    def test_matches_bisection_reference(self, densities):
        # the 64-pass bisection over the same cache, in probability and,
        # away from the tails where the CDF near 1 loses digits, in x
        rng = np.random.default_rng(7)
        u = np.concatenate([rng.random(2000), [1e-12, 1e-6, 1.0 - 1e-6]])
        for d in densities:
            q, ref = quad.quantile(d, u), _bisection_quantile(d, u)
            assert np.max(np.abs(quad.cdf(d, q) - quad.cdf(d, ref))) <= 1e-10
            assert np.max(np.abs(q / ref - 1.0)) <= 1e-9

    def test_blocks_match_calls_on_slices_across_block_edges(self, densities):
        # one call runs in blocks of _BLOCK points; slices that straddle
        # each block edge give the same bits
        b = quad._BLOCK
        u = np.random.default_rng(13).random(3 * b + 17)
        cuts = (0, b // 2, 3 * b // 2 + 1, 5 * b // 2 + 2, u.size)
        for d in densities:
            x = quad.quantile(d, u)
            for fn, arg, whole in ((quad.quantile, u, x), (quad.cdf, x, quad.cdf(d, x))):
                parts = [fn(d, arg[lo:hi]) for lo, hi in zip(cuts, cuts[1:])]
                assert np.array_equal(np.concatenate(parts), whole)

    def test_a_point_gives_the_same_bits_alone_and_at_any_position(self, densities):
        # a (points, 15) @ weights product sums a point's nodes in an
        # order set by its row: u0 then took two values one ulp apart,
        # alone and in np.full(6, u0)
        d, b, u0 = densities[0], quad._BLOCK, 0.17979740518726545
        x0 = quad.quantile(d, u0)
        c0 = quad.cdf(d, x0)
        assert np.all(quad.quantile(d, np.full(6, u0)) == x0)
        assert np.all(quad.cdf(d, np.full(6, x0)) == c0)
        rng = np.random.default_rng(17)
        for pos in (0, 1, 2, 3, 5, 7, b - 1, b, b + 1):
            u = rng.random(b + 9)
            u[pos] = u0
            x = quad.quantile(d, u)
            assert x[pos] == x0
            assert quad.cdf(d, x)[pos] == c0
        u = rng.random(300)
        x = quad.quantile(d, u)
        assert np.array_equal(x, [quad.quantile(d, v) for v in u])
        assert np.array_equal(quad.cdf(d, x), [quad.cdf(d, v) for v in x])

    def test_newton_work_per_point(self, densities, monkeypatch):
        # a bisection pass costs 15 log-weight evaluations per point and
        # the 64-pass loop 960; each Newton round costs 16
        calls = []
        real = quad._log_weight
        monkeypatch.setattr(
            quad, "_log_weight", lambda s, c, t: calls.append(np.size(t)) or real(s, c, t)
        )
        u = np.clip(np.random.default_rng(11).random(20000), 1e-16, 1.0 - 1e-16)
        for d in densities:
            calls.clear()
            quad.quantile(d, u)
            assert sum(calls) / u.size <= 16 * 4


class TestTiltStatsKernel:
    # S123 tilt whose log-weight lies within 60 nats of its maximum only
    # on t in [4.30, 4.55]: a narrow peak that a fixed panel width of
    # 0.05-0.1 in t resolves with only a few panels
    NARROW = (-2.602869290936322, 0.9870855069089283, -0.0075811724691365575)

    def test_narrow_peak_log_partition(self):
        # reference: the adaptive bisection rule
        assert quad.log_partition(S123, self.NARROW) == pytest.approx(
            2170.2660679552873, rel=1e-10
        )

    def test_narrow_peak_moments(self):
        # reference: scipy QUADPACK
        assert np.allclose(
            quad.moments(S123, self.NARROW),
            [84.93002991630799, 7213.639431122993, 612744.5382679706],
            rtol=1e-8,
            atol=0.0,
        )

    def test_peak_narrower_than_scan_step(self):
        # a Newton trial tilt whose log-weight peaks at 1.5e7 nats with
        # width 1.06e-4 in t, far inside one step of the bracket scan;
        # reference: mpmath quad at 40 digits around the located peak
        p = (-2.811038655997465, 1.0588915929298217, -0.00010870242245349106)
        assert quad.log_partition(S123, p) == pytest.approx(
            14861058.126509577, rel=1e-13
        )

    def test_unconverged_refinement_raises_after_fixed_halvings(self, monkeypatch):
        # the log-weight of a power set is entire in t, so no input is
        # known to miss the tolerance; two grids that never agree stand
        # in for one, and the kernel raises instead of returning
        calls = []

        def never(*args):
            calls.append(args)
            return False

        monkeypatch.setattr(quad, "_grids_agree", never)
        with pytest.raises(QuadratureError, match="after 4 halvings"):
            quad.moments(S12, [0.0, 0.0])
        assert len(calls) == quad._GRID_HALVINGS + 1


@pytest.mark.parametrize("oset, p", [
    (S12, (0.3, 0.0)),
    (S12, (0.1, -0.4)),
    (S2, (-3.0,)),
    (S123, TestTiltStatsKernel.NARROW),
    (S123, (-2.811038655997465, 1.0588915929298217, -0.00010870242245349106)),
])
def test_density_normaliser_is_its_cdf_grid_total(oset, p):
    # the grid's total and the tilt-statistics rule integrate the same weight
    d = quad.tilted_density(oset, p)
    assert d.log_norm == np.log(d.cum[-1]) + d.gmax
    want = quad.log_partition(oset, p) + quad._log_base_norm(oset)
    assert d.log_norm == pytest.approx(want, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("call, match", [
    (lambda: quad.lebesgue_coefficients(S12, [0.0]), "length k=2"),
    (lambda: quad.in_domain(S12, [0.0, 0.0, 0.0]), "length k=2"),
    (lambda: quad.log_prob_interval(quad.tilted_density(S12, [0.0, 0.0]), 2.0, 1.0),
     "0 <= a < b"),
    (lambda: quad.log_prob_interval(quad.tilted_density(S12, [0.0, 0.0]), 1.0, 1.0),
     "0 <= a < b"),
], ids=["lebesgue_coefficients", "in_domain", "interval_reversed", "interval_empty"])
def test_raised_error_paths(call, match):
    with pytest.raises(ArgumentError, match=match):
        call()
