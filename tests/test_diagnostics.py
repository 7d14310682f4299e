import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad as integrate

from microshell import diagnostics as diag
from microshell import observables as obs
from microshell import quadrature as quad
from microshell import sampler as smp
from microshell.errors import ArgumentError

S12 = obs.power_set([1, 2])
EXP1 = quad.tilted_density(S12, [0.0, 0.0])


def _fake_batch(states, n=None, a=(1.0, 3.0), delta=0.1, oset=S12):
    states = np.asarray(states, dtype=float)
    n = n or states.shape[1]
    spec = smp.ShellSpec(set=oset, n=n, delta=delta, a=a)
    return smp.SampleBatch(
        states=states,
        seed=0,
        acceptance_rate=1.0,
        shell_residuals=np.zeros(len(states)),
        spec=spec,
    )


class TestKSDistance:
    def test_exponential_draws_vs_exponential(self):
        rng = np.random.Generator(np.random.PCG64(42))
        draws = rng.standard_exponential(10000)
        # DKW at confidence 0.999 gives about 0.019 for 10^4 draws
        assert diag.ks_distance(draws, EXP1) <= 0.05

    def test_rate_two_reference(self):
        # sup_x |e^{-x} - e^{-2x}| = 1/4 attained at x = log 2
        rng = np.random.Generator(np.random.PCG64(43))
        draws = rng.standard_exponential(20000)
        d2 = quad.tilted_density(S12, [-1.0, 0.0])
        assert diag.ks_distance(draws, d2) == pytest.approx(0.25, abs=0.02)

    def test_self_distance_small(self):
        d = quad.tilted_density(S12, [0.3, -0.2])
        draws = smp.sample_tilted(d, n=1, count=20000, seed=1).ravel()
        assert diag.ks_distance(draws, d) <= 0.02

    def test_bounds(self):
        rng = np.random.Generator(np.random.PCG64(44))
        draws = rng.standard_exponential(100)
        val = diag.ks_distance(draws, EXP1)
        assert 0.0 <= val <= 1.0

    def test_empty_raises(self):
        with pytest.raises(ArgumentError):
            diag.ks_distance([], EXP1)

    def test_density_table_reference(self):
        spec = smp.ShellSpec(set=S12, n=2, delta=0.15, a=(1.0, 1.6))
        table = smp.brute_force_conditional(spec)
        batch = smp.run_chain(
            spec, smp.ChainParams(burn_in=10000, thin=10, n_states=5000), seed=2
        )
        assert diag.ks_distance(batch.states.ravel(), table) <= 0.05

    def test_density_table_cdf_at_right_cell_edges(self):
        # table.cdf[i] is the mass up to cell i's right edge, the running
        # sum of the widths: the first cell starts at 0, and the right
        # edges are those of the log grid whose cells' geometric means
        # are the centres x
        spec = smp.ShellSpec(set=S12, n=2, delta=0.15, a=(1.0, 1.6))
        table = smp.brute_force_conditional(spec)
        right = np.cumsum(table.widths)
        assert np.allclose(right, table.x * np.sqrt(table.x[1] / table.x[0]), rtol=1e-12)
        ref = diag._reference_cdf(table, right)
        assert np.allclose(ref, table.cdf, rtol=0.0, atol=1e-12)
        assert diag._reference_cdf(table, 0.0) == 0.0

    def test_density_table_first_cell_starts_at_zero(self):
        # the first cell holds the mass of [0, right[0]]: its pdf is that
        # mass over that width, and the reference CDF rises from (0, 0),
        # so at the log grid's left end it is the exact marginal's CDF
        # (1.44e-3 at this shell), the length of the x_2 interval that
        # the two constraints leave, integrated from 0
        spec = smp.ShellSpec(set=S12, n=2, delta=0.15, a=(1.0, 1.6))
        table = smp.brute_force_conditional(spec)
        right0 = table.x[0] * math.sqrt(table.x[1] / table.x[0])
        assert table.pdf[0] == pytest.approx(table.cdf[0] / right0, rel=1e-3)
        lo = [2.0 * (ai - spec.delta) for ai in spec.a]
        hi = [2.0 * (ai + spec.delta) for ai in spec.a]

        def length(x):
            top = min(hi[0] - x, math.sqrt(max(hi[1] - x * x, 0.0)))
            bottom = max(lo[0] - x, math.sqrt(max(lo[1] - x * x, 0.0)), 0.0)
            return max(top - bottom, 0.0)

        total = integrate(length, 0.0, math.sqrt(hi[1]), limit=200, epsabs=1e-13)[0]
        left = right0 * table.x[0] / table.x[1]
        exact = integrate(length, 0.0, left, epsabs=1e-15)[0] / total
        assert abs(diag._reference_cdf(table, left) - exact) <= 1e-5


class TestMaxStats:
    def test_direct_evaluation(self):
        batch = _fake_batch([[1.0, 2.0]], a=(1.5, 2.5))
        M, N = diag.max_stats(batch)
        assert M[0] == pytest.approx(2.0)
        assert N[0] == pytest.approx(0.5)

    def test_ties_give_m_equals_n(self):
        batch = _fake_batch([[2.0, 2.0, 2.0]], a=(2.0, 4.0))
        M, N = diag.max_stats(batch)
        assert M[0] == N[0]

    def test_single_coordinate_has_zero_second_share(self):
        batch = _fake_batch([[0.9], [1.05]], a=(1.0,), oset=obs.power_set([1]))
        M, N = diag.max_stats(batch)
        assert np.array_equal(M, [0.9, 1.05])
        assert np.array_equal(N, [0.0, 0.0])

    def test_m_at_least_n(self):
        rng = np.random.Generator(np.random.PCG64(5))
        batch = _fake_batch(rng.random((50, 8)) + 0.1)
        M, N = diag.max_stats(batch)
        assert M.shape == N.shape == (50,)
        assert np.all(M >= N) and np.all(N >= 0)

    def test_matches_per_state_sort(self):
        rng = np.random.Generator(np.random.PCG64(8))
        states = rng.random((200, 7)) + 0.1
        states[::5, 4] = states[::5].max(axis=1)  # the two largest tie
        batch = _fake_batch(states)
        M, N = diag.max_stats(batch)
        top = np.sort(states ** 2 / 7, axis=1)
        assert np.array_equal(M, top[:, -1])
        assert np.array_equal(N, top[:, -2])

    def test_vector_over_states(self):
        batch = _fake_batch([[1.0, 3.0], [2.0, 1.0]], a=(1.0, 3.0))
        M, N = diag.max_stats(batch)
        assert np.allclose(M, [4.5, 2.0])
        assert np.allclose(N, [0.5, 0.5])

    @settings(max_examples=30, deadline=None)
    @given(st.permutations(list(range(6))))
    def test_permutation_invariant(self, perm):
        base = np.array([[0.5, 1.5, 0.7, 2.5, 0.2, 1.1]])
        M1, N1 = diag.max_stats(_fake_batch(base))
        M2, N2 = diag.max_stats(_fake_batch(base[:, perm]))
        assert M1[0] == M2[0]
        assert N1[0] == N2[0]


class TestDefaultEpsilon:
    def test_extraneous_scale(self):
        assert diag.default_epsilon(1.0) == pytest.approx(0.1)
        assert diag.default_epsilon(5.0) == pytest.approx(0.5)

    def test_fallback(self):
        assert diag.default_epsilon(0.0) == pytest.approx(0.1)


class TestTailRate:
    def _maxima(self):
        rng = np.random.Generator(np.random.PCG64(6))
        out = []
        for n in (16, 32):
            states = rng.random((400, n)) + 0.05
            states[: 400 // (n // 8), -1] = math.sqrt(n)  # planted spikes
            out.append((n, diag.max_stats(_fake_batch(states, n=n))[0]))
        return out

    def test_requires_two_ns(self):
        with pytest.raises(ArgumentError):
            diag.tail_rate([self._maxima()[0]], lambda M: M >= 0, "LINEAR_N")

    def test_gamma_requires_gamma(self):
        with pytest.raises(ArgumentError):
            diag.tail_rate(self._maxima(), lambda M: M >= 0, "POWER_GAMMA")

    def test_estimates_nonpositive_and_ci_ordered(self):
        ests = diag.tail_rate(
            self._maxima(), lambda M: M >= 0.5, "LINEAR_N", event_label="big"
        )
        for e in ests:
            assert e.estimate <= 0.0
            assert e.ci[0] <= e.ci[1] <= 0.0

    def test_event_nesting_monotonicity(self):
        maxima = self._maxima()
        wide = diag.tail_rate(maxima, lambda M: M >= 0.2, "LINEAR_N")
        narrow = diag.tail_rate(maxima, lambda M: M >= 0.8, "LINEAR_N")
        for w, nrw in zip(wide, narrow):
            assert nrw.estimate <= w.estimate + 1e-12

    def test_censored_zero_count(self):
        ests = diag.tail_rate(
            self._maxima(), lambda M: M > 1e9, "LINEAR_N"
        )
        for e in ests:
            assert e.censored
            assert e.successes == 0
            assert e.estimate == pytest.approx(math.log(1.0 / e.trials) / e.n)

    def test_power_gamma_scaling(self):
        ests = diag.tail_rate(
            self._maxima(), lambda M: M >= 0.5, "POWER_GAMMA", gamma=0.5
        )
        for e in ests:
            assert e.gamma == 0.5
            assert e.estimate <= 0.0


class TestAppendixChecks:
    def test_exponential_closed_form_probability(self):
        # for exp(1) and phi_k = x^2 the interval probability has the
        # closed form e^{-sqrt((M-eps)n)} - e^{-sqrt((M+eps)n)}
        d = EXP1
        for M, n in [(1.0, 100), (0.5, 1000), (2.0, 100)]:
            lo = math.sqrt((M - 0.1) * n)
            hi = math.sqrt((M + 0.1) * n)
            expected = math.log(math.exp(-lo) - math.exp(-hi))
            got = quad.log_prob_interval(d, lo, hi)
            assert got == pytest.approx(expected, rel=1e-7)

    def test_report_for_exponential_small_levels(self):
        report = diag.appendix_checks(S12, EXP1, Ms=(0.5, 1.0))
        assert report.passed_decay_to_zero
        assert report.passed_gamma_bound
        assert report.passed_envelope
        assert report.rows

    def test_gamma_bound_finite_size_violation_is_reported(self):
        # at M=2, n=100 the closed form gives
        # log q = -sqrt(190) + log(1 - e^{-(sqrt(210)-sqrt(190))}) = -14.46321,
        # so (1/sqrt(n)) log q = -1.446321 < -sqrt(2): the asymptotic bound
        # genuinely fails at this finite n and the report must say so
        report = diag.appendix_checks(S12, EXP1, Ms=(2.0,), ns=(100, 1000, 10000))
        assert not report.passed_gamma_bound
        bad = [r for r in report.rows if r["n"] == 100]
        assert bad[0]["gamma_scaled"] == pytest.approx(-1.446321, abs=1e-6)
        assert bad[0]["gamma_scaled"] < bad[0]["gamma_bound"]

    def test_flag_consistent_with_rows(self):
        report = diag.appendix_checks(S12, EXP1)
        rows_ok = all(r["gamma_scaled"] >= r["gamma_bound"] for r in report.rows)
        assert report.passed_gamma_bound == rows_ok

    def test_halved_rate_reference(self):
        d = quad.tilted_density(S12, [0.5, 0.0])
        # coefficients (-0.5, 0): largest nonzero is c_1 < 0, still valid;
        # the bound holds at the larger n where the prefactor is negligible
        report = diag.appendix_checks(S12, d, Ms=(1.0,), ns=(1000, 10000))
        assert report.passed_gamma_bound

    def test_rejects_zero_tilt_coefficients(self):
        class Fake:
            lebesgue_coeffs = (0.0, 0.0)

        with pytest.raises(ArgumentError):
            diag.appendix_checks(S12, Fake())


class TestCSVWriters:
    def test_tail_rates_csv(self, tmp_path):
        rng = np.random.Generator(np.random.PCG64(7))
        maxima = [
            (n, diag.max_stats(_fake_batch(rng.random((50, n)) + 0.1, n=n))[0])
            for n in (16, 32)
        ]
        ests = diag.tail_rate(maxima, lambda M: M > 0.1, "LINEAR_N",
                              event_label="e")
        path = tmp_path / "t.csv"
        diag._write_csv(
            str(path),
            ["n", "delta", "event", "scaling", "estimate", "ci_lo", "ci_hi"],
            ([e.n, 0.1, e.event, e.scaling, e.estimate, *e.ci] for e in ests),
        )
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "n,delta,event,scaling,estimate,ci_lo,ci_hi"
        assert len(lines) == 3
        assert lines[1] == "16,0.1,e,LINEAR_N,%r,%r,%r" % (
            ests[0].estimate, *ests[0].ci)

    def test_summary_csv(self, tmp_path):
        rows = [[4, 0.1, 0.01, 0.5, 0.2]]
        path = tmp_path / "s.csv"
        diag._write_csv(str(path), ["n", "delta", "ks", "mean_M", "mean_N"], rows)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "n,delta,ks,mean_M,mean_N"
        assert lines[1].startswith("4,0.1,0.01")


class TestCSVWriter:
    def test_bytes_match_csv_writer_on_repr_cells(self, tmp_path):
        # every result table used to be written by csv.writer with floats
        # as repr strings; _write_csv must give the same bytes
        rng = np.random.Generator(np.random.PCG64(7))
        floats = [math.inf, -math.inf, math.nan, -0.0, 5e-324, 1e16, 1e-5, 1 / 3]
        floats += rng.standard_normal(600).tolist()
        floats += (rng.random(600) * 10.0 ** rng.integers(-300, 300, 600)).tolist()
        labels = ["BOUNDARY", "", "M>=0.2", "POWER_GAMMA(0.5)"]
        rows = [
            [i, labels[i % 4]] + floats[3 * i : 3 * i + 3]
            for i in range(len(floats) // 3)
        ]
        header = ["n", "event", "estimate", "ci_lo", "ci_hi"]
        got = tmp_path / "got.csv"
        diag._write_csv(str(got), header, iter(rows))
        want = tmp_path / "want.csv"
        with open(want, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            for row in rows:
                w.writerow([repr(v) if isinstance(v, float) else v for v in row])
        assert got.read_bytes() == want.read_bytes()
        assert got.read_bytes().count(b"\r\n") == len(rows) + 1


class _PositiveLastCoefficient:
    # tilted_density refuses such a tilt (it is outside the domain), so
    # this density is built by hand
    lebesgue_coeffs = (-1.0, 0.5)


@pytest.mark.parametrize("call, match", [
    (lambda: diag.tail_rate([(8, np.array([])), (16, np.array([]))],
                            lambda M: M >= 0, "LINEAR_N"), "zero recorded states"),
    (lambda: diag.appendix_checks(S12, _PositiveLastCoefficient()), "must be negative"),
], ids=["tail_rate_empty_batch", "appendix_positive_coefficient"])
def test_raised_error_paths(call, match):
    with pytest.raises(ArgumentError, match=match):
        call()
