"""End-to-end acceptance checks.

These tests exercise the whole pipeline at desk scale: closed-form phase
boundaries, classification verdicts, rate-function values, Legendre
duality, chain-vs-oracle agreement at n = 2, marginal convergence and
localization behaviour along an n-sweep, tail-rate scalings, interval
inequality grids, and byte-level determinism of the verification runner.

Two results of the paper are limits as n -> infinity, and the sizes
probed here do not reach them, so the tests check the finite-n form the
theory gives:

* ``test_interval_lower_bound_dominates_at_every_grid_point``: the bound
  log q / n^gamma >= p_m M^gamma is a lim inf.  The closed form misses it
  at (M, n) = (2, 100) (-1.44632 < -sqrt(2)), so per level M the test
  asserts that the scaled value rises along n, clears the bound at the
  largest n and is within 1e-4 of its limit -sqrt(M - eps) at n = 1e4.
* ``test_localized_order_parameters_at_largest_n``: the largest share
  M_n tends to a_k - g2 = 1 and the second largest N_n to 0, but at
  n = 512, delta = 0.05 the chains give about 0.83 and 0.15.  The test
  asserts that mean N_n falls strictly along the sweep, and that at
  n = 512 the surplus sits in the two largest coordinates:
  |mean(M_n + N_n) - 1| <= 0.1.
  ``test_chain_matches_rejection_oracle_at_n64`` compares the chain's
  finite-size values with exact rejection sampling at n = 64; with the
  chain's error from batch means it catches only gross errors of law.
"""

import json
import math

import numpy as np
import pytest

from microshell import cli
from microshell import diagnostics as diag
from microshell import dual_solver as dual
from microshell import observables as obs
from microshell import quadrature as quad
from microshell import rate_functions as rf
from microshell import sampler as smp

S12 = obs.power_set([1, 2])
S123 = obs.power_set([1, 2, 3])

NS = (64, 128, 256, 512)

# per-n chain protocol for the conditioned localized sweep: burn-in,
# thinning, retained states, number of independent seeds.  Burn-in and
# thinning grow with n because the spike coordinate relaxes slowly.
LOC_PROTOCOL = {
    64: (1_000_000, 2048, 2500, 3),
    128: (2_000_000, 4096, 2000, 3),
    256: (2_500_000, 6144, 1600, 3),
    512: (3_000_000, 8192, 1500, 4),
}

INT_PROTOCOL = {n: (200_000, 512, 2000, 3) for n in NS}


def _sweep(a, delta, protocol, reference, seed_base):
    out = {}
    for n, (burn, thin, states, seeds) in protocol.items():
        spec = smp.ShellSpec(set=S12, n=n, delta=delta, a=a)
        params = smp.ChainParams(burn_in=burn, thin=thin, n_states=states)
        batches = [
            smp.run_chain(spec, params, seed=seed_base + 10 * n + j,
                          reference=reference)
            for j in range(seeds)
        ]
        out[n] = smp.merge_batches(batches)
    return out


def _standard_error(values):
    return float(np.std(values, ddof=1) / math.sqrt(len(values)))


def _batch_means_error(values, batches):
    """Standard error of a chain average from the means of `batches` equal
    consecutive batches.  The thinned states of the localized sweep are
    strongly autocorrelated (lag-1 0.95-0.98 for M_n), so the plain
    per-state error is far too small.  Merged batches keep seed order, so
    with a multiple of the seed count no batch straddles two chains."""
    return _standard_error(np.reshape(values, (batches, -1)).mean(axis=1))


def _rejection_order_parameters(n, a, delta, rows, seed):
    """Exact (M_n, N_n) draws under the exp(1) product law conditioned on
    the shell for observables (x, x^2): i.i.d. exp(1) rows, kept when both
    empirical means lie within delta of a.  Rows are drawn in chunks of
    about 2^22 numbers (32 MB); the draws do not depend on the chunking."""
    chunk = max(1, 2**22 // n)
    rng = np.random.Generator(np.random.PCG64(seed))
    tops = []
    for start in range(0, rows, chunk):
        x = rng.standard_exponential((min(chunk, rows - start), n))
        x = x[np.abs(x.mean(axis=1) - a[0]) <= delta]
        sq = x * x
        sq = sq[np.abs(sq.mean(axis=1) - a[1]) <= delta]
        tops.append(np.sort(sq, axis=1)[:, :-3:-1] / n)
    top = np.concatenate(tops)
    return top[:, 0], top[:, 1]


@pytest.fixture(scope="session")
def localized_sweep():
    """a = (1, 3), delta = 0.05, chain conditioned on the exp(1) product."""
    ref = quad.tilted_density(S12, [0.0, 0.0])
    return _sweep((1.0, 3.0), 0.05, LOC_PROTOCOL, ref, seed_base=20240901)


@pytest.fixture(scope="session")
def interior_sweep():
    """a = (1, 1.5), delta = 0.05, chain conditioned on the solved
    product law matching both targets (the same protocol as the
    localized sweep: condition the limiting product measure per target)."""
    ref = dual.limiting_marginal(S12, (1.0, 1.5))
    return _sweep((1.0, 1.5), 0.05, INT_PROTOCOL, ref, seed_base=20240902)


class TestPhaseBoundary:
    @pytest.mark.parametrize("v1", [0.5, 1.0, 2.0, 4.0])
    def test_g2_closed_form(self, v1):
        assert abs(dual.g2(S12, (v1,)) - 2.0 * v1 * v1) <= 1e-6


class TestClassificationVerdicts:
    def test_extraneous(self):
        rep = dual.classify(S12, (1.0, 3.0))
        assert rep.regime == "EXTRANEOUS"

    def test_interior_with_negative_tilt(self):
        rep = dual.classify(S12, (1.0, 1.5))
        assert rep.regime == "INTERIOR_S1"
        assert rep.full.p[1] < 0
        assert max(abs(rep.full.achieved[i] - t)
                   for i, t in enumerate((1.0, 1.5))) <= 1e-8

    def test_inadmissible(self):
        assert dual.classify(S12, (1.0, 0.5)).regime == "INADMISSIBLE"

    def test_full_tilt_cubic(self):
        rep = dual.classify(S123, (1.0, 2.5, 7.0))
        assert rep.regime == "FULL_TILT_S2"
        assert rep.full.p[2] < 0
        assert max(abs(rep.full.achieved[i] - t)
                   for i, t in enumerate((1.0, 2.5, 7.0))) <= 1e-8


class TestRateFunctionValues:
    def test_zero_at_reference(self):
        assert abs(rf.rate_I(S12, (1.0, 2.0)).value) <= 1e-6

    def test_flat_above_boundary(self):
        a = rf.rate_I(S12, (1.0, 2.5)).value
        b = rf.rate_I(S12, (1.0, 3.5)).value
        assert abs(a - b) <= 1e-6

    def test_positive_in_interior(self):
        assert rf.rate_I(S12, (1.0, 1.5)).value > 1e-3

    def test_scaled_exponential_closed_form(self):
        assert abs(rf.rate_I(S12, (2.0, 8.0)).value
                   - (1.0 - math.log(2.0))) <= 1e-6


class TestLegendreDuality:
    def _random_tilts(self, k, count, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        tilts = []
        while len(tilts) < count:
            p = list(rng.uniform(-1.0, 0.8, size=k))
            p[-1] = float(rng.uniform(-2.0, -0.05))
            tilts.append(p)
        return tilts

    def test_twenty_random_interior_tilts(self):
        cases = [(S12, p) for p in self._random_tilts(2, 10, 101)]
        cases += [(S123, p) for p in self._random_tilts(3, 10, 102)]
        assert len(cases) == 20
        for oset, p in cases:
            v = quad.moments(oset, p)
            direct = float(np.dot(p, v)) - quad.log_partition(oset, p)
            ev = rf.rate_I(oset, v)
            assert abs(ev.value - direct) <= 1e-6
            assert max(abs(a - b) for a, b in zip(ev.maximizer_p, p)) <= 1e-4

    def test_gradient_matches_finite_differences(self):
        # Richardson consistency: the central-difference error at step h
        # must drop by about h^2 when h is halved
        p = [0.3, -0.4]
        grad = quad.moments(S12, p)
        for i in range(2):
            errs = []
            for h in (1e-3, 5e-4):
                hi = list(p)
                lo = list(p)
                hi[i] += h
                lo[i] -= h
                fd = (quad.log_partition(S12, hi)
                      - quad.log_partition(S12, lo)) / (2 * h)
                errs.append(abs(fd - grad[i]))
            assert errs[0] <= 1e-5
            assert errs[1] <= 0.3 * errs[0] + 1e-12


class TestSmallNOracle:
    def test_chain_matches_enumeration_at_n2(self):
        spec = smp.ShellSpec(set=S12, n=2, delta=0.15, a=(1.0, 1.6))
        table = smp.brute_force_conditional(spec)
        params = smp.ChainParams(burn_in=50000, thin=20, n_states=50000)
        batch = smp.merge_batches([
            smp.run_chain(spec, params, seed=s) for s in (31, 32)
        ])
        assert batch.states.shape[0] == 100000
        assert diag.ks_distance(batch.states.ravel(), table) <= 0.02


class TestMarginalConvergence:
    def test_localized_marginal_approaches_exponential(self, localized_sweep):
        ref = quad.tilted_density(S12, [0.0, 0.0])
        ks = [diag.ks_distance(localized_sweep[n].states.ravel(), ref)
              for n in NS]
        assert all(b < a for a, b in zip(ks, ks[1:])), ks
        assert ks[-1] <= 0.05

    def test_interior_marginal_approaches_solved_tilt(self, interior_sweep):
        ref = dual.limiting_marginal(S12, (1.0, 1.5))
        ks = [diag.ks_distance(interior_sweep[n].states.ravel(), ref)
              for n in NS]
        assert ks[-1] <= 0.05


class TestLocalizationOrderParameters:
    def test_localized_order_parameters_at_largest_n(self, localized_sweep):
        # M_n -> a_k - g2 = 1 and N_n -> 0 are limits that n = 512 does not
        # reach: a second spike costs about sqrt(n) in log-weight and gains
        # about log n in entropy, so N_n decays slowly.  What holds at these
        # n: N_n falls strictly (exact rejection sampling gives 0.422,
        # 0.332, 0.254 at n = 64, 128, 256), and the surplus sits in the
        # two largest coordinates rather than in the bulk.
        mean_N = [float(diag.max_stats(localized_sweep[n])[1].mean())
                  for n in NS]
        assert all(hi > lo for hi, lo in zip(mean_N, mean_N[1:])), mean_N
        M, N = diag.max_stats(localized_sweep[512])
        surplus = float(np.mean(M + N))
        assert abs(surplus - 1.0) <= 0.1, surplus

    def test_chain_matches_rejection_oracle_at_n64(self, localized_sweep):
        # exact i.i.d. draws from the conditioned law, sharing no code with
        # the chain; about 4.2e3 of 1e7 rows fall inside the shell.  The
        # chain's error comes from five batch means per seed.  This catches
        # only gross errors of law: the chain's error on M_n is ten times
        # the oracle's.
        seeds = LOC_PROTOCOL[64][3]
        exact = _rejection_order_parameters(
            64, (1.0, 3.0), 0.05, rows=10_000_000, seed=20240903
        )
        for chain, ex in zip(diag.max_stats(localized_sweep[64]), exact):
            se = math.hypot(_batch_means_error(chain, 5 * seeds),
                            _standard_error(ex))
            assert abs(chain.mean() - ex.mean()) <= 4.0 * se, (
                chain.mean(), ex.mean(), se)

    def test_delocalized_fraction_vanishes(self, interior_sweep):
        fracs = []
        for n in NS:
            M, _ = diag.max_stats(interior_sweep[n])
            fracs.append(float(np.mean(M > 0.1)))
        assert all(b < a + 1e-12 for a, b in zip(fracs, fracs[1:])), fracs
        assert fracs[-1] <= 0.01


class TestTailScalings:
    EPS = 0.3

    def _maxima(self, sweep):
        return [(n, diag.max_stats(sweep[n])[0]) for n in (128, 256, 512)]

    def test_upper_tail_linear_rate_persists(self, localized_sweep):
        ests = diag.tail_rate(
            self._maxima(localized_sweep),
            lambda M: M >= 1.0 + self.EPS,
            "LINEAR_N",
        )
        vals = [e.estimate for e in ests]
        assert all(v < 0 for v in vals), vals
        # non-shrinking magnitude: the final step keeps at least 60% of it
        assert abs(vals[-1]) >= 0.6 * abs(vals[-2]), vals

    def test_lower_tail_sqrt_rate_persists(self, localized_sweep):
        ests = diag.tail_rate(
            self._maxima(localized_sweep),
            lambda M: M <= 1.0 - self.EPS,
            "POWER_GAMMA",
            gamma=0.5,
        )
        vals = [e.estimate for e in ests]
        assert all(v < 0 for v in vals), vals
        assert abs(vals[-1]) >= 0.6 * abs(vals[-2]), vals

    def test_lower_tail_linear_rate_vanishes(self, localized_sweep):
        ests = diag.tail_rate(
            self._maxima(localized_sweep),
            lambda M: M <= 1.0 - self.EPS,
            "LINEAR_N",
        )
        vals = [e.estimate for e in ests]
        assert all(v < 0 for v in vals), vals
        mags = [abs(v) for v in vals]
        assert all(b < a for a, b in zip(mags, mags[1:])), vals
        assert mags[-1] <= 0.5 * mags[0], vals


class TestIntervalInequalities:
    def test_interval_lower_bound_dominates_at_every_grid_point(self):
        # log q / n^gamma >= p_m M^gamma is a lim inf bound, so it is checked
        # per level M in its finite-n form: the scaled value rises along n,
        # clears the bound at the largest n, and at n = 1e4 sits on its limit
        # p_m (M - eps)^gamma = -sqrt(M - eps) for the exp(1) reference.
        # At (M, n) = (2, 100) it is still below the bound (see
        # test_gamma_bound_finite_size_violation_is_reported).
        eps, ns = 0.1, (100, 1000, 10000)
        d = quad.tilted_density(S12, [0.0, 0.0])
        report = diag.appendix_checks(
            S12, d, Ms=(0.5, 1.0, 2.0), eps=eps, ns=ns
        )
        for M in (0.5, 1.0, 2.0):
            rows = [r for r in report.rows if r["M"] == M]
            assert [r["n"] for r in rows] == list(ns)
            scaled = [r["gamma_scaled"] for r in rows]
            assert all(b >= a for a, b in zip(scaled, scaled[1:])), rows
            assert scaled[-1] >= rows[-1]["gamma_bound"] - 1e-10, rows
            assert abs(scaled[-1] + math.sqrt(M - eps)) <= 1e-4, rows

    def test_linearly_scaled_log_probability_decays(self):
        d = quad.tilted_density(S12, [0.0, 0.0])
        report = diag.appendix_checks(
            S12, d, Ms=(0.5, 1.0, 2.0), eps=0.1, ns=(100, 1000, 10000)
        )
        assert report.passed_decay_to_zero


class TestDeterminism:
    def test_repeated_verify_runs_are_byte_identical(self, tmp_path):
        cfg = {
            "observables": {"exponents": [1, 2]},
            "targets": [1.0, 1.6],
            "n_list": [2],
            "delta_list": [0.15],
            "seed": 20240905,
        }
        path = tmp_path / "verify.json"
        path.write_text(json.dumps(cfg))
        outs = [str(tmp_path / d) for d in ("r1", "r2")]
        for out in outs:
            assert cli.main(["verify", "--config", str(path), "--out", out]) == 0
        for name in ("verify.json", "manifest.json"):
            b1 = (tmp_path / "r1" / name).read_bytes()
            b2 = (tmp_path / "r2" / name).read_bytes()
            assert b1 == b2
