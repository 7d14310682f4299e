import json

import numpy as np
import pytest

from microshell import diagnostics as diag
from microshell import dual_solver as dual
from microshell import observables as obs
from microshell import quadrature as quad
from microshell import sampler as smp
from microshell.errors import ArgumentError, EmptyShell, FeasibilityError, MixingFailure

S12 = obs.power_set([1, 2])
S123 = obs.power_set([1, 2, 3])
S2 = obs.power_set([2])


def spec12(n=64, delta=0.1, a=(1.0, 1.6)):
    return smp.ShellSpec(set=S12, n=n, delta=delta, a=a)


class TestShellSpec:
    def test_rejects_bad_dimensions(self):
        with pytest.raises(ArgumentError):
            smp.ShellSpec(set=S12, n=0, delta=0.1, a=(1.0, 2.0))
        with pytest.raises(ArgumentError):
            smp.ShellSpec(set=S12, n=4, delta=-0.1, a=(1.0, 2.0))
        with pytest.raises(ArgumentError):
            smp.ShellSpec(set=S12, n=4, delta=0.1, a=(1.0,))

    def test_residual_definition(self):
        spec = spec12(n=2, delta=0.5, a=(1.5, 2.5))
        x = np.array([1.0, 2.0])
        # means: (1.5, 2.5) exactly
        assert smp.shell_residual(spec, x) == pytest.approx(0.0, abs=1e-14)


class TestFeasiblePoint:
    @pytest.mark.parametrize(
        "oset,a,n",
        [
            (S12, (1.0, 3.0), 16),
            (S12, (1.0, 3.0), 512),
            (S12, (1.0, 1.5), 64),
            (S123, (1.0, 2.5, 7.0), 64),
            (S2, (2.0,), 32),
        ],
    )
    def test_lands_inside_shell(self, oset, a, n):
        spec = smp.ShellSpec(set=oset, n=n, delta=0.05, a=a)
        x = smp.feasible_point(spec)
        assert x.shape == (n,)
        assert np.all(x > 0)
        assert smp.shell_residual(spec, x) <= 0.05

    def test_inadmissible_raises(self):
        spec = smp.ShellSpec(set=S12, n=16, delta=0.05, a=(1.0, 0.5))
        with pytest.raises(FeasibilityError):
            smp.feasible_point(spec)


class TestRunChain:
    def test_states_stay_on_shell(self):
        spec = spec12()
        params = smp.ChainParams(burn_in=2000, thin=10, n_states=200)
        batch = smp.run_chain(spec, params, seed=3)
        assert batch.states.shape == (200, 64)
        assert np.all(batch.states > 0)
        assert np.max(batch.shell_residuals) <= spec.delta + 1e-12
        # recomputing residuals from scratch agrees with the running sums
        worst = max(smp.shell_residual(spec, s) for s in batch.states[::50])
        assert worst <= spec.delta + 1e-9

    def test_collapsed_acceptance_raises_mixing_failure(self):
        # no burn-in, so the step never adapts down from 1e6: almost every
        # Gaussian move leaves the thin shell, and no swap is proposed
        spec = spec12(n=8, delta=0.05, a=(1.0, 2.5))
        params = smp.ChainParams(
            burn_in=0, thin=1, n_states=2000, step_scale=1e6, swap_prob=0.0
        )
        with pytest.raises(MixingFailure, match="acceptance rate") as info:
            smp.run_chain(spec, params, seed=1)
        assert set(info.value.diagnostics) == {"step", "n", "delta"}
        assert info.value.diagnostics["n"] == 8
        assert info.value.diagnostics["delta"] == 0.05

    def test_deterministic_given_seed(self):
        spec = spec12(n=16)
        params = smp.ChainParams(burn_in=1000, thin=5, n_states=100)
        b1 = smp.run_chain(spec, params, seed=11)
        b2 = smp.run_chain(spec, params, seed=11)
        assert np.array_equal(b1.states, b2.states)
        assert b1.acceptance_rate == b2.acceptance_rate

    def test_different_seeds_differ(self):
        spec = spec12(n=16)
        params = smp.ChainParams(burn_in=1000, thin=5, n_states=100)
        b1 = smp.run_chain(spec, params, seed=11)
        b2 = smp.run_chain(spec, params, seed=12)
        assert not np.array_equal(b1.states, b2.states)

    def test_uniform_target_matches_oracle_n2(self):
        spec = spec12(n=2, delta=0.15)
        table = smp.brute_force_conditional(spec)
        params = smp.ChainParams(burn_in=20000, thin=20, n_states=20000)
        batch = smp.run_chain(spec, params, seed=7)
        ks = diag.ks_distance(batch.states.ravel(), table)
        assert ks <= 0.03

    def test_conditioned_target_matches_weighted_oracle_n2(self):
        # oracle for the product-reference target: reweight the uniform
        # grid cells by the reference density at both coordinates
        spec = spec12(n=2, delta=0.15)
        ref = quad.tilted_density(S12, [0.0, 0.0])
        grid = 2000
        caps = [
            smp._increasing_root(ob.eval, 2 * (ai + spec.delta))
            for ob, ai in zip(S12.items, spec.a)
        ]
        edges = np.geomspace(1e-3 * min(caps), 1.0001 * min(caps), grid + 1)
        cent = np.sqrt(edges[:-1] * edges[1:])
        w = np.diff(edges)
        vals = np.array([ob.eval(cent) for ob in S12.items])
        inside = np.ones((grid, grid), dtype=bool)
        for i in range(2):
            s = vals[i][:, None] + vals[i][None, :]
            inside &= (s >= 2 * (spec.a[i] - spec.delta)) & (
                s <= 2 * (spec.a[i] + spec.delta)
            )
        mass = (inside @ (np.exp(-cent) * w)) * np.exp(-cent)
        pdf = mass / (mass @ w)
        cdf = np.minimum(np.cumsum(pdf * w), 1.0)
        table = smp.DensityTable(x=cent, pdf=pdf, cdf=cdf, widths=w)
        params = smp.ChainParams(burn_in=30000, thin=30, n_states=15000)
        batch = smp.run_chain(spec, params, seed=7, reference=ref)
        assert diag.ks_distance(batch.states.ravel(), table) <= 0.03
        # and it is visibly different from the uniform-target law
        uni = smp.brute_force_conditional(spec)
        assert diag.ks_distance(batch.states.ravel(), uni) >= 0.02

    def test_reference_recorded(self):
        spec = spec12(n=8)
        ref = quad.tilted_density(S12, [0.0, 0.0])
        params = smp.ChainParams(burn_in=500, thin=5, n_states=20)
        batch = smp.run_chain(spec, params, seed=1, reference=ref)
        assert batch.reference_p == (0.0, 0.0)


class TestMergeAndSave:
    def test_merge(self):
        spec = spec12(n=8)
        params = smp.ChainParams(burn_in=500, thin=5, n_states=50)
        b1 = smp.run_chain(spec, params, seed=1)
        b2 = smp.run_chain(spec, params, seed=2)
        merged = smp.merge_batches([b1, b2])
        assert merged.states.shape == (100, 8)
        assert merged.shell_residuals.shape == (100,)

    def test_merge_empty_raises(self):
        with pytest.raises(ArgumentError):
            smp.merge_batches([])

    def test_save_csv_and_sidecar(self, tmp_path):
        spec = spec12(n=4)
        params = smp.ChainParams(burn_in=500, thin=5, n_states=10)
        batch = smp.run_chain(spec, params, seed=5)
        csv_path = tmp_path / "batch.csv"
        side_path = tmp_path / "batch.json"
        smp.save_batch_csv(batch, str(csv_path), str(side_path))
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0].split(",") == [
            "state", "x1", "x2", "x3", "x4", "S1", "S2", "max_stat",
        ]
        assert len(lines) == 11
        side = json.loads(side_path.read_text())
        assert side["seed"] == 5
        assert side["n"] == 4


class TestSampleTilted:
    def test_law_of_large_numbers(self):
        d = quad.tilted_density(S12, [0.0, 0.0])
        draws = smp.sample_tilted(d, n=10, count=2000, seed=9)
        assert draws.shape == (2000, 10)
        assert draws.mean() == pytest.approx(1.0, abs=0.02)
        assert (draws ** 2).mean() == pytest.approx(2.0, abs=0.1)

    def test_deterministic(self):
        d = quad.tilted_density(S12, [0.0, 0.0])
        a = smp.sample_tilted(d, n=3, count=5, seed=4)
        b = smp.sample_tilted(d, n=3, count=5, seed=4)
        assert np.array_equal(a, b)


class TestBruteForce:
    def test_density_normalizes(self):
        table = smp.brute_force_conditional(spec12(n=2, delta=0.15))
        total = float(np.sum(table.pdf * table.widths))
        assert total == pytest.approx(1.0, rel=1e-9)
        assert table.cdf[-1] == pytest.approx(1.0, rel=1e-9)

    def test_n3(self):
        spec = smp.ShellSpec(set=S12, n=3, delta=0.15, a=(1.0, 1.6))
        table = smp.brute_force_conditional(spec)
        total = float(np.sum(table.pdf * table.widths))
        assert total == pytest.approx(1.0, rel=1e-9)

    def test_rejects_large_n(self):
        with pytest.raises(ArgumentError):
            smp.brute_force_conditional(spec12(n=4))

    def test_empty_shell_raises(self):
        spec = smp.ShellSpec(set=S123, n=2, delta=0.2, a=(1.0, 2.5, 7.0))
        with pytest.raises(EmptyShell):
            smp.brute_force_conditional(spec)

    def test_symmetric_marginal_mean(self):
        # coordinate marginal of the uniform law on the shell has mean
        # close to a_1 by exchangeability
        table = smp.brute_force_conditional(spec12(n=2, delta=0.05))
        mean = float(np.sum(table.x * table.pdf * table.widths))
        assert mean == pytest.approx(1.0, abs=0.06)
