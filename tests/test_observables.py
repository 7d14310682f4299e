import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from microshell import observables as obs
from microshell.errors import InvalidObservableSet


class TestPowerSet:
    def test_rejects_empty(self):
        with pytest.raises(InvalidObservableSet):
            obs.power_set([])

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidObservableSet):
            obs.power_set([0.0, 1.0])
        with pytest.raises(InvalidObservableSet):
            obs.power_set([-1.0, 2.0])
        with pytest.raises(InvalidObservableSet):
            obs.power_set([float("nan")])

    def test_rejects_non_increasing(self):
        with pytest.raises(InvalidObservableSet):
            obs.power_set([2.0, 1.0])
        with pytest.raises(InvalidObservableSet):
            obs.power_set([1.0, 1.0])
        with pytest.raises(InvalidObservableSet):
            obs.power_set([1.0, float("nan")])

    def test_evaluation(self):
        s = obs.power_set([1, 2])
        assert s.exponents == (1.0, 2.0)
        assert s.k == 2
        assert s.phi(3.0).tolist() == [3.0, 9.0]
        assert s.dphi(3.0).tolist() == [1.0, 6.0]

    def test_one_scalar_exponent_at_a_time_bit_for_bit(self):
        # numpy's square and sqrt fast paths apply only to a scalar
        # exponent: x[..., None] ** np.array(e) differs from x ** 2.0 and
        # x ** 0.5 on about 5 % of these points
        exps = (0.5, 1.0, 1.5, 2.0, 3.0)
        x = np.random.default_rng(3).lognormal(0.0, 1.0, size=(400, 250))
        s = obs.power_set(exps)
        phi, dphi = s.phi(x), s.dphi(x)
        for i, e in enumerate(exps):
            assert np.array_equal(phi[i], x ** e)
            assert np.array_equal(dphi[i], e * x ** (e - 1.0))

    def test_gamma_exponents(self):
        s = obs.power_set([1, 2, 3])
        assert s.gamma == pytest.approx((1 / 3, 2 / 3))
        s2 = obs.power_set([1, 2])
        assert s2.gamma == pytest.approx((0.5,))
        assert obs.power_set([2]).gamma is None

    def test_equality_by_exponents(self):
        assert obs.power_set([1, 2]) == obs.power_set([1.0, 2.0])
        assert obs.power_set([1, 2]) != obs.power_set([1, 3])
        assert hash(obs.power_set([1, 2])) == hash(obs.power_set([1, 2]))


class TestValidation:
    @pytest.mark.parametrize("exps", [[1, 2], [1, 2, 3], [2], [1, 1.5]])
    def test_power_families_pass(self, exps):
        report = obs.validate_assumptions(obs.power_set(exps))
        assert report.passed
        for name in ("C1", "C2", "C3", "C4"):
            assert report.per_condition[name].passed

    def test_k1_gap_condition_vacuous(self):
        report = obs.validate_assumptions(obs.power_set([2]))
        assert report.per_condition["C3"].note

    @pytest.mark.parametrize(
        "exps, kappa, M, C",
        [
            ([1, 2, 3], 1.5, 2.0 / 3.0, 6.0),
            ([1, 2], 2.0, 0.5, 4.0),
            ([0.5, 1.5], 3.0, 1.0, 4.0),
            ([2], None, 0.5, 4.0),
        ],
    )
    def test_closed_form_constants(self, exps, kappa, M, C):
        # kappa = min e_{i+1}/e_i, M = max |e_i - 1|/e_i and
        # C = 2 max max(e_i, 1/e_i), exactly
        per = obs.validate_assumptions(obs.power_set(exps)).per_condition
        assert per["C3"].constants.get("kappa") == kappa
        assert per["C4"].constants == {"M": M, "C": C}

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.3, max_value=1.5), min_size=1, max_size=3)
    )
    def test_random_power_families_validate(self, increments):
        exps = np.cumsum(np.asarray(increments) + 0.6)
        report = obs.validate_assumptions(obs.power_set(exps))
        assert report.passed
        if len(exps) >= 2:
            assert report.per_condition["C3"].constants["kappa"] > 1.0
        M, C = (report.per_condition["C4"].constants[c] for c in ("M", "C"))
        # C4 at x = 2, 1e3, 1e6: C^-1 phi^-M < phi' < C phi^M for phi > 1
        for e in exps:
            x = np.array([2.0, 1e3, 1e6]) ** (1.0 / e)
            phi, dphi = x ** e, e * x ** (e - 1.0)
            assert np.all((phi ** -M / C < dphi) & (dphi < C * phi ** M))
