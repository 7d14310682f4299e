import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import linprog

from microshell import dual_solver as dual
from microshell import observables as obs
from microshell import quadrature as quad
from microshell.errors import (
    ArgumentError,
    ClassificationInconclusive,
    Infeasible,
    NoFullTilt,
    SolverStall,
)

S12 = obs.power_set([1, 2])
S123 = obs.power_set([1, 2, 3])
S115 = obs.power_set([1, 1.5])
S2 = obs.power_set([2])
S1234 = obs.power_set([1, 2, 3, 4])

# POWERS[1, 2, 3, 4] prefixes that a level below level 4 refuses:
# v2 = v1^2 is level 2's floor, and v3 = 5 lies below level 3's
# floor v2^2 / v1 = 6.25
K4_INADMISSIBLE_PREFIXES = [(1.0, 1.0, 7.0, 30.0), (1.0, 2.5, 5.0, 30.0)]


def _no_solve(obs_set, p):
    raise AssertionError("a tilt was integrated")


def _lp_floor(exponents, prefix):
    """Least E[x^e3] over probability vectors on the atom 0 and a
    geometric grid, with E[x^e1] and E[x^e2] matched: a linear program,
    solved on a coarse grid and again on a fine grid spanning the coarse
    solution's positive atoms and their neighbours.  Each grid is laid out
    in its own unit, which keeps the program's entries within a few
    decades of 1: the coarse one in the Jensen scale v1^(1/e1), the fine
    one in the coarse solution's largest support atom.  When HiGHS reports
    numerical difficulties (status 4) on the coarse program, as it does
    with the floor atom 400 Jensen units out, the coarse grid is laid out
    again in the scale v2^(1/e2) of the second moment."""
    e1, e2, e3 = exponents
    tol = dict(primal_feasibility_tolerance=1e-10, dual_feasibility_tolerance=1e-10)

    def solve(grid, unit):
        atoms = np.concatenate([[0.0], grid])
        return linprog(
            atoms ** e3,
            A_eq=np.array([np.ones_like(atoms), atoms ** e1, atoms ** e2]),
            b_eq=[1.0, prefix[0] / unit ** e1, prefix[1] / unit ** e2],
            bounds=(0, None),
            method="highs",
            options=tol,
        )

    coarse = np.geomspace(1e-1, 1e3, 4001)
    for unit in (prefix[0] ** (1.0 / e1), prefix[1] ** (1.0 / e2)):
        lp = solve(coarse, unit)
        if lp.status != 4:
            break
    assert lp.status == 0, lp.message
    ratio = coarse[1] / coarse[0]
    support = unit * coarse[lp.x[1:] > 0]
    top = support.max()
    fine = np.geomspace(support.min() / (ratio * top), ratio, 4001)
    lp = solve(fine, top)
    assert lp.status == 0, lp.message
    return lp.fun * top ** e3


class TestReducedSolve:
    def test_exponential_fixed_point(self):
        # first moment 1 with zero second tilt is exp(1) itself
        sol = dual.solve_reduced(S12, (1.0,))
        assert sol.achieved[0] == pytest.approx(1.0, abs=1e-10)
        assert sol.achieved[1] == pytest.approx(2.0, abs=1e-8)
        assert abs(sol.p[0]) <= 1e-8
        assert sol.p[1] == 0.0

    def test_scaled_exponential(self):
        # mean 2 with zero second tilt: rate-1/2 exponential, E x^2 = 8
        sol = dual.solve_reduced(S12, (2.0,))
        assert sol.achieved[0] == pytest.approx(2.0, abs=1e-8)
        assert sol.achieved[1] == pytest.approx(8.0, abs=1e-7)

    def test_three_constraint_prefix(self):
        sol = dual.solve_reduced(S123, (1.0, 2.0))
        assert np.allclose(sol.achieved[:2], [1.0, 2.0], atol=1e-8)
        assert sol.achieved[2] == pytest.approx(6.0, abs=1e-6)
        assert sol.p[2] == 0.0

    def test_s2_prefix_infeasible(self):
        # second moment above twice the squared mean cannot be reached
        # with a nonpositive quadratic tilt
        with pytest.raises(Infeasible):
            dual.solve_reduced(S123, (1.0, 2.5))

    def test_prefix_below_its_floor_is_infeasible_at_once(self, monkeypatch):
        # level 2 refuses a_2 = 0.5 below its floor v1^2 = 1 before any solve
        monkeypatch.setattr(dual, "_stats", _no_solve)
        with pytest.raises(Infeasible, match=r"targets inadmissible: a_k at or below "
                                             r"the floor g1 = 1\.0"):
            dual.solve_reduced(S123, (1.0, 0.5))

    def test_s1_prefix_is_the_full_tilt_one_level_down(self):
        # (1, 1.5) is interior for POWERS[1, 2], so the reduced solve of
        # POWERS[1, 2, 3] is that full tilt with p_3 = 0
        sol = dual.solve_reduced(S123, (1.0, 1.5))
        full = dual.classify(S12, (1.0, 1.5)).full
        assert sol.p[2] == 0.0
        assert sol.p[:2] == full.p
        assert sol.achieved[:2] == full.achieved

    def test_k1_has_no_reduced_problem(self):
        with pytest.raises(ArgumentError):
            dual.solve_reduced(S2, ())


class TestFullSolve:
    def test_interior_two_constraints(self):
        sol = dual.solve_full(S12, (1.0, 1.5))
        assert np.allclose(sol.achieved, [1.0, 1.5], atol=1e-8)
        assert sol.p[1] < 0

    def test_no_full_tilt_in_extraneous_regime(self):
        with pytest.raises(NoFullTilt):
            dual.solve_full(S12, (1.0, 3.0))

    def test_three_constraints(self):
        sol = dual.solve_full(S123, (1.0, 2.5, 7.0))
        assert np.allclose(sol.achieved, [1.0, 2.5, 7.0], atol=1e-8)
        assert sol.p[2] < 0

    @pytest.mark.parametrize(
        "exponents, targets, reason",
        [
            ((1, 2), (1.0, 0.9), "at or below the floor g1"),
            ((1, 2, 3), (1.0, 2.5, 5.0), "at or below the floor g1"),
            ((1, 2, 4), (1.0, 1.2, 1.6), "at or below the floor g1"),
            # v_2 = v_1^2 is the Jensen floor of a k = 3 prefix
            ((1, 2, 3), (1.0, 1.0, 7.0), "prefix outside admissible set"),
            ((1, 2, 3, 4), K4_INADMISSIBLE_PREFIXES[0], "prefix outside admissible set"),
            ((1, 2, 3, 4), K4_INADMISSIBLE_PREFIXES[1], "prefix outside admissible set"),
        ],
        ids=["S12", "S123", "S124", "S123-prefix", "S1234-v2", "S1234-v3"],
    )
    def test_below_the_floor_is_infeasible_at_once(self, exponents, targets, reason):
        # classify's floor check, where the Newton loop used to stall
        with pytest.raises(Infeasible, match=reason):
            dual.solve_full(obs.power_set(exponents), targets)

    def test_failed_line_search_stalls_at_once(self, monkeypatch):
        # H rises by 1000 at every evaluation, so no trial step decreases
        # the objective: one start and 60 halvings, then SolverStall
        calls = []
        stats = dual._stats

        def rising(obs_set, p):
            calls.append(p)
            h, mom, cov = stats(obs_set, p)
            return h + 1e3 * len(calls), mom, cov

        monkeypatch.setattr(dual, "_stats", rising)
        with pytest.raises(SolverStall, match="line search found no decrease"):
            dual.solve_full(S12, (1.0, 1.5))
        assert len(calls) <= 62

    def test_k1(self):
        sol = dual.solve_full(S2, (2.0,))
        assert sol.achieved[0] == pytest.approx(2.0, abs=1e-7)
        # half-Gaussian with second moment 2 is the p = 3/4 tilt
        assert sol.p[0] == pytest.approx(0.75, abs=1e-7)


class TestPhaseFunctions:
    @pytest.mark.parametrize("v1", [0.5, 1.0, 2.0, 4.0])
    def test_g2_is_twice_square(self, v1):
        assert dual.g2(S12, (v1,)) == pytest.approx(2.0 * v1 * v1, abs=1e-6)

    def test_g2_three_constraints(self):
        assert dual.g2(S123, (1.0, 2.0)) == pytest.approx(6.0, abs=1e-6)

    def test_g1_power_pair(self):
        # floor of the second moment given the mean: v1^(e2/e1)
        assert dual.g1(S12, (1.5,)) == pytest.approx(2.25, rel=1e-9)
        assert dual.g1(S12, (1.0,)) == pytest.approx(1.0, rel=1e-9)

    def test_g1_cubic_family(self):
        # POWERS[1,2,3]: floor of the third moment is v2^2 / v1
        assert dual.g1(S123, (1.0, 2.0)) == pytest.approx(4.0, rel=1e-9)

    def test_g1_single_constraint_is_phi_at_zero_plus(self):
        # k = 1: the floor is phi_1 at 1e-12, what classify reports
        s = obs.power_set([2])
        assert dual.g1(s, ()) == 1e-24
        assert dual.classify(s, (2.0,)).g1 == 1e-24

    def test_g1_fractional_pair_numeric(self):
        s = obs.power_set([1, 1.5])
        assert dual.g1(s, (2.0,)) == pytest.approx(2.0 ** 1.5, rel=1e-3)

    @pytest.mark.parametrize(
        "exponents, prefix",
        [([1, 2, 3, 4], (1.0, 2.5, 7.0)), ([0.5, 1, 2, 2.5], (1.0, 1.5, 4.0))],
    )
    def test_g1_without_closed_form_raises(self, exponents, prefix):
        s = obs.power_set(exponents)
        with pytest.raises(ArgumentError):
            dual.g1(s, prefix)

    @settings(max_examples=25, deadline=None)
    @given(
        st.floats(min_value=0.5, max_value=2.0),
        st.floats(min_value=0.25, max_value=2.0),
        st.floats(min_value=0.25, max_value=3.0),
        st.floats(min_value=0.5, max_value=2.0),
        st.floats(min_value=0.05, max_value=0.95),
    )
    # exponents (1, 2, 3), (1, 2, 4), (1, 2, 2.5), (0.5, 1.5, 2), (1, 1.5, 4)
    @example(1.0, 1.0, 1.0, 1.0, 0.8)
    @example(1.0, 1.0, 2.0, 1.0, 0.8)
    @example(1.0, 1.0, 0.5, 1.0, 0.8)
    @example(0.5, 1.0, 0.5, 1.0, 0.8)
    @example(1.0, 0.5, 2.5, 1.0, 0.8)
    # a floor atom at 388 Jensen units, where the program in those units
    # made HiGHS report numerical difficulties
    @example(0.5, 1.75, 1.0, 1.0, 0.05078125)
    # a floor atom at 400 Jensen units, where the coarse program in those
    # units made HiGHS report numerical difficulties
    @example(0.5, 1.868007660464631, 2.987063605154263, 1.0, 0.05)
    def test_g1_k3_matches_linear_program(self, e1, gap2, gap3, v1, w):
        # v2 = v1^(e2/e1) w^(-gap2/e1) lies above the prefix's Jensen
        # floor for every w < 1, so the prefix is admissible
        e2, e3 = e1 + gap2, e1 + gap2 + gap3
        v2 = v1 ** (e2 / e1) / w ** (gap2 / e1)
        g1 = dual.g1(obs.power_set([e1, e2, e3]), (v1, v2))
        assert g1 == pytest.approx(_lp_floor((e1, e2, e3), (v1, v2)), rel=1e-8)

    def test_g1_below_g2(self):
        v1 = 1.3
        assert dual.g1(S12, (v1,)) < dual.g2(S12, (v1,))

    @settings(max_examples=20, deadline=None)
    @given(
        st.floats(min_value=0.5, max_value=2.5),
        st.floats(min_value=0.1, max_value=3.0),
        st.floats(min_value=0.25, max_value=4.0),
    )
    def test_g2_power_pair_closed_form(self, e1, gap, v1):
        # the reduced law of (x^e1, x^e2) is generalized gamma:
        # g2 = Gamma((e2+1)/e1) / Gamma(1/e1) (e1 v1)^(e2/e1)
        e2 = e1 + gap
        expected = math.exp(
            math.lgamma((e2 + 1.0) / e1) - math.lgamma(1.0 / e1)
            + (e2 / e1) * math.log(e1 * v1)
        )
        assert dual.g2(obs.power_set([e1, e2]), (v1,)) == pytest.approx(
            expected, rel=1e-6
        )


class TestClassify:
    def test_extraneous(self):
        rep = dual.classify(S12, (1.0, 3.0))
        assert rep.regime == "EXTRANEOUS"
        assert rep.g2 == pytest.approx(2.0, abs=1e-6)

    def test_interior(self):
        rep = dual.classify(S12, (1.0, 1.5))
        assert rep.regime == "INTERIOR_S1"
        assert rep.full.p[1] < 0
        assert np.allclose(rep.full.achieved, [1.0, 1.5], atol=1e-8)

    def test_inadmissible(self):
        rep = dual.classify(S12, (1.0, 0.5))
        assert rep.regime == "INADMISSIBLE"

    def test_full_tilt_s2(self):
        rep = dual.classify(S123, (1.0, 2.5, 7.0))
        assert rep.regime == "FULL_TILT_S2"
        assert rep.full.p[2] < 0
        assert np.allclose(rep.full.achieved, [1.0, 2.5, 7.0], atol=1e-8)

    def test_boundary_value_is_extraneous(self):
        rep = dual.classify(S12, (1.0, 2.0))
        assert rep.regime == "EXTRANEOUS"

    @pytest.mark.parametrize("targets", [(1.0, 2.0), (2.0, 8.0)])
    def test_exact_tie_with_g2_is_extraneous(self, targets):
        # a_k = g2 = 2 v1^2 exactly; the computed g2 may land a few ulps
        # on either side of it, and the tie goes to the flat region
        rep = dual.classify(S12, targets)
        assert rep.regime == "EXTRANEOUS"
        assert rep.g2 == pytest.approx(targets[1], rel=1e-12)

    def test_just_below_g2_without_interior_tilt_is_extraneous(self):
        # a_k a relative 3e-9 below g2 = 8: the full solve drifts onto
        # p_k = 0, and the reduced solution is the answer
        rep = dual.classify(S12, (2.0, 8.0 * (1.0 - 3e-9)))
        assert rep.regime == "EXTRANEOUS"
        assert rep.notes
        assert rep.reduced.p[1] == 0.0
        assert rep.g2 == pytest.approx(8.0, rel=1e-12)

    def test_full_solve_stall_is_inconclusive(self, monkeypatch):
        def stall(*args, **kwargs):
            raise SolverStall("no convergence", best="partial")

        monkeypatch.setattr(dual, "solve_full", stall)
        with pytest.raises(ClassificationInconclusive) as info:
            dual.classify(S12, (1.0, 1.5))
        assert info.value.full == "partial"
        assert info.value.reduced.achieved[1] == pytest.approx(2.0, abs=1e-8)

    def test_stall_below_the_top_level_is_inconclusive(self):
        # the prefix lies a relative 3.1e-4 above its Jensen floor v1^2, and
        # level 2's full solve, which gives the reduced solution, stalls
        targets = (1.9830911461036826, 3.933874701779754, 7.8134120713661614)
        with pytest.raises(ClassificationInconclusive):
            dual.classify(S123, targets)

    def test_stall_carries_the_last_iterate(self):
        # the same stall: the level-2 Newton loop reaches its cap, and its
        # last iterate rides on SolverStall.best into the verdict's full
        targets = (1.9830911461036826, 3.933874701779754, 7.8134120713661614)
        with pytest.raises(ClassificationInconclusive) as info:
            dual.classify(S123, targets)
        best = info.value.full
        assert best is info.value.__cause__.best
        assert isinstance(best, dual.DualSolution)
        assert best.iterations == dual._MAX_ITER
        assert best.p[2] == 0.0 and best.p[1] < 0.0
        assert best.residual == pytest.approx(
            max(abs(best.achieved[i] - targets[i]) for i in range(2)), rel=1e-15)
        assert best.residual > dual._MOMENT_TOL
        assert info.value.reduced.achieved[0] == pytest.approx(targets[0], abs=1e-8)

    @pytest.mark.parametrize("targets", K4_INADMISSIBLE_PREFIXES, ids=["v2", "v3"])
    def test_k4_prefix_below_a_lower_floor_is_inadmissible_at_once(
        self, monkeypatch, targets
    ):
        monkeypatch.setattr(dual, "_stats", _no_solve)
        rep = dual.classify(S1234, targets)
        assert rep.regime == "INADMISSIBLE"
        assert rep.notes == ("prefix outside admissible set",)

    def test_newton_trial_through_narrow_tall_peak(self):
        # the full solve's line search tries a tilt whose log-weight
        # peaks far inside one step of the quadrature's bracket scan
        targets = (0.7083823575678869, 1.4257909301132443, 3.2501289917012626)
        rep = dual.classify(S123, targets)
        assert rep.regime == "FULL_TILT_S2"
        assert np.allclose(rep.full.achieved, targets, atol=1e-8)

    def test_k3_floor_without_reduced_solve(self):
        # POWERS[1, 2, 4] at prefix (1, 1.2): g1 = 1.2^3 = 1.728
        s = obs.power_set([1, 2, 4])
        rep = dual.classify(s, (1.0, 1.2, 1.6))
        assert rep.regime == "INADMISSIBLE"
        assert rep.g1 == pytest.approx(1.728, rel=1e-15)
        assert rep.reduced is None
        rep = dual.classify(s, (1.0, 1.2, 1.8))
        assert rep.regime == "INTERIOR_S1"
        assert np.allclose(rep.full.achieved, [1.0, 1.2, 1.8], atol=1e-8)

    def test_k3_prefix_below_its_jensen_floor_is_inadmissible(self):
        # v2 <= v1^(e2/e1) = 1.5^2 for POWERS[1, 2, 4]
        rep = dual.classify(obs.power_set([1, 2, 4]), (1.5, 2.25, 100.0))
        assert rep.regime == "INADMISSIBLE"
        assert rep.notes == ("prefix outside admissible set",)

    def test_k1_always_binds(self):
        rep = dual.classify(S2, (2.0,))
        assert rep.regime == "FULL_TILT_S2"


class TestLimitingMarginal:
    def test_extraneous_marginal_is_reduced_tilt(self):
        d = dual.limiting_marginal(S12, (1.0, 3.0))
        m = quad.moments(S12, list(d.p))
        assert m[0] == pytest.approx(1.0, abs=1e-8)
        assert m[1] == pytest.approx(2.0, abs=1e-7)

    def test_interior_marginal_matches_all_targets(self):
        d = dual.limiting_marginal(S12, (1.0, 1.5))
        m = quad.moments(S12, list(d.p))
        assert np.allclose(m, [1.0, 1.5], atol=1e-8)

    def test_inadmissible_has_no_marginal(self):
        with pytest.raises(Infeasible):
            dual.limiting_marginal(S12, (1.0, 0.5))


class TestPhaseReportLimit:
    def test_extraneous_surplus_is_a_float_beyond_g2(self):
        report = dual.classify(S12, (1.0, 3.0))
        assert report.regime == "EXTRANEOUS"
        assert type(report.surplus) is float
        assert report.surplus == 3.0 - report.g2
        assert report.surplus == pytest.approx(1.0, abs=1e-8)  # g2 = 2 for exp(1)
        assert report.solution is report.reduced

    def test_interior_has_no_surplus(self):
        report = dual.classify(S12, (1.0, 1.5))
        assert report.regime == "INTERIOR_S1"
        assert report.surplus == 0.0
        assert report.solution is report.full

    def test_inadmissible_has_no_solution(self):
        reduced = dual.solve_reduced(S12, (1.0,))
        report = dual.PhaseReport(regime="INADMISSIBLE", reduced=reduced)
        assert report.solution is None
        assert dual.classify(S12, (1.0, 0.5)).solution is None


@pytest.mark.parametrize("fn, oset", [
    (dual.classify, S12),
    (dual.solve_full, S12),
    (dual.solve_reduced, S123),
    (dual.g1, S123),
], ids=["classify", "solve_full", "solve_reduced", "g1"])
@pytest.mark.parametrize("targets", [
    (1.0, math.nan), (1.0, math.inf), (-math.inf, 1.0), (1.0, 2.0, 3.0), (1.0,),
], ids=["nan", "inf", "-inf", "too_long", "too_short"])
def test_refuses_non_finite_or_misshapen_targets(fn, oset, targets):
    with pytest.raises(ArgumentError, match="need 2 targets, all positive and finite"):
        fn(oset, targets)
