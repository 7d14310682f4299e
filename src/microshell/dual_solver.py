"""Maximum-entropy dual solves, phase functions and regime classification.

The dual problem minimizes the strictly convex map p |-> H(p) - p.v over
the lexicographic domain of H.  A damped Newton iteration (covariance as
Hessian, Armijo backtracking with factor 0.5) matches moments.  The
trailing free coordinate must stay strictly below its bound; it is
substituted as p_m = bound - e^u, and every Newton step is capped at 5 in
the substituted variables.

Regimes, decided by classify alone (the rate functions read their
values off its report):
  EXTRANEOUS   - the reduced problem (last tilt zero) matches the first
                 k-1 moments and the target a_k is at least the reduced
                 k-th moment g2 (or below it by less than the full solve
                 resolves, so that its tilt is pinned at p_k = 0); the last
                 constraint does not tilt the limit marginal and its
                 surplus localizes.
  INTERIOR_S1  - a_k below g2; a full tilt with p_k < 0 matches all k.
  FULL_TILT_S2 - the reduced problem is infeasible (or k = 1) but a full
                 tilt exists.
  INADMISSIBLE - some v_j at or below the floor g1 of v_1 ... v_{j-1}
                 (known for j <= 3), or no tilt of any kind.
classify works level by level: on the face p_m = 0 the problem of the
first m constraints is that of the first m - 1, so the reduced solution
at level m is the solution of level m - 1's report.
ClassificationInconclusive is raised only when a solve stalls.  The report's
solution and surplus give the limit law.  Targets must be positive and finite.
"""

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import quadrature as quad
from .errors import (
    ArgumentError,
    ClassificationInconclusive,
    Infeasible,
    NoFullTilt,
    SolverStall,
)

__all__ = [
    "DualSolution",
    "PhaseReport",
    "solve_reduced",
    "solve_full",
    "g1",
    "g2",
    "classify",
    "limiting_marginal",
]

_MOMENT_TOL = 1e-8
_MAX_ITER = 200
_MAX_STEP = 5.0


@dataclass(frozen=True)
class DualSolution:
    """A solved tilt with its achieved moments."""

    p: tuple
    achieved: tuple
    log_partition_value: float
    iterations: int
    residual: float


@dataclass(frozen=True)
class PhaseReport:
    """The regime of a target vector.  surplus is the share a_k - g2 that one
    coordinate carries when a_k is at or above g2, and 0 otherwise."""

    regime: str
    g1: Optional[float] = None
    g2: Optional[float] = None
    reduced: Optional[DualSolution] = None
    full: Optional[DualSolution] = None
    notes: tuple = ()
    surplus: float = 0.0

    @property
    def solution(self):
        """The limit marginal's tilt: reduced if EXTRANEOUS, else full (None if
        INADMISSIBLE)."""
        if self.regime == "INADMISSIBLE":
            return None
        return self.reduced if self.regime == "EXTRANEOUS" else self.full


def _stats(obs_set, p):
    """H(p), the k moments and the k-by-k covariance from one
    tilt-statistics pass."""
    c = quad.lebesgue_coefficients(obs_set, p)
    log_z, mom, cov = quad._tilt_stats(obs_set, c, obs_set.k)
    return log_z - quad._log_base_norm(obs_set), mom, cov


def _checked_targets(targets, size):
    targets = np.asarray(targets, dtype=float)
    if targets.shape != (size,) or not np.all(np.isfinite(targets) & (targets > 0)):
        raise ArgumentError("need %d targets, all positive and finite" % size)
    return targets


def _above_g2(a_k, g2v):
    """a_k >= g2 up to 1e-9 (1 + |a_k|), so that quadrature noise in g2
    cannot flip a target that sits exactly on the phase boundary."""
    return a_k >= g2v - 1e-9 * (1.0 + abs(a_k))


def _match_prefix(obs_set, targets_m):
    """Match the first m moments with tilt (p_1, ..., p_m, 0, ..., 0).

    The trailing free coordinate p_m must stay strictly below its bound
    (0 for m >= 2, 1 for m == 1, reflecting the reference weight on
    phi_1).  It is optimized through the substitution
    p_m = bound - exp(u), which makes the bound unreachable without
    constraining the step of the remaining coordinates; damped Newton
    with the chain-rule Hessian and Armijo backtracking runs in the
    substituted variables.  Raises NoFullTilt when p_m is pinned at the
    bound with its moment still short of the target (the m-th target
    exceeds every m-th moment reachable on this face), Infeasible when
    the iterate diverges (the target prefix is unreachable by any tilt),
    and SolverStall when the Armijo search finds no decrease or the
    iteration cap is reached.  Returns the tilt, the iteration count and
    the tilt's _stats.
    """
    k = obs_set.k
    m = len(targets_m)
    targets_m = np.asarray(targets_m, dtype=float)
    bound = 0.0 if m >= 2 else 1.0
    u = np.zeros(m)  # u[:m-1] = p[:m-1]; u[m-1] = log(bound - p_m)
    u[m - 1] = math.log(1e-2) if m >= 2 else 0.0

    def to_p(uvec):
        p = np.zeros(k)
        p[: m - 1] = uvec[: m - 1]
        p[m - 1] = bound - math.exp(uvec[m - 1])
        return p

    p = to_p(u)
    stats = _stats(obs_set, p)
    f_cur = stats[0] - float(np.dot(p[:m], targets_m))
    for it in range(1, _MAX_ITER + 1):
        _, mom, cov = stats
        grad = mom[:m] - targets_m
        if float(np.max(np.abs(grad))) <= _MOMENT_TOL:
            return p, it, stats
        # chain rule: dp_m/du_m = -e^u
        dpdu = -math.exp(u[m - 1])
        grad_u = grad.copy()
        grad_u[m - 1] *= dpdu
        hess = cov[:m, :m].copy()
        hess[m - 1, :] *= dpdu
        hess[:, m - 1] *= dpdu
        hess[m - 1, m - 1] += grad[m - 1] * dpdu
        # Levenberg damping until the solve gives a descent direction
        lam = 0.0
        for _ in range(30):
            try:
                d = np.linalg.solve(hess + lam * np.eye(m), -grad_u)
            except np.linalg.LinAlgError:
                d = None
            if d is not None and float(np.dot(grad_u, d)) < 0:
                break
            lam = max(2.0 * lam, 1e-8 * max(1.0, float(np.max(np.abs(hess)))))
        else:
            d = -grad_u
        dmax = float(np.max(np.abs(d)))
        if dmax > _MAX_STEP:
            d *= _MAX_STEP / dmax
        gTd = float(np.dot(grad_u, d))
        alpha = 1.0
        for _ in range(60):
            trial_u = u + alpha * d
            trial_p = to_p(trial_u)
            trial_stats = _stats(obs_set, trial_p)
            f_new = trial_stats[0] - float(np.dot(trial_p[:m], targets_m))
            if f_new <= f_cur + 1e-4 * alpha * gTd + 1e-14:
                break
            alpha *= 0.5
        else:
            raise SolverStall("line search found no decrease at iteration %d" % it)
        u, p, f_cur, stats = trial_u, trial_p, f_new, trial_stats
        if d[m - 1] < 0 and mom[m - 1] < targets_m[m - 1] and bound - p[m - 1] < 1e-9:
            raise NoFullTilt("no interior tilt matches all moments (extraneous regime): p_%d "
                             "pinned at %g with moment %g below target %g"
                             % (m, p[m - 1], mom[m - 1], targets_m[m - 1]))
        if float(np.max(np.abs(p))) > 1e7 or u[m - 1] > 50.0:
            raise Infeasible("targets unreachable by any tilt: iterate diverged at %s"
                             % (p.tolist(),))
    raise SolverStall("no convergence in %d iterations" % _MAX_ITER)


def _full_solution(obs_set, targets):
    """The DualSolution of _match_prefix on all of targets."""
    p, iters, (h, achieved, _) = _match_prefix(obs_set, targets)
    return DualSolution(
        p=tuple(float(v) for v in p),
        achieved=tuple(float(v) for v in achieved),
        log_partition_value=float(h),
        iterations=iters,
        residual=float(np.max(np.abs(achieved[:len(targets)] - targets))),
    )


def _inadmissible(report):
    return Infeasible("targets inadmissible: %s" % (
        report.notes[0] if report.notes
        else "a_k at or below the floor g1 = %r" % report.g1))


def _face_solution(report, targets):
    """The solution of the report of targets (one level down) as the
    reduced solution of the level above; Infeasible when the report has
    none or leaves a surplus on its last coordinate (an S2 prefix)."""
    if report.solution is None:
        raise _inadmissible(report)
    if report.surplus > 1e-6:
        raise Infeasible("moment %d reachable at most %g on the boundary face, target %g"
                         % (len(targets), report.g2, targets[-1]))
    return report.solution


def solve_reduced(obs_set, targets):
    """Match the first k-1 moments with zero k-th tilt.

    The reduced problem of k constraints is the problem of the first
    k-1, so this is the solution of classify's report at level k-1: a
    full tilt of the k-1 targets, or the reduced solution one level
    further down when a_{k-1} is at (or within 1e-6 above) that level's
    g2.  Raises Infeasible when the targets are inadmissible or the prefix
    lies in S2 (a_{k-1} above that g2), and ClassificationInconclusive
    when a solve below stalls.
    """
    k = obs_set.k
    if k < 2:
        raise ArgumentError("reduced solve needs k >= 2")
    targets = _checked_targets(targets, k - 1)
    return _face_solution(_PrefixPhase(obs_set, targets[:-1]).report(targets[-1]), targets)


def solve_full(obs_set, targets):
    """Match all k moments with an interior tilt (p_k < 0 for k >= 2,
    p_1 < 1 for k == 1).  Raises Infeasible at once where classify finds
    the targets inadmissible by the floor check of _PrefixPhase, and
    otherwise what _match_prefix raises."""
    k = obs_set.k
    targets = _checked_targets(targets, k)
    floor = _PrefixPhase(obs_set, targets[:-1]).floor_report(targets[-1])
    if floor is not None:
        raise _inadmissible(floor)
    return _full_solution(obs_set, targets)


def g2(obs_set, targets):
    """k-th moment of the reduced (zero k-th tilt) solution; the phase
    boundary between the interior and extraneous regimes."""
    sol = solve_reduced(obs_set, targets)
    return float(sol.achieved[obs_set.k - 1])


def g1(obs_set, targets):
    """Floor of the k-th moment compatible with the first k-1 moments.

    For k = 1 the floor is phi_1 at 0+, taken as 1e-12^e_1.  Closed forms
    for k = 2 (Jensen floor v_1^(e_2/e_1)) and k = 3
    (v_1 s^(e_3 - e_1) with s = (v_2/v_1)^(1/(e_2 - e_1)), which is
    v_2^2 / v_1 at exponents (1, 2, 3)).  The k = 3 floor is reached by
    one atom at 0 and one at s: the dual certificate
    x^e_1 (x^(e_3 - e_1) - c x^(e_2 - e_1) - b) >= 0 has a double root at
    s, and Descartes' rule of signs allows no other positive root.  It is
    the floor for an admissible prefix, v_2 > v_1^(e_2/e_1).  Raises
    ArgumentError for k >= 4, where classify checks no floor at level k.
    """
    v = _checked_targets(targets, obs_set.k - 1)
    if obs_set.k >= 4:
        raise ArgumentError("no closed-form floor g1 for this observable set")
    return _floor(obs_set.exponents, v)


def _floor(e, v):
    """g1 of the first len(v) + 1 <= 3 exponents e at the prefix v."""
    if len(v) == 0:
        return float(1e-12 ** e[0])
    if len(v) == 1:
        return float(v[0] ** (e[1] / e[0]))
    s = (v[1] / v[0]) ** (1.0 / (e[1] - e[0]))
    return float(v[0] * s ** (e[2] - e[0]))


class _PrefixPhase:
    """Level m = len(prefix) + 1 of classify, the part that does not
    depend on a_m: the floor g1 of the first m exponents (m <= 3), the
    level below, which must admit prefix[-1], and the reduced solution, run
    on first need; report(a_m) then costs at most one full solve.  Only
    the top level (m = k) solves through solve_reduced and solve_full."""

    def __init__(self, obs_set, prefix):
        self.obs_set = obs_set
        self.prefix = np.asarray(prefix, dtype=float)
        self.m = len(self.prefix) + 1
        self.below = _PrefixPhase(obs_set, self.prefix[:-1]) if self.m > 1 else None
        self.admissible = self.below is None or self.below.floor_report(self.prefix[-1]) is None
        self.g1 = _floor(obs_set.exponents, self.prefix) if self.m <= 3 else None

    @functools.cached_property
    def reduced(self):
        """The solution of the level below's report at prefix[-1], or None
        when that report has none or a surplus above 1e-6 (m = 1, or an
        S2 or inadmissible prefix)."""
        if self.below is None:
            return None
        try:
            if self.m == self.obs_set.k:
                return solve_reduced(self.obs_set, self.prefix)
            return _face_solution(self.below.report(self.prefix[-1]), self.prefix)
        except Infeasible:
            return None

    def floor_report(self, a_m):
        """The INADMISSIBLE report when the prefix is inadmissible or a_m
        is at or below the floor g1, else None; no solve is run."""
        if not self.admissible:
            return PhaseReport(
                regime="INADMISSIBLE", notes=("prefix outside admissible set",)
            )
        if self.g1 is not None and a_m <= self.g1:
            return PhaseReport(regime="INADMISSIBLE", g1=self.g1)
        return None

    def report(self, a_m):
        floor = self.floor_report(a_m)
        if floor is not None:
            return floor
        reduced = self.reduced
        g2v = None if reduced is None else float(reduced.achieved[self.m - 1])
        known = dict(g1=self.g1, g2=g2v, reduced=reduced)
        if reduced is not None and _above_g2(a_m, g2v):
            # float(): a numpy scalar would print as np.float64(...)
            return PhaseReport("EXTRANEOUS", surplus=max(float(a_m - g2v), 0.0), **known)
        solve = solve_full if self.m == self.obs_set.k else _full_solution
        try:
            full = solve(self.obs_set, np.append(self.prefix, a_m))
        except SolverStall as exc:
            raise ClassificationInconclusive(
                "full solve stalled", reduced=reduced, full=exc.best
            ) from exc
        except (NoFullTilt, Infeasible) as exc:
            if reduced is None:
                note = "no tilt of any kind: %s" % exc
            elif isinstance(exc, NoFullTilt):
                # a_m below g2 by less than the solve resolves: the full
                # tilt is pinned at p_m = 0, which is the reduced solution
                note = "a_k below g2 but no interior tilt found"
                return PhaseReport(regime="EXTRANEOUS", notes=(note,), **known)
            else:
                note = "a_k below the reachable floor"
            return PhaseReport(regime="INADMISSIBLE", notes=(note,), **known)
        regime = "FULL_TILT_S2" if reduced is None else "INTERIOR_S1"
        notes = ("k=1: constraint always binds",) if self.m == 1 else ()
        return PhaseReport(regime=regime, full=full, notes=notes, **known)


def classify(obs_set, targets):
    """Four-way phase classification of a target moment vector."""
    targets = _checked_targets(targets, obs_set.k)
    return _PrefixPhase(obs_set, targets[:-1]).report(targets[-1])


def limiting_marginal(obs_set, targets, report=None):
    """Limit law of a single coordinate: the density of the report's
    solution (in the extraneous regime its k-th moment is g2, not a_k)."""
    if report is None:
        report = classify(obs_set, targets)
    if report.solution is None:
        raise Infeasible("no limiting marginal for inadmissible targets")
    return quad.tilted_density(obs_set, report.solution.p)
