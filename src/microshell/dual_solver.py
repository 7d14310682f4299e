"""Maximum-entropy dual solves, phase functions and regime classification.

The dual problem minimizes the strictly convex map p |-> H(p) - p.v over
the lexicographic domain of H.  A damped Newton iteration (covariance as
Hessian, Armijo backtracking with factor 0.5) matches moments; boundary
constraints (the trailing free coordinate must stay strictly below its
bound) are enforced by capping the line search so the gap can at most
halve per step.

Regimes, decided by classify alone (the rate functions read their
values off its report):
  EXTRANEOUS   - the reduced problem (last tilt zero) matches the first
                 k-1 moments and the target a_k is at least the reduced
                 k-th moment g2 (or below it by less than the full solve
                 resolves, so that its tilt drifts onto p_k = 0); the last
                 constraint does not tilt the limit marginal and its
                 surplus localizes.
  INTERIOR_S1  - a_k below g2; a full tilt with p_k < 0 matches all k.
  FULL_TILT_S2 - the reduced problem is infeasible (or k = 1) but a full
                 tilt exists.
  INADMISSIBLE - a_k at or below the floor g1, or no tilt of any kind.
ClassificationInconclusive is raised only when a solve stalls.
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
    "g1_closed_form_available",
    "g2",
    "classify",
    "limiting_marginal",
    "REGIMES",
]

REGIMES = ("EXTRANEOUS", "INTERIOR_S1", "FULL_TILT_S2", "INADMISSIBLE")

_MOMENT_TOL = 1e-8
_MAX_ITER = 200
_DRIFT_WINDOW = 20
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
    regime: str
    g1: Optional[float] = None
    g2: Optional[float] = None
    reduced: Optional[DualSolution] = None
    full: Optional[DualSolution] = None
    notes: tuple = ()


class _BoundaryDrift(Exception):
    """Internal: iterate pinned against the trailing-coordinate bound with
    its moment stuck below target."""


class _AscentDiverged(Exception):
    """Internal: iterate diverged (target outside the reachable moment set
    from below)."""


def _stats(obs_set, p):
    """H(p), the k moments and the k-by-k covariance from one
    tilt-statistics pass."""
    c = quad.lebesgue_coefficients(obs_set, p)
    log_z, mom, cov = quad._tilt_stats(obs_set, c, obs_set.k)
    return log_z - quad._log_base_norm(obs_set), mom, cov


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
    substituted variables.  Raises _BoundaryDrift when the iterate
    certifies that the m-th target exceeds every reachable m-th moment
    on this face (p_m pinned at the bound with its moment short), and
    _AscentDiverged when the target prefix is unreachable from below.
    Returns the tilt, the iteration count and the tilt's _stats.
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
    drift_count = 0
    resid_hist = []
    for it in range(1, _MAX_ITER + 1):
        _, mom, cov = stats
        grad = mom[:m] - targets_m
        resid = float(np.max(np.abs(grad)))
        resid_hist.append(resid)
        if resid <= _MOMENT_TOL:
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
        accepted = False
        for _ in range(60):
            trial_u = u + alpha * d
            trial_p = to_p(trial_u)
            trial_stats = _stats(obs_set, trial_p)
            f_new = trial_stats[0] - float(np.dot(trial_p[:m], targets_m))
            if f_new <= f_cur + 1e-4 * alpha * gTd + 1e-14:
                u, p, f_cur, stats = trial_u, trial_p, f_new, trial_stats
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            drift_count = _DRIFT_WINDOW
        # drift bookkeeping: pressed against the bound (u very negative)
        # with the trailing moment still short of its target
        near_bound = (bound - p[m - 1]) < 1e-9
        pushing = d[m - 1] < 0 and mom[m - 1] < targets_m[m - 1]
        if pushing:
            drift_count += 1
        else:
            drift_count = 0
        plateau = (
            len(resid_hist) > _DRIFT_WINDOW
            and resid_hist[-1] > 0.5 * resid_hist[-_DRIFT_WINDOW]
        )
        if pushing and (near_bound or (drift_count >= _DRIFT_WINDOW and plateau)):
            raise _BoundaryDrift(
                "p_%d pinned at %g with moment %g below target %g"
                % (m, p[m - 1], mom[m - 1], targets_m[m - 1])
            )
        if float(np.max(np.abs(p))) > 1e7 or u[m - 1] > 50.0:
            raise _AscentDiverged("iterate diverged at %s" % (p.tolist(),))
    if drift_count > 0:
        raise _BoundaryDrift("iteration cap with persistent boundary pressure")
    raise SolverStall("no convergence in %d iterations" % _MAX_ITER)


def _solution(p, stats, targets, matched, iterations):
    h, achieved, _ = stats
    resid = float(np.max(np.abs(achieved[:matched] - np.asarray(targets)[:matched])))
    return DualSolution(
        p=tuple(float(v) for v in p),
        achieved=tuple(float(v) for v in achieved),
        log_partition_value=float(h),
        iterations=iterations,
        residual=resid,
    )


def solve_reduced(obs_set, targets):
    """Match the first k-1 moments with zero k-th tilt.

    Walks down the lexicographic boundary: first an interior solve with
    p_{k-1} < 0; if the iterate drifts onto the face p_{k-1} = 0, the
    face problem is solved with one fewer free coordinate and the
    remaining moment constraints are checked a posteriori.  Raises
    Infeasible when the targets are certifiably unreachable (the prefix
    lies in S2 or outside the admissible set).
    """
    k = obs_set.k
    if k < 2:
        raise ArgumentError("reduced solve needs k >= 2")
    targets = np.asarray(targets, dtype=float)
    if targets.shape != (k - 1,) or np.any(targets <= 0):
        raise ArgumentError("need k-1 positive targets")
    m = k - 1
    best = None
    for level in range(m, 0, -1):
        try:
            p, iters, stats = _match_prefix(obs_set, targets[:level])
        except _BoundaryDrift:
            continue
        except _AscentDiverged as exc:
            raise Infeasible("targets unreachable: %s" % exc, best=best) from exc
        sol = _solution(p, stats, targets, level, iters)
        best = sol
        extra = np.asarray(sol.achieved[level:m]) - targets[level:m]
        if np.all(np.abs(extra) <= 1e-6):
            return sol
        if np.any(extra < -1e-6):
            raise Infeasible(
                "moment %d reachable at most %g on the boundary face, target %g"
                % (
                    int(np.argmax(extra < -1e-6)) + level + 1,
                    sol.achieved[level:m][int(np.argmax(extra < -1e-6))],
                    targets[level:m][int(np.argmax(extra < -1e-6))],
                ),
                best=best,
            )
        raise SolverStall(
            "boundary face overshoots a matched target; no reduced solution found",
            best=best,
        )
    raise Infeasible("all boundary faces drifted; prefix lies in S2", best=best)


def solve_full(obs_set, targets):
    """Match all k moments with an interior tilt (p_k < 0 for k >= 2,
    p_1 < 1 for k == 1)."""
    k = obs_set.k
    targets = np.asarray(targets, dtype=float)
    if targets.shape != (k,) or np.any(targets <= 0):
        raise ArgumentError("need k positive targets")
    try:
        p, iters, stats = _match_prefix(obs_set, targets)
    except _BoundaryDrift as exc:
        raise NoFullTilt(
            "no interior tilt matches all moments (extraneous regime): %s" % exc
        ) from exc
    except _AscentDiverged as exc:
        raise Infeasible("targets unreachable by any tilt: %s" % exc) from exc
    return _solution(p, stats, targets, k, iters)


def g2(obs_set, targets):
    """k-th moment of the reduced (zero k-th tilt) solution; the phase
    boundary between the interior and extraneous regimes."""
    sol = solve_reduced(obs_set, targets)
    return float(sol.achieved[obs_set.k - 1])


def g1_closed_form_available(obs_set):
    """Whether g1 has a closed form for this set: POWERS with k = 2, or
    with exponents (1, 2, 3).  classify checks the floor only then."""
    if obs_set.family_tag != "POWERS":
        return False
    e = obs_set.exponents
    return obs_set.k == 2 or (obs_set.k == 3 and e == (1.0, 2.0, 3.0))


def g1(obs_set, targets):
    """Floor of the k-th moment compatible with the first k-1 moments.

    Closed forms for the POWERS family with k = 2 (Jensen floor
    v_1^(e_2/e_1)) and exponents (1,2,3) (two-point-mass floor
    v_2^2 / v_1).  Raises ArgumentError for any other set
    (g1_closed_form_available() is False there).
    """
    targets = np.asarray(targets, dtype=float)
    k = obs_set.k
    if targets.shape != (k - 1,):
        raise ArgumentError("g1 takes the first k-1 targets")
    if not g1_closed_form_available(obs_set):
        raise ArgumentError("no closed-form floor g1 for this observable set")
    e = obs_set.exponents
    if k == 2:
        return float(targets[0] ** (e[1] / e[0]))
    return float(targets[1] ** 2 / targets[0])


class _PrefixPhase:
    """The part of classify that does not depend on a_k: the floor g1,
    the admissibility of the prefix and the reduced solve.  The reduced
    solve runs on first need, so targets at or below the floor never pay
    for it; report(a_k) then costs at most one full solve."""

    def __init__(self, obs_set, prefix):
        self.obs_set = obs_set
        self.prefix = np.asarray(prefix, dtype=float)
        k = obs_set.k
        self.admissible = True
        self.g1 = None
        if k == 1:
            # single constraint: the floor is phi_1 at 0+
            self.g1 = float(obs_set.items[0].eval(1e-12))
        elif g1_closed_form_available(obs_set):
            # prefix admissibility for the (1,2,3) family: v2 > v1^2
            self.admissible = k == 2 or self.prefix[1] > self.prefix[0] ** 2
            self.g1 = g1(obs_set, self.prefix)

    @functools.cached_property
    def reduced(self):
        """The reduced solution, or None when the prefix has none (k = 1,
        or an S2 or inadmissible prefix)."""
        if self.obs_set.k == 1:
            return None
        try:
            return solve_reduced(self.obs_set, self.prefix)
        except Infeasible:
            return None
        except SolverStall as exc:
            raise ClassificationInconclusive(
                "reduced solve stalled", reduced=exc.best
            ) from exc

    def report(self, a_k):
        if not self.admissible:
            return PhaseReport(
                regime="INADMISSIBLE", notes=("prefix outside admissible set",)
            )
        g1v = self.g1
        if g1v is not None and a_k <= g1v:
            return PhaseReport(regime="INADMISSIBLE", g1=g1v)
        reduced = self.reduced
        g2v = None if reduced is None else float(reduced.achieved[-1])
        known = dict(g1=g1v, g2=g2v, reduced=reduced)
        if reduced is not None and _above_g2(a_k, g2v):
            return PhaseReport(regime="EXTRANEOUS", **known)
        try:
            full = solve_full(self.obs_set, np.append(self.prefix, a_k))
        except SolverStall as exc:
            raise ClassificationInconclusive(
                "full solve stalled", reduced=reduced, full=exc.best
            ) from exc
        except (NoFullTilt, Infeasible) as exc:
            if reduced is None:
                note = "no tilt of any kind: %s" % exc
            elif isinstance(exc, NoFullTilt):
                # a_k below g2 by less than the solve resolves: the full
                # tilt drifts onto p_k = 0, which is the reduced solution
                note = "a_k below g2 but no interior tilt found"
                return PhaseReport(regime="EXTRANEOUS", notes=(note,), **known)
            else:
                note = "a_k below the reachable floor"
            return PhaseReport(regime="INADMISSIBLE", notes=(note,), **known)
        regime = "FULL_TILT_S2" if reduced is None else "INTERIOR_S1"
        notes = ("k=1: constraint always binds",) if self.obs_set.k == 1 else ()
        return PhaseReport(regime=regime, full=full, notes=notes, **known)


def classify(obs_set, targets):
    """Four-way phase classification of a target moment vector."""
    targets = np.asarray(targets, dtype=float)
    if targets.shape != (obs_set.k,) or np.any(targets <= 0):
        raise ArgumentError("need k positive targets")
    return _PrefixPhase(obs_set, targets[:-1]).report(targets[-1])


def limiting_marginal(obs_set, targets, report=None):
    """Limit law of a single coordinate: the reduced density in the
    extraneous regime (its k-th moment is g2, not a_k), otherwise the
    full-tilt density."""
    if report is None:
        report = classify(obs_set, targets)
    if report.regime == "INADMISSIBLE":
        raise Infeasible("no limiting marginal for inadmissible targets")
    sol = report.reduced if report.regime == "EXTRANEOUS" else report.full
    return quad.tilted_density(obs_set, sol.p)
