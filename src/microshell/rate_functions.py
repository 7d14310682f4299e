"""Large-deviation rate function, projected max-component rate, entropy.

The rate function I(v) is the Legendre transform of the log-partition
function H over its lexicographic domain.  Its value is read off the
phase report of dual_solver.classify, which alone decides the regime:
the supremum of p.v - H(p) is attained at the full-tilt solution (last
tilt negative), or, in the extraneous regime (v_k at least the phase
boundary g2), at the reduced solution with zero last tilt, where I is
constant in v_k.  For inadmissible v (at or below the floor g1) the
supremum diverges and +inf is returned.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import dual_solver as dual
from . import quadrature as quad
from .errors import ArgumentError

__all__ = ["RateEval", "rate_I", "jmax_projected", "entropy", "K_of", "rate_scan"]

BOUNDARY = "BOUNDARY"


@dataclass(frozen=True)
class RateEval:
    v: tuple
    value: float
    maximizer_p: object  # tuple, or BOUNDARY flag when the sup diverges


def _clip(value):
    # quadrature noise can push an exact zero slightly negative
    if -1e-8 < value < 0.0:
        return 0.0
    return value


def _rate_eval(report, v):
    """I(v) from the phase report of v: p.v - H(p) at the report's
    maximizer (the reduced tilt has p_k = 0, so v_k carries no weight)."""
    vt = tuple(float(x) for x in v)
    sol = report.solution
    if sol is None:
        return RateEval(v=vt, value=math.inf, maximizer_p=BOUNDARY)
    value = float(np.dot(sol.p, v) - sol.log_partition_value)
    return RateEval(v=vt, value=_clip(value), maximizer_p=sol.p)


def rate_I(obs_set, v):
    """I(v) = sup over the domain of p.v - H(p); +inf below the floor."""
    v = np.asarray(v, dtype=float)
    return _rate_eval(dual.classify(obs_set, v), v)


def jmax_projected(obs_set, a, z):
    """Rate of shifting mass z out of the k-th constraint:
    I(a_1, ..., a_{k-1}, a_k - z) - I(a).  Zero at z = 0; +inf when the
    shifted vector falls below the floor."""
    a = np.asarray(a, dtype=float)
    k = obs_set.k
    if not (0.0 <= z <= a[k - 1]):
        raise ArgumentError("need 0 <= z <= a_k")
    if z == 0.0:
        return 0.0
    if z == a[k - 1]:
        return math.inf
    top, base = rate_scan(obs_set, a[: k - 1], [a[k - 1] - z, a[k - 1]])
    if not math.isfinite(top.value):
        return math.inf
    return max(0.0, top.value - base.value)


def entropy(d):
    """Differential entropy of an exponential-family density:
    h = log Z_tilde - sum_i c_i E[phi_i], c the Lebesgue coefficients."""
    c = d.lebesgue_coeffs
    mom = quad.moments(d.set, d.p)
    return float(d.log_norm - np.dot(c, mom))


def K_of(obs_set, a):
    """Minimal relative-entropy cost constant: minus the differential
    entropy of the limiting marginal."""
    lam = dual.limiting_marginal(obs_set, a)
    return -entropy(lam)


def rate_scan(obs_set, prefix, z_grid):
    """I(prefix, z) along an increasing grid of last coordinates.

    Non-increasing in z; constant beyond g2(prefix).  The floor, the
    prefix check and the reduced solve are done once for the whole grid;
    each point then costs at most one full solve."""
    prefix = tuple(float(x) for x in prefix)
    if len(prefix) != obs_set.k - 1 or not all(0 < x < math.inf for x in prefix):
        raise ArgumentError("prefix must be the k-1 leading positive finite targets")
    z_grid = [float(z) for z in z_grid]
    if not all(map(math.isfinite, z_grid)) or any(b <= a for a, b in zip(z_grid, z_grid[1:])):
        raise ArgumentError("z_grid must be finite and strictly increasing")
    phase = dual._PrefixPhase(obs_set, prefix)
    return [_rate_eval(phase.report(z), prefix + (z,)) for z in z_grid]
