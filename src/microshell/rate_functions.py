"""Large-deviation rate function, projected max-component rate, entropy.

The rate function I(v) is the Legendre transform of the log-partition
function H over its lexicographic domain.  It is computed through the
same damped Newton engine as the dual solver: the supremum of
p.v - H(p) is attained either at the full-tilt solution (last tilt
negative) or, when v_k is at least the phase boundary g2, at the reduced
solution with zero last tilt, where I is constant in v_k.  Below the
floor g1 the supremum diverges and +inf is returned.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import dual_solver as dual
from . import quadrature as quad
from .errors import ArgumentError, Infeasible, NoFullTilt

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


def _dual_value(p, v, h):
    return float(np.dot(p, v) - h)


def rate_I(obs_set, v, params=None):
    """I(v) = sup over the domain of p.v - H(p); +inf below the floor."""
    params = params or quad._DEFAULT_PARAMS
    k = obs_set.k
    v = np.asarray(v, dtype=float)
    if v.shape != (k,) or np.any(v <= 0):
        raise ArgumentError("need k positive coordinates")
    vt = tuple(float(x) for x in v)

    if k == 1:
        try:
            sol = dual.solve_full(obs_set, v, params)
        except (Infeasible, NoFullTilt):
            return RateEval(v=vt, value=math.inf, maximizer_p=BOUNDARY)
        return RateEval(
            v=vt,
            value=_clip(_dual_value(sol.p, v, sol.log_partition_value)),
            maximizer_p=sol.p,
        )

    if dual.g1_closed_form_available(obs_set):
        if obs_set.k == 3 and v[1] <= v[0] ** 2:
            return RateEval(v=vt, value=math.inf, maximizer_p=BOUNDARY)
        if v[k - 1] <= dual.g1(obs_set, v[: k - 1], params):
            return RateEval(v=vt, value=math.inf, maximizer_p=BOUNDARY)

    reduced = None
    try:
        reduced = dual.solve_reduced(obs_set, v[: k - 1], params)
    except Infeasible:
        pass

    if reduced is not None and dual._above_g2(v[k - 1], reduced.achieved[k - 1]):
        # constancy region: the sup is attained with zero last tilt and
        # the v_k coordinate carries no weight
        p = np.asarray(reduced.p)
        value = float(np.dot(p[: k - 1], v[: k - 1]) - reduced.log_partition_value)
        return RateEval(v=vt, value=_clip(value), maximizer_p=reduced.p)

    try:
        sol = dual.solve_full(obs_set, v, params)
    except Infeasible:
        return RateEval(v=vt, value=math.inf, maximizer_p=BOUNDARY)
    except NoFullTilt:
        # v_k sits numerically on the phase boundary: the sup is the
        # reduced (zero last tilt) value
        p = np.asarray(reduced.p)
        value = float(np.dot(p[: k - 1], v[: k - 1]) - reduced.log_partition_value)
        return RateEval(v=vt, value=_clip(value), maximizer_p=reduced.p)
    return RateEval(
        v=vt,
        value=_clip(_dual_value(sol.p, v, sol.log_partition_value)),
        maximizer_p=sol.p,
    )


def jmax_projected(obs_set, a, z, params=None):
    """Rate of shifting mass z out of the k-th constraint:
    I(a_1, ..., a_{k-1}, a_k - z) - I(a).  Zero at z = 0; +inf when the
    shifted vector falls below the floor."""
    params = params or quad._DEFAULT_PARAMS
    a = np.asarray(a, dtype=float)
    k = obs_set.k
    if not (0.0 <= z <= a[k - 1]):
        raise ArgumentError("need 0 <= z <= a_k")
    base = rate_I(obs_set, a, params)
    if z == 0.0:
        return 0.0
    shifted = a.copy()
    shifted[k - 1] = a[k - 1] - z
    if shifted[k - 1] <= 0.0:
        return math.inf
    top = rate_I(obs_set, shifted, params)
    if not math.isfinite(top.value):
        return math.inf
    return max(0.0, top.value - base.value)


def entropy(d, params=None):
    """Differential entropy of an exponential-family density:
    h = log Z_tilde - sum_i c_i E[phi_i], c the Lebesgue coefficients."""
    params = params or quad._DEFAULT_PARAMS
    c = d.lebesgue_coeffs
    mom = quad.moments(d.set, d.p, params)
    return float(d.log_norm - np.dot(c, mom))


def K_of(obs_set, a, params=None):
    """Minimal relative-entropy cost constant: minus the differential
    entropy of the limiting marginal."""
    params = params or quad._DEFAULT_PARAMS
    lam = dual.limiting_marginal(obs_set, a, params)
    return -entropy(lam, params)


def rate_scan(obs_set, prefix, z_grid, params=None):
    """I(prefix, z) along an increasing grid of last coordinates.

    Non-increasing in z; constant beyond g2(prefix) where the reduced
    solution is reused instead of re-solving."""
    params = params or quad._DEFAULT_PARAMS
    k = obs_set.k
    prefix = tuple(float(x) for x in prefix)
    if len(prefix) != k - 1 or any(x <= 0 for x in prefix):
        raise ArgumentError("prefix must be the k-1 leading positive targets")
    z_grid = [float(z) for z in z_grid]
    if any(b <= a for a, b in zip(z_grid, z_grid[1:])):
        raise ArgumentError("z_grid must be strictly increasing")

    reduced = None
    g2v = None
    if k >= 2:
        try:
            reduced = dual.solve_reduced(obs_set, prefix, params)
            g2v = float(reduced.achieved[k - 1])
        except Infeasible:
            pass

    out = []
    for z in z_grid:
        if reduced is not None and dual._above_g2(z, g2v):
            p = np.asarray(reduced.p)
            value = _clip(
                float(
                    np.dot(p[: k - 1], prefix) - reduced.log_partition_value
                )
            )
            out.append(RateEval(v=prefix + (z,), value=value, maximizer_p=reduced.p))
        else:
            out.append(rate_I(obs_set, prefix + (z,), params))
    return out
