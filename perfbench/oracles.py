"""Closed forms and independent integrals the benchmark checks results against.

Nothing here calls into microshell: every reference value comes from a
closed form or from scipy's QUADPACK integrator, so a defect in the
package's own quadrature or Newton code cannot hide in its oracle.

Tolerances are the ones the repository's tests already state: 1e-8 on
moments and moment residuals, 1e-6 on I, g2 and Legendre duality, 1e-4 on
the duality maximizer, 1e-10 in probability for quantile inversion.
"""

import math

import numpy as np

MOMENT_TOL = 1e-8
RATE_TOL = 1e-6
MAXIMIZER_TOL = 1e-4
QUANTILE_REL_TOL = 1e-8
CDF_ROUNDTRIP_TOL = 1e-10
# The brute-force grid is documented to stay well below the tightest KS
# tolerance it certifies (0.02, chain against enumeration at n = 2); a
# quarter of that is the bar for its CDF against the exact n = 2 marginal.
BRUTE_FORCE_CDF_TOL = 0.005
# scipy's integrator is only the referee for values the package computes
# to 1e-10 relative; a looser bar keeps the referee's own error out.
INDEPENDENT_REL_TOL = 1e-7


def s12_regime(v1, v2):
    """Closed-form phase of targets (v1, v2) for phi = (x, x^2):
    floor g1 = v1^2, boundary g2 = 2 v1^2."""
    if v2 <= v1 * v1:
        return "INADMISSIBLE"
    if v2 < 2.0 * v1 * v1:
        return "INTERIOR_S1"
    return "EXTRANEOUS"


def s12_g2(v1):
    return 2.0 * v1 * v1


def s12_flat_rate(v1):
    """I(v1, z) for every z >= g2(v1): the exponential law with mean v1
    against the exp(1) reference, v1 - 1 - log v1.  I(2, 8) = 1 - log 2."""
    return v1 - 1.0 - math.log(v1)


def exp_rate(p1):
    """Rate of the exponential law a tilt (p1, 0) gives against exp(1)."""
    return 1.0 - p1


def exp_quantile(p1, u):
    return -np.log1p(-np.asarray(u, dtype=float)) / exp_rate(p1)


def exp_moments(p1):
    lam = exp_rate(p1)
    return (1.0 / lam, 2.0 / lam ** 2)


def exp_entropy(p1):
    return 1.0 - math.log(exp_rate(p1))


def exp_log_prob_interval(p1, a, b):
    """log P(a < X < b) for X ~ Exp(1 - p1), without cancellation."""
    lam = exp_rate(p1)
    return -lam * a + math.log(-math.expm1(-lam * (b - a)))


def close(value, expected, rel=0.0, abs_=0.0):
    """|value - expected| <= abs_ + rel |expected|, false for non-finite."""
    if not (math.isfinite(value) and math.isfinite(expected)):
        return False
    return abs(value - expected) <= abs_ + rel * abs(expected)


def power_moments(p, exponents, orders):
    """E[x^s] for s in orders under the density on (0, inf) proportional
    to exp((p_1 - 1) x^e_1 + sum_{i>=2} p_i x^e_i), by scipy.integrate.

    The exponent is probed on a log grid to find its peak and the point
    past which it has fallen 60 nats, so the integrator works on a finite
    interval that contains the mass with the peak marked.
    """
    c = np.array(p, dtype=float)
    c[0] -= 1.0
    e = np.asarray(exponents, dtype=float)
    xs = np.geomspace(1e-8, 1e4, 20001)
    g = c @ (xs[None, :] ** e[:, None])
    imax = int(np.argmax(g))
    gmax = float(g[imax])
    tail = np.nonzero(g[imax:] < gmax - 60.0)[0]
    if tail.size == 0:
        raise ValueError("density has no decaying tail below x = 1e4")
    upper = float(xs[imax + tail[0]])
    peak = float(xs[imax])
    terms = list(zip(c.tolist(), e.tolist()))
    # imported here so that the set-up probes, which import this module
    # but never integrate, do not pay for scipy
    from scipy import integrate

    def weight(x, s):
        return x ** s * math.exp(sum(ci * x ** ei for ci, ei in terms) - gmax)

    def integral(s):
        pts = [peak] if 0.0 < peak < upper else None
        val, _ = integrate.quad(weight, 0.0, upper, args=(s,), points=pts,
                                limit=400, epsabs=0.0, epsrel=1e-12)
        return val

    z = integral(0.0)
    return tuple(integral(float(s)) / z for s in orders)


def uniform_ks(u):
    """KS distance of a uniform sample from the U(0, 1) law."""
    u = np.sort(np.asarray(u, dtype=float).ravel())
    n = u.size
    upper = np.arange(1, n + 1) / n - u
    lower = u - np.arange(0, n) / n
    return float(max(np.max(upper), np.max(lower), 0.0))


def s12_shell_marginal_cdf(a, delta, xs, nodes=200_001):
    """Exact CDF of coordinate 1 under the uniform law on the n = 2 shell
    of phi = (x, x^2).

    For fixed x_1 the admissible x_2 form one interval, the intersection
    of [2(a_1 - delta) - x_1, 2(a_1 + delta) - x_1] with
    [sqrt(2(a_2 - delta) - x_1^2), sqrt(2(a_2 + delta) - x_1^2)] and
    (0, inf); the marginal density is its length.  The CDF integrates that
    continuous, bounded length on a fine uniform grid.
    """
    lo1, hi1 = 2.0 * (a[0] - delta), 2.0 * (a[0] + delta)
    lo2, hi2 = 2.0 * (a[1] - delta), 2.0 * (a[1] + delta)
    g = np.linspace(0.0, math.sqrt(hi2), nodes)
    top = np.minimum(hi1 - g, np.sqrt(np.maximum(hi2 - g * g, 0.0)))
    bottom = np.maximum(np.maximum(lo1 - g, np.sqrt(np.maximum(lo2 - g * g, 0.0))), 0.0)
    length = np.maximum(top - bottom, 0.0)
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (length[1:] + length[:-1]) * np.diff(g))])
    return np.interp(xs, g, cum / cum[-1])


def table_moment_in_shell(table, exponent, target, delta, slack=1e-9):
    """The uniform law on a shell is exchangeable, so E[phi(x_1)] equals
    the mean of the empirical average over coordinates, which the shell
    pins within delta of its target.  The grid measure is exchangeable
    too, so this holds for the brute-force table exactly."""
    m = float(np.sum(table.x ** exponent * table.pdf * table.widths))
    return abs(m - target) <= delta + slack, m
