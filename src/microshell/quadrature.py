"""Stable evaluation of tilted partition functions, moments and densities.

All integrals over (0, inf) are computed after the substitution x = e^t,
in log space with the exponent maximum subtracted before exponentiation,
so that arbitrarily scaled tilts never overflow.  Tails are truncated
where the log-integrand falls a fixed number of nats below its maximum.
One rule integrates: a composite Gauss-Legendre grid in t, refined
until two grids agree to 1e-10 relative.  It gives the statistics of a
tilt (log Z, moments, covariance) over the bracketed support, and
interval probabilities over the part of the interval within the tail
cut of the interval's own maximum.  A tilted density holds its CDF
grid, fixed panels in t filled once at construction.  One partial-panel
Gauss-Legendre integral builds that grid, completes cdf inside a
point's panel, and is the residual that quantile drives to zero by
safeguarded Newton in t, to 1e-10 in probability.  It adds its nodes
in one fixed order, so a point's bits do not depend on where it sits
among the others.  cdf and quantile take their points in blocks of
8192, so the (points, nodes) temporaries stay bounded.

The reference measure is lambda = (1/Z) exp(-phi_1(x)) dx, so a tilt
vector p corresponds to the Lebesgue density

    x  |->  exp(c_1 phi_1(x) + ... + c_k phi_k(x)) / Z_tilde,

with Lebesgue coefficients c_1 = p_1 - 1 and c_i = p_i for i >= 2.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, DomainError, QuadratureError

__all__ = [
    "TiltedDensity",
    "in_domain",
    "log_partition",
    "moments",
    "covariance",
    "tilted_density",
    "cdf",
    "quantile",
    "log_prob_interval",
    "lebesgue_coefficients",
]

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(15)
_GRID_HALVINGS = 4
_REL_TOL = 1e-10  # agreement of two grids, relative
_TAIL_CUT_NATS = 60.0  # brackets keep g > max(g) - cut (plus a margin)
_CDF_PANELS = 1024
# quantile stops: Newton step or bracket in t = log x, residual relative
# to the tail mass; the round cap only bounds the loop
_QUANTILE_STEP = 1e-9
_QUANTILE_RESIDUAL = 1e-13
_QUANTILE_ROUNDS = 64
# the least u quantile takes, well above the mass the CDF grid drops
# below its lower edge
_QUANTILE_U_MIN = math.exp(-_TAIL_CUT_NATS)
_BLOCK = 8192  # points per cdf or quantile block: bounds the temporaries


def lebesgue_coefficients(obs_set, p):
    """Coefficients of the phi_i in the Lebesgue exponent of the tilt."""
    c = np.array(p, dtype=float)
    if c.shape != (obs_set.k,):
        raise ArgumentError("tilt vector must have length k=%d" % obs_set.k)
    c[0] -= 1.0
    return c


def in_domain(obs_set, p):
    """Lexicographic finiteness condition for the log-partition function.

    True iff p_k < 0, or p_k = 0 and p_{k-1} < 0, ..., or all of
    p_k, ..., p_2 are zero and p_1 < 1.  Strict inequalities throughout.
    """
    p = np.asarray(p, dtype=float)
    if p.shape != (obs_set.k,):
        raise ArgumentError("tilt vector must have length k=%d" % obs_set.k)
    for i in range(obs_set.k - 1, 0, -1):
        if p[i] < 0.0:
            return True
        if p[i] != 0.0:
            return False
    return p[0] < 1.0


def _log_weight(obs_set, c, t):
    """Log-integrand in t-space: sum_i c_i phi_i(e^t) + t.

    Non-finite values are treated as -inf (the exponent has decayed past
    floating-point range).
    """
    x = np.exp(t)
    with np.errstate(over="ignore", invalid="ignore"):
        g = np.array(t, dtype=float, copy=True)
        for ci, e in zip(c, obs_set.exponents):
            if ci != 0.0:
                g = g + ci * x ** e
    return np.where(np.isnan(g), -np.inf, g)


def _bracket(gfun, cut_nats, t_min=-np.inf, t_max=np.inf):
    """Find [t_lo, t_hi] in [t_min, t_max] containing all t there with
    g(t) > max(g) - cut_nats, the maximum taken over [t_min, t_max].

    The scan starts at each finite limit; an infinite lower end starts at
    -80 and an infinite upper end at 60, each at least 140 from the other
    end, and an infinite end is doubled while the cut reaches it.
    With fewer than 16 scan points above the cut, the scan is repeated
    between their neighbours: a peak narrower than the scan step can sit
    1e4 nats above the scanned maximum and overflow every integral.
    """
    lo = t_min if np.isfinite(t_min) else min(-80.0, t_max - 140.0)
    hi = t_max if np.isfinite(t_max) else max(60.0, lo + 140.0)
    for _ in range(4):
        ts = np.linspace(lo, hi, 2801)
        gs = gfun(ts)
        gmax = np.max(gs)
        if not np.isfinite(gmax):
            raise QuadratureError("log-integrand has no finite maximum")
        above = gs > gmax - cut_nats
        grow_lo = above[0] and lo > t_min
        grow_hi = above[-1] and hi < t_max
        if not (grow_lo or grow_hi):
            break
        lo *= 2.0 if grow_lo else 1.0
        hi *= 2.0 if grow_hi else 1.0
    else:
        raise QuadratureError("could not bracket the integrand support")
    for _ in range(4):
        idx = np.flatnonzero(gs > gmax - cut_nats)
        if idx.size == 0:
            # the cut is below the rounding of gmax: nothing to integrate
            # at this precision
            raise QuadratureError("integrand has no resolvable support in t = log x")
        t_lo = ts[max(idx[0] - 1, 0)]
        t_hi = ts[min(idx[-1] + 1, len(ts) - 1)]
        if len(idx) >= 16:
            break
        ts = np.linspace(t_lo, t_hi, 2801)
        gs = gfun(ts)
        gmax = np.max(gs)
    return t_lo, t_hi, gmax


def _grid_stats(obs_set, gfun, gmax, t_lo, t_hi, width, m):
    """Integral of exp(g - gmax), and the first m moments and covariance
    of the normalized weight, on panels of at most the given width."""
    n = int(np.ceil((t_hi - t_lo) / width))
    half = 0.5 * (t_hi - t_lo) / n
    tt = (t_lo + half * (2 * np.arange(n) + 1))[:, None] + half * _GL_NODES
    w = (half * _GL_WEIGHTS * np.exp(gfun(tt) - gmax)).ravel()
    z = float(np.sum(w))
    x = np.exp(tt.ravel())
    phi = np.array([x ** e for e in obs_set.exponents[:m]]).reshape(m, x.size)
    w = w / z
    mom = phi @ w
    dev = phi - mom[:, None]
    cov = (dev * w) @ dev.T
    return z, mom, 0.5 * (cov + cov.T)


def _grids_agree(coarse, fine, rel_tol):
    (z0, m0, c0), (z1, m1, c1) = coarse, fine
    sd = np.sqrt(np.abs(np.diag(c1)))
    return bool(
        abs(z1 - z0) <= rel_tol * z1
        and np.all(np.abs(m1 - m0) <= rel_tol * np.abs(m1))
        and np.all(np.abs(c1 - c0) <= rel_tol * np.outer(sd, sd))
    )


def _refined_stats(obs_set, c, gfun, gmax, t_lo, t_hi, m):
    """log of the integral of exp(g) over [t_lo, t_hi], the first m
    moments and their m-by-m covariance under the normalized weight.

    One composite 15-node Gauss-Legendre grid in t serves every
    statistic; the covariance is summed from centred deviations.  The
    panel width starts at min(0.05, (t_hi - t_lo) / 16), so a narrow
    peak gets as many panels as a wide one, and is halved until the grid
    agrees with the grid of twice its width to 1e-10, or to the rounding
    error eps * sum |c_i phi_i| of the log-weight at t_hi where that is
    larger.
    """
    phi_hi = [np.exp(t_hi) ** e for e in obs_set.exponents]
    tol = max(_REL_TOL, np.finfo(float).eps * np.dot(np.abs(c), phi_hi))
    width = min(0.05, (t_hi - t_lo) / 16.0)
    coarse = _grid_stats(obs_set, gfun, gmax, t_lo, t_hi, 2.0 * width, m)
    for _ in range(_GRID_HALVINGS + 1):
        fine = _grid_stats(obs_set, gfun, gmax, t_lo, t_hi, width, m)
        if _grids_agree(coarse, fine, tol):
            z, mom, cov = fine
            return float(np.log(z) + gmax), mom, cov
        coarse, width = fine, 0.5 * width
    raise QuadratureError(
        "grid refinement missed its tolerance after %d halvings" % _GRID_HALVINGS
    )


def _tilt_stats(obs_set, c, m):
    """_refined_stats of exp(c . phi) dx over one bracket of its support,
    10 nats beyond the tail cut."""
    gfun = lambda t: _log_weight(obs_set, c, t)
    t_lo, t_hi, gmax = _bracket(gfun, _TAIL_CUT_NATS + 10.0)
    return _refined_stats(obs_set, c, gfun, gmax, t_lo, t_hi, m)


@functools.lru_cache(maxsize=256)
def _log_base_norm(obs_set):
    """log Z of the reference measure lambda = (1/Z) exp(-phi_1) dx."""
    c = np.zeros(obs_set.k)
    c[0] = -1.0
    return _tilt_stats(obs_set, c, 0)[0]


def _checked_coefficients(obs_set, p):
    if not in_domain(obs_set, p):
        raise DomainError("tilt %s outside the domain" % (list(p),))
    return lebesgue_coefficients(obs_set, p)


def log_partition(obs_set, p):
    """H(p) = log of integral of exp(sum p_i phi_i) d lambda.

    H(0) = 0 exactly by construction: the same integration code path
    evaluates the numerator and the base normalizer.
    """
    c = _checked_coefficients(obs_set, p)
    log_num = _tilt_stats(obs_set, c, 0)[0]
    return log_num - _log_base_norm(obs_set)


def moments(obs_set, p):
    """First moments E[phi_i] under the tilted density at p."""
    c = _checked_coefficients(obs_set, p)
    return _tilt_stats(obs_set, c, obs_set.k)[1]


def covariance(obs_set, p):
    """Centered covariance matrix of (phi_1, ..., phi_k) under the tilt."""
    c = _checked_coefficients(obs_set, p)
    return _tilt_stats(obs_set, c, obs_set.k)[2]


@dataclass(frozen=True, eq=False)
class TiltedDensity:
    """Exponential-family density against Lebesgue measure on (0, inf).

    density(x) = exp(sum_i p_i phi_i(x) - phi_1(x)) / Z_tilde, with
    log_norm = log Z_tilde.  The CDF grid, filled by tilted_density:
    panel edges in t = log x, each panel's integral of exp(g - gmax),
    and their running sums from the left (cum) and the right (tail).
    """

    set: object
    p: tuple
    log_norm: float
    lebesgue_coeffs: np.ndarray
    gmax: float
    edges: np.ndarray
    panel_ints: np.ndarray
    cum: np.ndarray
    tail: np.ndarray


def _panel_integral(obs_set, c, gmax, a, t):
    """Signed Gauss-Legendre integral of exp(g - gmax) from each panel
    edge a to t, g the log-weight of the Lebesgue coefficients c.
    einsum adds each point's 15 weighted values in one order, whatever
    the point's row; a matrix-vector product may sum rows in different
    orders, so a point's bits would depend on its position."""
    half = 0.5 * (t - a)
    tt = (0.5 * (t + a))[..., None] + half[..., None] * _GL_NODES
    return half * np.einsum("ij,j->i", np.exp(_log_weight(obs_set, c, tt) - gmax), _GL_WEIGHTS)


def tilted_density(obs_set, p):
    """Construct a normalized TiltedDensity with its CDF grid; the grid's
    total is its normaliser."""
    c = _checked_coefficients(obs_set, p)
    gfun = lambda t: _log_weight(obs_set, c, t)
    t_lo, t_hi, gmax = _bracket(gfun, _TAIL_CUT_NATS + 20.0)
    edges = np.linspace(t_lo, t_hi, _CDF_PANELS + 1)
    panel_ints = _panel_integral(obs_set, c, gmax, edges[:-1], edges[1:])
    cum = np.concatenate([[0.0], np.cumsum(panel_ints)])
    if cum[-1] <= 0.0:
        raise QuadratureError("CDF grid underflowed")
    return TiltedDensity(
        set=obs_set,
        p=tuple(float(v) for v in p),
        log_norm=float(np.log(cum[-1]) + gmax),
        lebesgue_coeffs=c,
        gmax=gmax,
        edges=edges,
        panel_ints=panel_ints,
        cum=cum,
        # mass of the last j panels, summed from the right: 1 - u is exact
        # for u >= 1/2, so the upper half is inverted without cancellation
        tail=np.concatenate([[0.0], np.cumsum(panel_ints[::-1])]),
    )


def _blockwise(fn, d, vals):
    """fn(d, block) over consecutive _BLOCK-point blocks of the 1-d vals:
    bounds the (points, nodes) temporaries of a panel integral."""
    out = np.empty(vals.size)
    for s in range(0, vals.size, _BLOCK):
        out[s : s + _BLOCK] = fn(d, vals[s : s + _BLOCK])
    return out


def _cdf_t(d, tvals):
    """CDF at t = log(x), for a 1-d block."""
    edges = d.edges
    t = np.clip(tvals, edges[0], edges[-1])
    idx = np.clip(np.searchsorted(edges, t, side="right") - 1, 0, len(edges) - 2)
    partial = _panel_integral(d.set, d.lebesgue_coeffs, d.gmax, edges[idx], t)
    out = (d.cum[idx] + partial) / d.cum[-1]
    out = np.where(tvals <= edges[0], 0.0, out)
    out = np.where(tvals >= edges[-1], 1.0, out)
    return np.clip(out, 0.0, 1.0)


def cdf(d, x):
    """CDF at x (vectorized), read off the density's CDF grid."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ArgumentError("CDF argument must be finite")
    if np.any(x < 0):
        raise ArgumentError("CDF argument must be nonnegative")
    with np.errstate(divide="ignore"):
        t = np.where(x > 0, np.log(np.maximum(x, 1e-300)), -np.inf)
    # [()] makes a 0-d result a scalar
    return _blockwise(_cdf_t, d, t.ravel()).reshape(x.shape)[()]


def _newton_t(d, u):
    """log of the quantiles at u (a 1-d block), before the monotone pass."""
    oset, c, gmax = d.set, d.lebesgue_coeffs, d.gmax
    edges, cum, tail = d.edges, d.cum, d.tail
    upper = u > 0.5
    mass = np.where(upper, 1.0 - u, u) * cum[-1]
    last = len(edges) - 2
    # below 1/2: cum[i] < mass <= cum[i + 1], counted from edges[i];
    # above: tail[j] <= mass < tail[j + 1], panel last - j, counted
    # from its right edge, so the signed target is negative
    i = np.clip(np.searchsorted(cum, mass, side="left") - 1, 0, last)
    j = np.clip(np.searchsorted(tail, mass, side="right") - 1, 0, last)
    idx = np.where(upper, last - j, i)
    lo, hi = edges[idx], edges[idx + 1]
    anchor = np.where(upper, hi, lo)
    target = np.where(upper, tail[j] - mass, mass - cum[i])
    t = np.clip(anchor + target / d.panel_ints[idx] * (hi - lo), lo, hi)
    tol = _QUANTILE_RESIDUAL * mass
    active = np.arange(u.size)
    for _ in range(_QUANTILE_ROUNDS):
        if active.size == 0:
            break
        ta = t[active]
        r = _panel_integral(oset, c, gmax, anchor[active], ta) - target[active]
        density = np.exp(_log_weight(oset, c, ta) - gmax)
        below = r < 0.0
        a = np.where(below, ta, lo[active])
        b = np.where(below, hi[active], ta)
        lo[active], hi[active] = a, b
        with np.errstate(divide="ignore", invalid="ignore"):
            step = -r / density
        newton = (ta + step > a) & (ta + step < b)
        fit = np.abs(r) <= tol[active]
        t[active] = np.where(fit, ta, np.where(newton, ta + step, 0.5 * (a + b)))
        done = fit | (newton & (np.abs(step) <= _QUANTILE_STEP)) | (b - a <= _QUANTILE_STEP)
        active = active[~done]
    return t


def quantile(d, u):
    """Monotone inverse of the CDF (vectorized), to 1e-10 absolute
    tolerance in probability (a residual below 1e-13 of min(u, 1 - u)).

    One searchsorted finds each point's panel of the CDF grid, from
    the left for u <= 1/2 and from the right above, so no tail is read
    off a difference near 1.  Safeguarded Newton in t = log x then
    solves for the panel's partial Gauss-Legendre integral, whose
    derivative is the density: a step leaving the point's bracket, or
    dividing by a zero density, is a bisection step.  A point stops on
    a step or bracket below 1e-9 in t or on the residual bound.  Each
    point is solved on its own, in bits that do not depend on its
    position in u, so equal u get equal values; a running maximum in
    u order then keeps the result monotone across neighbouring u.

    u must lie in [e^-_TAIL_CUT_NATS, 1) = [8.8e-27, 1): the CDF grid
    starts about 80 nats below the log-weight's peak and drops the mass
    below that edge, so a smaller u would get a value near the edge
    instead of its quantile (callers clip u at 1e-16).
    """
    u_arr = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(u_arr)):
        raise ArgumentError("quantile argument must be finite")
    if np.any((u_arr < _QUANTILE_U_MIN) | (u_arr >= 1.0)):
        raise ArgumentError("quantile argument must lie in [%.2g, 1)" % _QUANTILE_U_MIN)
    uf = u_arr.ravel()
    t = _blockwise(_newton_t, d, uf)
    order = np.argsort(uf, kind="stable")
    t[order] = np.maximum.accumulate(t[order])
    out = np.exp(t).reshape(u_arr.shape)
    return float(out) if u_arr.ndim == 0 else out


def log_prob_interval(d, a, b):
    """log P(a < X < b) under d, computed in log space (no cancellation).

    The tilt-statistics grid integrates over a bracket inside
    [log a, log b], cut relative to the integrand's maximum there, so an
    interval deep in a tail keeps its relative accuracy.  An interval
    narrower in t than 1e10 spacings of its larger |log| end raises
    QuadratureError: the rounding of the two logs alone would move its
    width by more than the 1e-10 tolerance."""
    if not (0.0 <= a < b):
        raise ArgumentError("need 0 <= a < b")
    c = d.lebesgue_coeffs
    gfun = lambda t: _log_weight(d.set, c, t)
    t_min = np.log(a) if a > 0.0 else -np.inf
    t_max = np.log(b)
    if a > 0.0 and t_max - t_min < 1e10 * np.spacing(max(abs(t_min), abs(t_max))):
        raise QuadratureError(
            "interval has no resolvable support in t = log x: width %r is "
            "below 1e10 spacings of its ends" % float(t_max - t_min)
        )
    t_lo, t_hi, gmax = _bracket(gfun, _TAIL_CUT_NATS + 10.0, t_min, t_max)
    return _refined_stats(d.set, c, gfun, gmax, t_lo, t_hi, 0)[0] - d.log_norm
