"""Stable evaluation of tilted partition functions, moments and densities.

All integrals over (0, inf) are computed after the substitution x = e^t,
in log space with the exponent maximum subtracted before exponentiation,
so that arbitrarily scaled tilts never overflow.  Tails are truncated
where the log-integrand falls a fixed number of nats below its maximum.
One rule integrates: a composite Gauss-Legendre grid in t, refined
until two grids agree to 1e-10 relative.  It gives the statistics of a
tilt (log Z, moments, covariance) over the bracketed support, and
interval probabilities over the part of the interval within the tail
cut of the interval's own maximum.  A tilted density caches its CDF on
a fixed panel grid; quantile inverts that grid by safeguarded Newton in
t inside each point's panel, to 1e-10 in probability.

The reference measure is lambda = (1/Z) exp(-phi_1(x)) dx, so a tilt
vector p corresponds to the Lebesgue density

    x  |->  exp(c_1 phi_1(x) + ... + c_k phi_k(x)) / Z_tilde,

with Lebesgue coefficients c_1 = p_1 - 1 and c_i = p_i for i >= 2.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError, DomainError, QuadratureError

__all__ = [
    "TiltedDensity",
    "in_domain",
    "log_partition",
    "moments",
    "covariance",
    "tilted_density",
    "density_at",
    "log_density_at",
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
_QUANTILE_BLOCK = 8192  # points per Newton block: bounds the temporaries


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
        for i, ci in enumerate(c):
            if ci != 0.0:
                g = g + ci * obs_set.items[i].eval(x)
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
    phi = np.array([obs_set.items[i].eval(x) for i in range(m)]).reshape(m, x.size)
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
    phi_hi = [ob.eval(np.exp(t_hi)) for ob in obs_set.items]
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
    log_norm = log Z_tilde.  A CDF cache is built once at construction
    (single-threaded warm-up); afterwards cdf/quantile calls are pure.
    """

    set: object
    p: tuple
    log_norm: float
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def lebesgue_coeffs(self):
        return lebesgue_coefficients(self.set, self.p)


def tilted_density(obs_set, p):
    """Construct a normalized TiltedDensity, warming its CDF cache."""
    c = _checked_coefficients(obs_set, p)
    log_norm = _tilt_stats(obs_set, c, 0)[0]
    d = TiltedDensity(set=obs_set, p=tuple(float(v) for v in p), log_norm=log_norm)
    _warm_cdf_cache(d, c)
    return d


def _warm_cdf_cache(d, c):
    gfun = lambda t: _log_weight(d.set, c, t)
    t_lo, t_hi, gmax = _bracket(gfun, _TAIL_CUT_NATS + 20.0)
    edges = np.linspace(t_lo, t_hi, _CDF_PANELS + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    halves = 0.5 * (edges[1:] - edges[:-1])
    # (panels, nodes) evaluation of the scaled integrand
    tt = mids[:, None] + halves[:, None] * _GL_NODES[None, :]
    vals = np.exp(gfun(tt) - gmax)
    panel_ints = halves * (vals @ _GL_WEIGHTS)
    cum = np.concatenate([[0.0], np.cumsum(panel_ints)])
    # mass of the last j panels, summed from the right: 1 - u is exact
    # for u >= 1/2, so the upper half is inverted without cancellation
    tail = np.concatenate([[0.0], np.cumsum(panel_ints[::-1])])
    total = cum[-1]
    if total <= 0.0:
        raise QuadratureError("CDF cache underflowed")
    d._cache.update(
        {
            "edges": edges,
            "cum": cum,
            "tail": tail,
            "panel_ints": panel_ints,
            "total": total,
            "gmax": gmax,
            "c": c,
        }
    )


def _cdf_t(d, tvals):
    """Vectorized CDF evaluated at t = log(x)."""
    cache = d._cache
    edges, cum, total, gmax, c = (
        cache["edges"],
        cache["cum"],
        cache["total"],
        cache["gmax"],
        cache["c"],
    )
    tvals = np.asarray(tvals, dtype=float)
    t = np.clip(tvals, edges[0], edges[-1])
    idx = np.clip(np.searchsorted(edges, t, side="right") - 1, 0, len(edges) - 2)
    lo = edges[idx]
    mid = 0.5 * (lo + t)
    half = 0.5 * (t - lo)
    tt = mid[..., None] + half[..., None] * _GL_NODES
    gfun = lambda z: _log_weight(d.set, c, z)
    vals = np.exp(gfun(tt) - gmax)
    partial = half * (vals @ _GL_WEIGHTS)
    out = (cum[idx] + partial) / total
    out = np.where(tvals <= edges[0], 0.0, out)
    out = np.where(tvals >= edges[-1], 1.0, out)
    return np.clip(out, 0.0, 1.0)


def log_density_at(d, x):
    """Log of the Lebesgue density at x > 0 (vectorized)."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ArgumentError("density support is (0, inf)")
    c = d.lebesgue_coeffs
    g = np.zeros_like(x)
    for i, ci in enumerate(c):
        if ci != 0.0:
            g = g + ci * d.set.items[i].eval(x)
    return g - d.log_norm


def density_at(d, x):
    """Lebesgue density at x > 0 (vectorized)."""
    return np.exp(log_density_at(d, x))


def cdf(d, x):
    """CDF at x (vectorized); uses the warmed panel cache."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ArgumentError("CDF argument must be finite")
    if np.any(x < 0):
        raise ArgumentError("CDF argument must be nonnegative")
    with np.errstate(divide="ignore"):
        t = np.where(x > 0, np.log(np.maximum(x, 1e-300)), -np.inf)
    return _cdf_t(d, t)


def _newton_t(d, u):
    """log of the quantiles at u (a 1-d block), before the monotone pass."""
    cache = d._cache
    edges, cum, tail, gmax = cache["edges"], cache["cum"], cache["tail"], cache["gmax"]
    gfun = lambda z: _log_weight(d.set, cache["c"], z)
    upper = u > 0.5
    mass = np.where(upper, 1.0 - u, u) * cache["total"]
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
    t = np.clip(anchor + target / cache["panel_ints"][idx] * (hi - lo), lo, hi)
    tol = _QUANTILE_RESIDUAL * mass
    active = np.arange(u.size)
    for _ in range(_QUANTILE_ROUNDS):
        if active.size == 0:
            break
        ta, ea = t[active], anchor[active]
        half = 0.5 * (ta - ea)
        tt = np.concatenate(
            [(0.5 * (ta + ea))[:, None] + half[:, None] * _GL_NODES, ta[:, None]],
            axis=1,
        )
        vals = np.exp(gfun(tt) - gmax)
        r = half * (vals[:, :-1] @ _GL_WEIGHTS) - target[active]
        below = r < 0.0
        a = np.where(below, ta, lo[active])
        b = np.where(below, hi[active], ta)
        lo[active], hi[active] = a, b
        with np.errstate(divide="ignore", invalid="ignore"):
            step = -r / vals[:, -1]
        newton = (ta + step > a) & (ta + step < b)
        fit = np.abs(r) <= tol[active]
        t[active] = np.where(fit, ta, np.where(newton, ta + step, 0.5 * (a + b)))
        done = fit | (newton & (np.abs(step) <= _QUANTILE_STEP)) | (b - a <= _QUANTILE_STEP)
        active = active[~done]
    return t


def quantile(d, u):
    """Monotone inverse of the CDF (vectorized), to 1e-10 absolute
    tolerance in probability (a residual below 1e-13 of min(u, 1 - u)).

    One searchsorted finds each point's panel of the cached grid, from
    the left for u <= 1/2 and from the right above, so no tail is read
    off a difference near 1.  Safeguarded Newton in t = log x then
    solves for the panel's partial Gauss-Legendre integral, whose
    derivative is the density: a step leaving the point's bracket, or
    dividing by a zero density, is a bisection step.  A point stops on
    a step or bracket below 1e-9 in t or on the residual bound; points
    are independent, so a running maximum in u order keeps the result
    monotone.

    No value falls below the cached grid's lower edge, about 80 nats
    below the log-weight's peak: for exp(1), quantile(d, 1e-300) is
    6.4e-36 and the relative error in x is 6.4e-9 at u = 1e-27, though
    the 1e-10 bound in probability holds (callers clip u at 1e-16).
    """
    u_arr = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(u_arr)):
        raise ArgumentError("quantile argument must be finite")
    if np.any((u_arr <= 0.0) | (u_arr >= 1.0)):
        raise ArgumentError("quantile argument must lie in (0, 1)")
    uf = u_arr.ravel()
    t = np.empty(uf.size)
    for s in range(0, uf.size, _QUANTILE_BLOCK):
        t[s : s + _QUANTILE_BLOCK] = _newton_t(d, uf[s : s + _QUANTILE_BLOCK])
    order = np.argsort(uf, kind="stable")
    t[order] = np.maximum.accumulate(t[order])
    out = np.exp(t).reshape(u_arr.shape)
    return float(out) if u_arr.ndim == 0 else out


def log_prob_interval(d, a, b):
    """log P(a < X < b) under d, computed in log space (no cancellation).

    The tilt-statistics grid integrates over a bracket inside
    [log a, log b], cut relative to the integrand's maximum there, so an
    interval deep in a tail keeps its relative accuracy."""
    if not (0.0 <= a < b):
        raise ArgumentError("need 0 <= a < b")
    c = d.lebesgue_coeffs
    gfun = lambda t: _log_weight(d.set, c, t)
    t_min = np.log(a) if a > 0.0 else -np.inf
    t_lo, t_hi, gmax = _bracket(gfun, _TAIL_CUT_NATS + 10.0, t_min, np.log(b))
    return _refined_stats(d.set, c, gfun, gmax, t_lo, t_hi, 0)[0] - d.log_norm
