"""Sample diagnostics: marginal distances, the order parameters,
tail-rate estimates at the scalings n and n^gamma, and the CSV writer of
every result table.

The order parameters of a batch are two arrays with one entry per state:
M, the largest share max_j phi_k(x_j)/n, and N, the second largest;
max_stats alone computes them.  The two tail scalings probe the
asymmetry of M in the localized regime: its upper tail decays
exponentially in n while its lower tail decays only like
exp(-c n^gamma) with gamma the growth exponent of the slowest
constraint.

_write_csv is the one place that decides the CSV format of result
files: comma-separated cells, "\r\n" line ends, floats as repr.  A
float matrix (a sample CSV's cells) is formatted in C by the kernel
library; mixed rows are joined in Python and need no compiler.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernel
from . import quadrature as quad
from .errors import ArgumentError

__all__ = [
    "TailRateEstimate",
    "AppendixReport",
    "ks_distance",
    "max_stats",
    "tail_rate",
    "appendix_checks",
    "default_epsilon",
]


@dataclass(frozen=True)
class TailRateEstimate:
    scaling: str  # "LINEAR_N" or "POWER_GAMMA"
    gamma: Optional[float]
    event: str
    n: int
    estimate: float  # (1/g(n)) log p_hat
    successes: int
    trials: int
    ci: tuple  # Wilson interval transported through the log
    censored: bool


@dataclass
class AppendixReport:
    rows: list
    passed_decay_to_zero: bool  # (1/n) log prob shrinks in magnitude
    passed_gamma_bound: bool  # (1/n^gamma) log prob >= p_m M^gamma
    passed_envelope: bool  # MC partial-sum tails under the gamma envelope
    skipped: list


def _reference_cdf(reference, xs):
    if isinstance(reference, quad.TiltedDensity):
        return quad.cdf(reference, xs)
    # tabulated density: cdf[i] is the mass up to cell i's right edge,
    # the running sum of the widths, and the first cell starts at 0
    grid_x = np.concatenate([[0.0], np.cumsum(reference.widths)])
    grid_cdf = np.concatenate([[0.0], reference.cdf])
    return np.interp(xs, grid_x, grid_cdf, left=0.0, right=1.0)


def ks_distance(samples, reference):
    """Sup distance between the sample ECDF and a reference law (a
    TiltedDensity, CDF by quadrature, or a brute-force DensityTable)."""
    samples = np.sort(np.asarray(samples, dtype=float))
    if samples.size == 0:
        raise ArgumentError("empty sample")
    ref = _reference_cdf(reference, samples)
    n = samples.size
    upper = np.arange(1, n + 1) / n - ref
    lower = ref - np.arange(0, n) / n
    return float(max(np.max(upper), np.max(lower), 0.0))


def max_stats(batch):
    """Order parameters (M, N): per-state arrays of the largest and the
    second-largest phi_k(x_j)/n.  N equals M on a tie and is 0 at n = 1."""
    spec = batch.spec
    vals = batch.states ** spec.set.exponents[-1] / spec.n
    if vals.shape[1] == 1:
        return vals[:, 0].copy(), np.zeros(len(vals))
    top = np.partition(vals, -2, axis=1)
    # contiguous copies, so that means over them sum in the same order as
    # over a freshly built array, and the (states, n) array can be freed
    return top[:, -1].copy(), top[:, -2].copy()


def default_epsilon(surplus):
    """Scale-aware event threshold: a tenth of a positive surplus a_k - g2
    (PhaseReport.surplus), plain 0.1 otherwise."""
    return 0.1 * surplus if surplus > 0 else 0.1


def _wilson(successes, trials, z=1.96):
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return max(center - half, 0.0), min(center + half, 1.0)


def tail_rate(maxima, event, scaling, gamma=None, event_label=""):
    """(1/g(n)) log of the empirical event probability across an n-sweep.

    maxima holds one (n, M) pair per n, M the order-parameter array of
    max_stats; event maps M to a boolean array.
    scaling "LINEAR_N" uses g(n) = n, "POWER_GAMMA" uses g(n) = n^gamma.
    A zero count is reported as the censored plug-in 1/trials.
    """
    if len(maxima) < 2:
        raise ArgumentError("need at least two values of n")
    if scaling == "POWER_GAMMA" and gamma is None:
        raise ArgumentError("POWER_GAMMA scaling needs gamma")
    out = []
    for n, M in maxima:
        trials = M.size
        if trials == 0:
            raise ArgumentError("batch has zero recorded states")
        successes = int(np.count_nonzero(event(M)))
        g = float(n) if scaling == "LINEAR_N" else float(n) ** gamma
        censored = successes == 0
        p_hat = successes / trials if not censored else 1.0 / trials
        estimate = math.log(p_hat) / g
        lo, hi = _wilson(max(successes, 1), trials)
        lo = max(lo, 1.0 / (10 * trials))
        ci = (math.log(lo) / g, math.log(hi) / g)
        out.append(
            TailRateEstimate(
                scaling=scaling,
                gamma=gamma,
                event=event_label,
                n=n,
                estimate=float(min(estimate, 0.0)),
                successes=successes,
                trials=trials,
                ci=(float(ci[0]), float(min(ci[1], 0.0))),
                censored=censored,
            )
        )
    return out


def appendix_checks(obs_set, d, Ms=(0.5, 1.0, 2.0), eps=0.1, ns=(100, 1000, 10000),
                    theta=0.1, mc_samples=100000, seed=20240901):
    """Quadrature checks of the one-coordinate tail estimates.

    Requires a reduced-regime tilt: the largest Lebesgue coefficient
    index m has c_m < 0.  With q(n, M) = P(|phi_k(X)/n - M| < eps):

      (i)   |log q| / n decreases toward 0 along the n grid,
      (ii)  log q / n^gamma_m >= c_m M^gamma_m at every grid point,
      (iii) Monte Carlo tails of j-fold partial sums of phi_m stay below
            a gamma-type envelope with log-slope c_m + theta.

    Check (ii) is the finite-n form of a lim inf bound, evaluated per grid
    point: the prefactor of q is not yet negligible at small n, so
    passed_gamma_bound is expected to be False on grids with small n (for
    the exp(1) reference it fails at (M, n) = (2, 100)).  The rows carry
    each scaled value for checks along n.
    """
    c = np.asarray(d.lebesgue_coeffs, dtype=float)
    nz = np.nonzero(c)[0]
    if nz.size == 0:
        raise ArgumentError("tilt has no nonzero Lebesgue coefficient")
    m_idx = int(nz[-1])  # zero-based
    p_m = float(c[m_idx])
    if p_m >= 0:
        raise ArgumentError("largest nonzero coefficient must be negative")
    e_k = obs_set.exponents[-1]
    gamma_m = obs_set.exponents[m_idx] / e_k

    rows, skipped = [], []
    ok_zero, ok_bound = True, True
    for M in Ms:
        per_n = []
        for n in ns:
            lo_v = max((M - eps) * n, 0.0)
            hi_v = (M + eps) * n
            lo_x = lo_v ** (1.0 / e_k) if lo_v > 0 else 0.0
            hi_x = hi_v ** (1.0 / e_k)
            logq = quad.log_prob_interval(d, lo_x, hi_x)
            if logq < -300.0 * math.log(10.0):
                skipped.append({"M": M, "n": n, "logq": logq})
                continue
            scaled_linear = logq / n
            scaled_gamma = logq / n ** gamma_m
            bound = p_m * M ** gamma_m
            ok_bound &= scaled_gamma >= bound
            per_n.append(abs(scaled_linear))
            rows.append(
                {
                    "M": M,
                    "n": n,
                    "logq": logq,
                    "linear_scaled": scaled_linear,
                    "gamma_scaled": scaled_gamma,
                    "gamma_bound": bound,
                }
            )
        ok_zero &= all(b < a for a, b in zip(per_n, per_n[1:]))

    ok_env = _envelope_check(obs_set, d, m_idx, p_m, theta, mc_samples, seed)
    return AppendixReport(
        rows=rows,
        passed_decay_to_zero=bool(ok_zero),
        passed_gamma_bound=bool(ok_bound),
        passed_envelope=bool(ok_env),
        skipped=skipped,
    )


def _envelope_check(obs_set, d, m_idx, p_m, theta, mc_samples, seed):
    """Monte Carlo check that j-fold partial sums of phi_m have tails
    below M^{j-1} exp((p_m + theta) M) up to a fitted constant."""
    rng = np.random.Generator(np.random.PCG64(seed))
    u = np.clip(rng.random(mc_samples), 1e-16, 1 - 1e-16)
    draws = quad.quantile(d, u)
    phi_m = draws ** obs_set.exponents[m_idx]
    ok = True
    for j in (1, 2, 3):
        sums = phi_m[: (mc_samples // j) * j].reshape(-1, j).sum(axis=1)
        med = float(np.median(sums))
        M_grid = med + np.linspace(0.0, 6.0, 13) * max(med, 1.0)
        freqs = np.array([(sums > M).mean() for M in M_grid])
        keep = freqs > 0
        if keep.sum() < 2:
            continue
        Ms = M_grid[keep]
        # log of frequency minus log of envelope shape; the envelope
        # constant is fitted at the smallest probed level
        r = np.log(freqs[keep]) - (j - 1) * np.log(Ms) - (p_m + theta) * Ms
        log_c = r[0] + 0.5
        ok &= bool(np.all(r <= log_c))
    return ok


def _write_csv(path, header, rows):
    """Write the header and then each row as one line of comma-joined
    cells ending in "\r\n".

    rows is either an iterable of rows, whose cells are Python ints,
    strs and floats (str of a float is its repr), streamed row by row; or
    a 2-D float array, each line its row number and then its cells as
    their repr, written by the kernel library's formatter
    (_kernel.write_rows), which needs a C compiler on first use.  Both
    give the bytes of csv.writer for cells that need no quoting (no
    comma, quote or line break), as every result cell is."""
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        if isinstance(rows, np.ndarray):
            _kernel.write_rows(fh, rows)
        else:
            for row in rows:
                fh.write((",".join(map(str, row)) + "\r\n").encode())
