"""Sampling on the constraint shell and from tilted product measures.

Three sources of configurations:
  * run_chain  - Metropolis chain on the shell with single-coordinate
    Gaussian proposals; the bare shell-indicator acceptance is exact
    detailed balance for the uniform distribution on the shell, and an
    optional reference density turns the target into the conditioned
    product measure (acceptance ratio times the coordinate density
    ratio, still exact).  Its steps run in the C kernel _chain.c, built
    on first use into the package's one kernel library (_kernel).
  * sample_tilted - i.i.d. coordinates from a tilted density by quantile
    inversion.
  * brute_force_conditional - exact small-n marginal of the uniform
    measure on the shell by interval intersection, the acceptance
    oracle for the chain.

All randomness flows from an explicit per-chain seed through
numpy's PCG64 generator; identical inputs give identical batches.
save_batch_csv writes a batch's states, means and order parameter (from
diagnostics.max_stats) through diagnostics._write_csv as one float
matrix, so the kernel library's shortest round-trip formatter writes
every cell's repr.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernel
from . import diagnostics as diag
from . import dual_solver as dual
from . import quadrature as quad
from .errors import (
    ArgumentError,
    EmptyShell,
    FeasibilityError,
    MixingFailure,
)

__all__ = [
    "ShellSpec",
    "ChainParams",
    "SampleBatch",
    "DensityTable",
    "shell_residual",
    "feasible_point",
    "run_chain",
    "merge_batches",
    "sample_tilted",
    "brute_force_conditional",
    "save_batch_csv",
]

# run_chain's steps run in _chain.c's chain_chunk, _CHUNK steps a call
_CHUNK = 16384

# brute force's fixed rules: Gauss-Legendre nodes per x_1 cell, uniform
# x_2 cells and their nodes (n = 3), and the most (x_1, x_2) node pairs
# evaluated at once
_X1_RULE = np.polynomial.legendre.leggauss(4)
_X2_CELLS = 400
_X2_RULE = np.polynomial.legendre.leggauss(2)
_BLOCK = 1 << 16


@dataclass(frozen=True)
class ShellSpec:
    """The constraint shell: x in (0,inf)^n with every empirical mean
    (1/n) sum_j phi_i(x_j) within delta of a_i."""

    set: object
    n: int
    delta: float
    a: tuple

    def __post_init__(self):
        if not (self.n >= 1 and 0 < self.delta < math.inf):
            raise ArgumentError("need n >= 1 and a finite delta > 0")
        if len(self.a) != self.set.k:
            raise ArgumentError("need k target levels")


@dataclass(frozen=True)
class ChainParams:
    burn_in: int = 20000
    thin: int = 10
    step_scale: float = 0.5
    n_states: int = 1000
    # fraction of proposals that transpose two coordinates; transpositions
    # leave the shell constraints and any product reference invariant, so
    # they are always accepted and restore irreducibility when the shell
    # splits into permutation-related components; below 1, since a chain
    # of transpositions alone only permutes its start
    swap_prob: float = 0.05

    def __post_init__(self):
        for bound, ok in (
            ("burn_in >= 0", self.burn_in >= 0),
            ("thin >= 1", self.thin >= 1),
            ("n_states >= 1", self.n_states >= 1),
            ("step_scale > 0", self.step_scale > 0),
            ("0 <= swap_prob < 1", 0 <= self.swap_prob < 1),
        ):
            if not ok:
                raise ArgumentError("need " + bound)


@dataclass
class SampleBatch:
    states: np.ndarray  # (n_states, n)
    seed: int
    acceptance_rate: float
    shell_residuals: np.ndarray
    spec: ShellSpec = None
    params: ChainParams = None
    reference_p: Optional[tuple] = None
    step_scale_final: float = 0.0


@dataclass
class DensityTable:
    x: np.ndarray
    pdf: np.ndarray
    cdf: np.ndarray
    widths: np.ndarray


def shell_residual(spec, x):
    """max_i |(1/n) sum_j phi_i(x_j) - a_i|."""
    means = spec.set.phi(x).mean(axis=1)
    return float(np.max(np.abs(means - np.asarray(spec.a))))


def feasible_point(spec):
    """A configuration inside the shell.

    The coordinates start at quantiles of the limiting marginal, except
    that for n >= 2 with a positive surplus (PhaseReport.surplus) one
    spike coordinate absorbs n times the surplus of the last observable.
    A damped Gauss-Newton sweep on the residual vector then pulls the
    configuration into the shell.
    """
    report = dual.classify(spec.set, spec.a)
    if report.regime == "INADMISSIBLE":
        raise FeasibilityError("targets inadmissible: no shell to sample")
    marginal = dual.limiting_marginal(spec.set, spec.a, report=report)
    n, k = spec.n, spec.set.k

    if report.surplus > 0 and n >= 2:
        bulk = quad.quantile(marginal, (np.arange(n - 1) + 0.5) / (n - 1))
        spike = (n * report.surplus) ** (1.0 / spec.set.exponents[-1])
        x = np.concatenate([np.atleast_1d(bulk), [spike]])
    else:
        x = np.atleast_1d(quad.quantile(marginal, (np.arange(n) + 0.5) / n))
    x = np.maximum(x, 1e-10)

    a = np.asarray(spec.a)
    # damped Gauss-Newton in log coordinates: multiplicative updates keep
    # every coordinate positive and leave small coordinates nearly fixed
    y = np.log(x)
    for _ in range(500):
        x = np.exp(y)
        vals = spec.set.phi(x)
        r = vals.mean(axis=1) - a
        if np.max(np.abs(r)) <= 0.5 * spec.delta:
            return x
        jac = spec.set.dphi(x) * x / n  # (k, n)
        gram = jac @ jac.T
        try:
            lam = np.linalg.solve(gram, -r)
        except np.linalg.LinAlgError:
            lam = np.linalg.solve(gram + 1e-12 * np.eye(k), -r)
        dy = jac.T @ lam  # minimum-norm correction in log space
        cap = float(np.max(np.abs(dy)))
        if cap > 1.0:
            dy /= cap
        alpha = 1.0
        cur = np.max(np.abs(r))
        for _ in range(40):
            trial = y + alpha * dy
            vals_t = spec.set.phi(np.exp(trial))
            r_t = np.max(np.abs(vals_t.mean(axis=1) - a))
            if r_t < cur:
                y = trial
                break
            alpha *= 0.5
        else:
            raise FeasibilityError("Gauss-Newton refinement stalled")
    raise FeasibilityError("did not reach the shell in 500 refinement steps")


def run_chain(spec, params, seed, reference=None):
    """Metropolis chain on the shell.

    With reference=None the target is the uniform distribution on the
    shell (acceptance = shell indicator, exact detailed balance for the
    symmetric proposal).  With a TiltedDensity reference the target is
    the product reference measure conditioned on the shell.  Step size
    adapts toward a 0.3 acceptance rate during burn-in only and is frozen
    afterwards, preserving exactness of the recorded states.

    The steps run in _chain.c, _CHUNK at a time, on random numbers drawn
    here per chunk; a chain's bytes depend only on (spec, params, seed,
    reference).
    """
    n, k = spec.n, spec.set.k
    ref_c = None
    if reference is not None:
        ref_c = np.asarray(reference.lebesgue_coeffs, dtype=float)
        if ref_c.shape != (k,):
            raise ArgumentError("need a reference density on the shell's k observables")
    x = np.array(feasible_point(spec), dtype=float)
    exps = np.asarray(spec.set.exponents, dtype=float)
    a = np.asarray(spec.a, dtype=float)

    rng = np.random.Generator(np.random.PCG64(seed))
    log_step = math.log(params.step_scale)
    step = np.array([log_step, math.exp(log_step)])
    count = np.zeros(6, dtype=np.int64)
    sums, deltas = np.empty(k), np.empty(k)
    states = np.empty((params.n_states, n))
    residuals = np.empty(params.n_states)
    total_steps = params.burn_in + params.n_states * params.thin

    chunk = _kernel.library().chain_chunk
    for done in range(0, total_steps, _CHUNK):
        todo = min(_CHUNK, total_steps - done)
        idxs = rng.integers(0, n, size=todo)
        idxs2 = rng.integers(0, n, size=todo)
        kinds = rng.random(todo) < params.swap_prob
        noises = rng.standard_normal(todo)
        unifs = rng.random(todo)
        buffers = (exps, a, ref_c, idxs, idxs2, kinds, noises, unifs,
                   x, sums, deltas, step, count, states, residuals)
        chunk(n, k, spec.delta, params.burn_in, params.thin, done, todo,
              *[None if b is None else b.ctypes.data for b in buffers])

    post_steps, accepted_post, recorded = (int(c) for c in count[3:])
    acc_rate = accepted_post / max(post_steps, 1)
    step = float(step[1])
    if acc_rate < 1e-3:
        raise MixingFailure(
            "acceptance rate %.2e after adaptation" % acc_rate,
            diagnostics={"step": step, "n": n, "delta": spec.delta},
        )
    return SampleBatch(
        states=states[:recorded],
        seed=int(seed),
        acceptance_rate=float(acc_rate),
        shell_residuals=residuals[:recorded],
        spec=spec,
        params=params,
        reference_p=None if reference is None else tuple(reference.p),
        step_scale_final=step,
    )


def merge_batches(batches):
    """Concatenate completed batches from distinct seeds."""
    if not batches:
        raise ArgumentError("no batches to merge")
    first = batches[0]
    return SampleBatch(
        states=np.concatenate([b.states for b in batches]),
        seed=first.seed,
        acceptance_rate=float(np.mean([b.acceptance_rate for b in batches])),
        shell_residuals=np.concatenate([b.shell_residuals for b in batches]),
        spec=first.spec,
        params=first.params,
        reference_p=first.reference_p,
        step_scale_final=first.step_scale_final,
    )


def sample_tilted(d, n, count, seed):
    """count i.i.d. configurations of n coordinates from the tilted
    density, by quantile inversion; deterministic given seed."""
    rng = np.random.Generator(np.random.PCG64(seed))
    u = rng.random((count, n))
    u = np.clip(u, 1e-16, 1.0 - 1e-16)
    return quad.quantile(d, u.ravel()).reshape(count, n)


def _gauss_cells(edges, rule):
    """Gauss-Legendre nodes and weights on the cells between edges,
    flattened cell by cell."""
    half = 0.5 * np.diff(edges)[:, None]
    return (edges[:-1, None] + half * (rule[0] + 1.0)).ravel(), (half * rule[1]).ravel()


def brute_force_conditional(spec):
    """Exact coordinate-1 marginal of the uniform measure on the shell,
    n in {2, 3}.  Every phi_i increases, so with the other coordinates
    fixed at sums s_i of phi_i, the last one lies in [max_i b_i, min_i t_i]
    with b_i, t_i = ((n(a_i -+ delta) - s_i)_+)^(1/e_i).  Fixed
    Gauss-Legendre rules integrate its length over x_2 (n = 3) and over
    x_1 on 3000 (n = 2) or 300 (n = 3) log-spaced cells, the first from
    0, so cdf at each right edge is exact to the rules.  widths are the
    cells' widths, the first from 0, so that their running sum gives the
    right edges and pdf (mass over width) times width each cell's mass;
    x holds the geometric-mean centres of the log grid's cells, the
    first taken from its left end 1e-3 x_max."""
    if spec.n not in (2, 3):
        raise ArgumentError("brute force supports n in {2, 3}")
    n, k, exps = spec.n, spec.set.k, spec.set.exponents
    a = np.asarray(spec.a)
    lo, hi = n * (a - spec.delta), n * (a + spec.delta)
    # no coordinate exceeds the caps hi_i^(1/e_i)
    x_max = 1.0001 * min(h ** (1.0 / e) for e, h in zip(exps, hi))
    edges = np.geomspace(1e-3 * x_max, x_max, (3000 if n == 2 else 300) + 1)
    cells = np.concatenate([[0.0], edges[1:]])
    x1, w1 = _gauss_cells(cells, _X1_RULE)

    # product rule over the middle coordinates x_2 .. x_{n-1}: their phi
    # sums and weights, a single node of sum 0 at n = 2
    sums, weights = np.zeros((k, 1)), np.ones(1)
    x2, w2 = _gauss_cells(np.linspace(0.0, x_max, _X2_CELLS + 1), _X2_RULE)
    for _ in range(n - 2):
        sums = (sums[:, :, None] + spec.set.phi(x2)[:, None, :]).reshape(k, -1)
        weights = np.outer(weights, w2).ravel()

    rows = max(1, _BLOCK // weights.size)
    density = []
    for start in range(0, x1.size, rows):
        s = spec.set.phi(x1[start:start + rows])[:, :, None] + sums[:, None, :]
        bottom = [np.maximum(b - v, 0.0) ** (1.0 / e) for e, v, b in zip(exps, s, lo)]
        top = [np.maximum(t - v, 0.0) ** (1.0 / e) for e, v, t in zip(exps, s, hi)]
        length = np.min(top, axis=0) - np.max(bottom, axis=0)
        density.append(np.maximum(length, 0.0) @ weights)
    mass = np.sum((np.concatenate(density) * w1).reshape(edges.size - 1, -1), axis=1)
    total = float(np.sum(mass))
    if total <= 0.0:
        raise EmptyShell("the shell has no volume")
    widths = np.diff(cells)
    cdf = np.minimum(np.cumsum(mass) / total, 1.0)
    x = np.sqrt(edges[:-1] * edges[1:])
    return DensityTable(x=x, pdf=mass / total / widths, cdf=cdf, widths=widths)


def save_batch_csv(batch, csv_path):
    """Persist a batch as CSV: one row per state with its index, its
    coordinates, its empirical means S_i and its max statistic M, every
    float cell as its repr.  The cells go to diagnostics._write_csv as
    one float matrix, which the kernel library's formatter writes block
    by block."""
    spec = batch.spec
    k = spec.set.k
    means = spec.set.phi(batch.states).mean(axis=2).T
    M, _ = diag.max_stats(batch)
    header = (
        ["state"]
        + ["x%d" % (j + 1) for j in range(spec.n)]
        + ["S%d" % (i + 1) for i in range(k)]
        + ["max_stat"]
    )
    diag._write_csv(csv_path, header, np.column_stack((batch.states, means, M)))
