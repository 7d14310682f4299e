"""Sampling on the constraint shell and from tilted product measures.

Three sources of configurations:
  * run_chain  - Metropolis chain on the shell with single-coordinate
    Gaussian proposals; the bare shell-indicator acceptance is exact
    detailed balance for the uniform distribution on the shell, and an
    optional reference density turns the target into the conditioned
    product measure (acceptance ratio times the coordinate density
    ratio, still exact).
  * sample_tilted - i.i.d. coordinates from a tilted density by quantile
    inversion.
  * brute_force_conditional - exact small-n marginal of the uniform
    measure on the shell by direct grid quadrature (midpoint rule),
    the acceptance oracle for the chain.

All randomness flows from an explicit per-chain seed through
numpy's PCG64 generator; identical inputs give identical batches.
"""

import csv
import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import dual_solver as dual
from . import quadrature as quad
from .errors import (
    ArgumentError,
    EmptyShell,
    FeasibilityError,
    Infeasible,
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


@dataclass(frozen=True)
class ShellSpec:
    """The constraint shell: x in (0,inf)^n with every empirical mean
    (1/n) sum_j phi_i(x_j) within delta of a_i."""

    set: object
    n: int
    delta: float
    a: tuple

    def __post_init__(self):
        if self.n < 1 or self.delta <= 0:
            raise ArgumentError("need n >= 1 and delta > 0")
        if len(self.a) != self.set.k:
            raise ArgumentError("need k target levels")


@dataclass(frozen=True)
class ChainParams:
    burn_in: int = 20000
    thin: int = 10
    step_scale: float = 0.5
    adapt_window: int = 250
    target_accept: float = 0.3
    n_states: int = 1000
    # fraction of proposals that transpose two coordinates; transpositions
    # leave the shell constraints and any product reference invariant, so
    # they are always accepted and restore irreducibility when the shell
    # splits into permutation-related components
    swap_prob: float = 0.05

    def __post_init__(self):
        if not (0.0 < self.target_accept < 1.0):
            raise ArgumentError("target_accept must lie in (0,1)")


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


def _phi_values(obs_set, x):
    """(k, ...) array of observable values at x."""
    return np.array([ob.eval(np.asarray(x, dtype=float)) for ob in obs_set.items])


def shell_residual(spec, x):
    """max_i |(1/n) sum_j phi_i(x_j) - a_i|."""
    means = _phi_values(spec.set, x).mean(axis=1)
    return float(np.max(np.abs(means - np.asarray(spec.a))))


def _increasing_root(fn, target, hi_guess=1.0):
    """Solve fn(x) = target for increasing fn on (0, inf) by bisection."""
    lo, hi = 1e-12, hi_guess
    for _ in range(200):
        if fn(hi) >= target:
            break
        hi *= 2.0
    else:
        raise FeasibilityError("could not bracket observable root")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if fn(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def feasible_point(spec, report=None):
    """A configuration inside the shell.

    Most coordinates start at quantiles of the limiting marginal; in the
    extraneous regime one spike coordinate absorbs the surplus
    n (a_k - g2) of the last observable.  A damped Gauss-Newton sweep on
    the residual vector then pulls the configuration into the shell.
    """
    if report is None:
        report = dual.classify(spec.set, spec.a)
    if report.regime == "INADMISSIBLE":
        raise FeasibilityError("targets inadmissible: no shell to sample")
    marginal = dual.limiting_marginal(spec.set, spec.a, report=report)
    n, k = spec.n, spec.set.k
    phi_k = spec.set.items[k - 1].eval

    if report.regime == "EXTRANEOUS" and n >= 2:
        surplus = n * (spec.a[k - 1] - report.g2)
        bulk = quad.quantile(marginal, (np.arange(n - 1) + 0.5) / (n - 1))
        if surplus > 0:
            spike = _increasing_root(phi_k, surplus)
        else:
            spike = quad.quantile(marginal, 0.5)
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
        vals = _phi_values(spec.set, x)
        r = vals.mean(axis=1) - a
        if np.max(np.abs(r)) <= 0.5 * spec.delta:
            return x
        jac = np.array([ob.deriv(x) * x for ob in spec.set.items]) / n  # (k, n)
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
            vals_t = _phi_values(spec.set, np.exp(trial))
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
    adapts toward target_accept during burn-in only and is frozen
    afterwards, preserving exactness of the recorded states.
    """
    x0 = feasible_point(spec)
    n, k = spec.n, spec.set.k
    a = list(spec.a)
    delta = spec.delta
    evals = [ob.eval for ob in spec.set.items]
    ref_c = None
    if reference is not None:
        ref_c = list(np.asarray(reference.lebesgue_coeffs, dtype=float))

    rng = np.random.Generator(np.random.PCG64(seed))
    x = [float(v) for v in x0]
    sums = [float(sum(evals[i](xi) for xi in x)) for i in range(k)]

    log_step = math.log(params.step_scale)
    total_steps = params.burn_in + params.n_states * params.thin
    states = np.empty((params.n_states, n))
    residuals = np.empty(params.n_states)
    recorded = 0
    accepted_post = 0
    post_steps = 0
    win_accepts = 0
    win_moves = 0
    win_index = 0

    chunk = 16384
    done = 0
    step = math.exp(log_step)
    while done < total_steps:
        todo = min(chunk, total_steps - done)
        idxs = rng.integers(0, n, size=todo).tolist()
        idxs2 = rng.integers(0, n, size=todo).tolist()
        kinds = (rng.random(todo) < params.swap_prob).tolist()
        noises = rng.standard_normal(todo).tolist()
        unifs = rng.random(todo).tolist()
        for t in range(todo):
            step_no = done + t
            in_burn = step_no < params.burn_in
            j = idxs[t]
            if kinds[t] and n > 1:
                # transposition move: always accepted, sums unchanged
                j2 = idxs2[t]
                x[j], x[j2] = x[j2], x[j]
                accept = True
                gaussian = False
            else:
                gaussian = True
                old = x[j]
                new = old + step * noises[t]
                accept = False
                if new > 0.0:
                    ok = True
                    deltas = []
                    for i in range(k):
                        d_i = evals[i](new) - evals[i](old)
                        s_new = sums[i] + d_i
                        if abs(s_new / n - a[i]) > delta:
                            ok = False
                            break
                        deltas.append(d_i)
                    if ok:
                        if ref_c is None:
                            accept = True
                        else:
                            lr = 0.0
                            for i in range(k):
                                ci = ref_c[i]
                                if ci != 0.0:
                                    lr += ci * deltas[i]
                            accept = lr >= 0.0 or unifs[t] < math.exp(lr)
                if accept:
                    x[j] = new
                    for i in range(k):
                        sums[i] += deltas[i]
            if in_burn:
                # adapt on Gaussian moves only; transpositions carry no
                # information about the step scale
                if gaussian:
                    win_accepts += accept
                    win_moves += 1
                    if win_moves >= params.adapt_window:
                        win_index += 1
                        rate = win_accepts / win_moves
                        gain = 1.0 / math.sqrt(win_index)
                        log_step += gain * (rate - params.target_accept)
                        step = math.exp(log_step)
                        win_accepts = 0
                        win_moves = 0
            else:
                if gaussian:
                    post_steps += 1
                    accepted_post += accept
                if (step_no + 1 - params.burn_in) % params.thin == 0:
                    states[recorded] = x
                    residuals[recorded] = max(
                        abs(sums[i] / n - a[i]) for i in range(k)
                    )
                    recorded += 1
        done += todo
        # periodic refresh of the running sums against float drift
        sums = [float(sum(evals[i](xi) for xi in x)) for i in range(k)]

    acc_rate = accepted_post / max(post_steps, 1)
    if acc_rate < 1e-3:
        raise MixingFailure(
            "acceptance rate %.2e after adaptation" % acc_rate,
            diagnostics={"step": step, "n": n, "delta": delta},
        )
    return SampleBatch(
        states=states[:recorded],
        seed=int(seed),
        acceptance_rate=float(acc_rate),
        shell_residuals=residuals[:recorded],
        spec=spec,
        params=params,
        reference_p=None if reference is None else tuple(reference.p),
        step_scale_final=float(step),
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


def brute_force_conditional(spec, grid_points=None, x_min=None, x_max=None):
    """Exact coordinate-1 marginal of the uniform measure on the shell,
    by n-dimensional log-spaced grid quadrature (midpoint rule), n <= 3.

    The default resolution (3000 cells per axis at n=2, 300 at n=3) keeps
    the CDF discretization error of the midpoint indicator rule well
    below the KS tolerances it is used to certify."""
    if spec.n not in (2, 3):
        raise ArgumentError("brute force supports n in {2, 3}")
    n, k = spec.n, spec.set.k
    if grid_points is None:
        grid_points = 3000 if n == 2 else 300
    a = np.asarray(spec.a)
    if x_max is None:
        caps = [
            _increasing_root(ob.eval, n * (ai + spec.delta))
            for ob, ai in zip(spec.set.items, a)
        ]
        x_max = 1.0001 * min(caps)
    if x_min is None:
        x_min = 1e-3 * x_max
    edges = np.geomspace(x_min, x_max, grid_points + 1)
    centers = np.sqrt(edges[:-1] * edges[1:])
    widths = np.diff(edges)
    vals = _phi_values(spec.set, centers)  # (k, grid)

    lo = n * (a - spec.delta)
    hi = n * (a + spec.delta)
    if n == 2:
        # sums of observable values over coordinate pairs
        mass = np.zeros(grid_points)
        inside = np.ones((grid_points, grid_points), dtype=bool)
        for i in range(k):
            s = vals[i][:, None] + vals[i][None, :]
            inside &= (s >= lo[i]) & (s <= hi[i])
            # free the grid-sized sums before the next ones are built:
            # two of them (72 MB each at 3000 cells) set the peak memory
            del s
        mass = inside @ widths
    else:
        mass = np.zeros(grid_points)
        for j in range(grid_points):
            inside = np.ones((grid_points, grid_points), dtype=bool)
            for i in range(k):
                s = vals[i][j] + vals[i][:, None] + vals[i][None, :]
                inside &= (s >= lo[i]) & (s <= hi[i])
            mass[j] = widths @ inside @ widths
    total = float(mass @ widths)
    if total <= 0.0:
        raise EmptyShell("no grid cell intersects the shell")
    pdf = mass / total
    cdf = np.concatenate([[0.0], np.cumsum(pdf * widths)])
    cdf = np.minimum(cdf[1:], 1.0)
    return DensityTable(x=centers, pdf=pdf, cdf=cdf, widths=widths)


def save_batch_csv(batch, csv_path, sidecar_path=None):
    """Persist a batch: one row per state (index, coordinates, empirical
    means, max statistic) plus a JSON sidecar with run metadata."""
    spec = batch.spec
    k = spec.set.k
    phi_k = spec.set.items[k - 1].eval
    with open(csv_path, "w", newline="") as fh:
        w = csv.writer(fh)
        header = (
            ["state"]
            + ["x%d" % (j + 1) for j in range(spec.n)]
            + ["S%d" % (i + 1) for i in range(k)]
            + ["max_stat"]
        )
        w.writerow(header)
        for idx, state in enumerate(batch.states):
            means = _phi_values(spec.set, state).mean(axis=1)
            m = float(np.max(phi_k(state)) / spec.n)
            w.writerow(
                [idx]
                + [repr(float(v)) for v in state]
                + [repr(float(v)) for v in means]
                + [repr(m)]
            )
    if sidecar_path is not None:
        side = {
            "seed": batch.seed,
            "acceptance_rate": batch.acceptance_rate,
            "n": spec.n,
            "delta": spec.delta,
            "a": list(spec.a),
            "burn_in": batch.params.burn_in if batch.params else None,
            "thin": batch.params.thin if batch.params else None,
            "n_states": int(batch.states.shape[0]),
            "reference_p": list(batch.reference_p)
            if batch.reference_p is not None
            else None,
            "step_scale_final": batch.step_scale_final,
        }
        with open(sidecar_path, "w") as fh:
            json.dump(side, fh, sort_keys=True, indent=2)
            fh.write("\n")
