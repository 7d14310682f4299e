"""The benchmark's three workloads.

Each workload is a fixed list of operations (one *pass*) whose inputs are
drawn from ``(seed, pass index)``; the program only ever sees those
inputs, and the CLI receives the workload seed through ``--seed``.  Every
result is checked against a closed form or an oracle from ``oracles``.

* ``phase-rate``: classify and rate-function traffic, no chain.  Nearly
  all time is adaptive integrals under the Newton loops, so a faster
  quadrature kernel or Newton engine shows here.
* ``shell-chain``: ``microshell sample`` and ``verify`` end to end; the
  Metropolis inner loop dominates, so a chain speed-up shows here and a
  quadrature speed-up barely does.
* ``marginal-oracle``: the quadrature layer through the CDF cache and
  ``quantile`` bisection, brute-force enumeration and the appendix checks,
  with no Newton solve, so a quantile rewrite shows here and not on
  ``phase-rate``.
"""

import csv
import glob
import hashlib
import json
import math
import os

import numpy as np

from microshell import cli
from microshell import diagnostics as diag
from microshell import dual_solver as dual
from microshell import observables as obs
from microshell import quadrature as quad
from microshell import rate_functions as rf
from microshell import sampler as smp

import oracles
from harness import nearest_rank, rate

S12 = obs.power_set([1, 2])
S123 = obs.power_set([1, 2, 3])

# relative distance every generated S12 target keeps from g1 and g2, so
# that the closed-form verdict is not decided by solver tolerance
BOUNDARY_MARGIN = 0.03


def _rng(seed, index, stream):
    return np.random.default_rng([int(seed), int(index), stream])


def _seeds(rng, count):
    return [int(s) for s in rng.integers(1, 2 ** 31 - 1, size=count)]


def _hash_tree(root):
    """sha256 of every result file under root; run.log holds wall-clock
    times and is outside the byte-identity guarantee."""
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in sorted(files):
            if name == "run.log":
                continue
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _cli(rec, kind, command, config_path, out_dir, seed, units=0):
    argv = [command, "--config", str(config_path), "--out", str(out_dir), "--seed", str(seed)]
    op = rec.run(kind, cli.main, argv, units=units)
    if op.ok:
        op.expect(op.value == 0, "microshell %s exited %r" % (command, op.value))
    return op


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class Workload:
    name = ""
    # operation kinds whose units per second are the workload's throughput
    work_metric = ""
    work_kinds = ()
    configs = ()  # config files under configs/ this workload runs
    sets = (S12, S123)  # observable sets whose base normalizer is warmed

    def setup(self, root, seed):
        """Load and validate configs, warm caches and draw pass 0's inputs."""
        self.config_paths = {c: os.path.join(root, "configs", c + ".json") for c in self.configs}
        self.config = {c: cli.load_config(p) for c, p in self.config_paths.items()}
        for oset in self.sets:
            # H(0) integrates the base measure, which fills its normalizer cache
            quad.log_partition(oset, [0.0] * oset.k)
        return self.inputs(seed, 0)

    def inputs(self, seed, index):
        raise NotImplementedError

    def run_pass(self, rec, inputs, out_dir):
        raise NotImplementedError

    def metrics(self, passes):
        """Workload-specific end-to-end metrics: {name: (value, unit)}."""
        return {self.work_metric: (rate(passes, self.work_kinds), "1/s")}


# --------------------------------------------------------------------------
# phase-rate


def _jittered_s12_targets(rng, n1=5, n2=9):
    """A 5 x 9 grid over the demos/phase_portrait.py range (v1 in [0.5, 2],
    v2 in [0.25, 6]), each point jittered within its cell while keeping its closed-form
    phase and a relative margin from g1 and g2."""
    v1s = np.linspace(0.5, 2.0, n1)
    v2s = np.linspace(0.25, 6.0, n2)
    h1 = 0.5 * (v1s[1] - v1s[0])
    h2 = 0.5 * (v2s[1] - v2s[0])
    out = []
    for v1g in v1s:
        for v2g in v2s:
            want = oracles.s12_regime(v1g, v2g)
            for _ in range(10000):
                v1 = float(np.clip(v1g + rng.uniform(-h1, h1), 0.5, 2.0))
                v2 = float(np.clip(v2g + rng.uniform(-h2, h2), 0.25, 6.0))
                g1, g2 = v1 * v1, 2.0 * v1 * v1
                if (
                    oracles.s12_regime(v1, v2) == want
                    and abs(v2 / g1 - 1.0) >= BOUNDARY_MARGIN
                    and abs(v2 / g2 - 1.0) >= BOUNDARY_MARGIN
                ):
                    out.append((v1, v2))
                    break
            else:
                raise RuntimeError("no jitter keeps (%g, %g) in its phase" % (v1g, v2g))
    return out


def _interior_tilt(rng, k):
    """A random interior tilt, drawn as in the Legendre-duality test."""
    p = [float(x) for x in rng.uniform(-1.0, 0.8, size=k)]
    p[-1] = float(rng.uniform(-2.0, -0.05))
    return p


def _check_s12(report, v1, v2):
    want = oracles.s12_regime(v1, v2)
    problems = []
    if report.regime != want:
        return ["(%r, %r): regime %s, closed form %s" % (v1, v2, report.regime, want)]
    if want != "INADMISSIBLE" and not oracles.close(report.g2, oracles.s12_g2(v1), abs_=oracles.RATE_TOL):
        problems.append("(%r, %r): g2 %r, closed form %r" % (v1, v2, report.g2, oracles.s12_g2(v1)))
    if want == "INTERIOR_S1":
        problems += _check_full(report.full.p, report.full.achieved, S12, (v1, v2))
    return problems


def _check_full(p, achieved, oset, targets):
    """Full-tilt solution: residual within 1e-8, last tilt negative, and
    its moments confirmed by an independent integrator."""
    problems = []
    resid = max(abs(a - t) for a, t in zip(achieved, targets))
    if not resid <= oracles.MOMENT_TOL:
        problems.append("%r: moment residual %g" % (targets, resid))
    if not p[-1] < 0.0:
        problems.append("%r: last tilt %r not negative" % (targets, p[-1]))
    ind = oracles.power_moments(p, oset.exponents, oset.exponents)
    for m, t in zip(ind, targets):
        if not oracles.close(m, t, rel=oracles.INDEPENDENT_REL_TOL):
            problems.append("%r: independent moment %r at the solved tilt" % (targets, m))
    return problems


def _check_s123(report, targets, want):
    v1, v2, a3 = targets
    if report.regime != want:
        return ["%r: regime %s, expected %s" % (targets, report.regime, want)]
    if want == "FULL_TILT_S2":
        # reduced infeasible since v2 > 2 v1^2, and a3 above g1 = v2^2 / v1
        return _check_full(report.full.p, report.full.achieved, S123, targets)
    # EXTRANEOUS: the reduced tilt must reproduce (v1, v2) and give g2 as
    # its third moment under an independent integrator, with a3 above it
    problems = []
    m1, m2, m3 = oracles.power_moments(report.reduced.p, S123.exponents, (1, 2, 3))
    if not (oracles.close(m1, v1, rel=oracles.INDEPENDENT_REL_TOL)
            and oracles.close(m2, v2, rel=oracles.INDEPENDENT_REL_TOL)):
        problems.append("%r: reduced tilt gives moments (%r, %r)" % (targets, m1, m2))
    if report.reduced.p[2] != 0.0:
        problems.append("%r: reduced tilt has p3 = %r" % (targets, report.reduced.p[2]))
    if not oracles.close(report.g2, m3, rel=oracles.INDEPENDENT_REL_TOL):
        problems.append("%r: g2 %r, independent %r" % (targets, report.g2, m3))
    if not a3 >= m3:
        problems.append("%r: a3 below the independent g2 %r" % (targets, m3))
    return problems


def _legendre_forward(oset, p):
    v = quad.moments(oset, p)
    return v, float(np.dot(p, v)) - quad.log_partition(oset, p)


def _check_duality(ev, p, direct):
    problems = []
    if not oracles.close(ev.value, direct, abs_=oracles.RATE_TOL):
        problems.append("tilt %r: I %r, p.v - H %r" % (p, ev.value, direct))
    if isinstance(ev.maximizer_p, str) or max(
        abs(a - b) for a, b in zip(ev.maximizer_p, p)
    ) > oracles.MAXIMIZER_TOL:
        problems.append("tilt %r: maximizer %r" % (p, ev.maximizer_p))
    return problems


def _check_classify_json(_, path, targets):
    with open(path) as fh:
        report = json.load(fh)
    if report["regime"] != "FULL_TILT_S2":
        return ["%s: regime %s" % (path, report["regime"])]
    full = report["full"]
    return _check_full([float(x) for x in full["p"]], [float(x) for x in full["achieved"]],
                       S123, targets)


def _check_rate_scan(_, path, v1):
    """Non-increasing in z, +inf at and below g1, and flat at the
    closed-form value from g2 on."""
    _, rows = _read_csv(path)
    z = [float(r[0]) for r in rows]
    val = [float(r[1]) for r in rows]
    problems = []
    for (za, a), (zb, b) in zip(zip(z, val), zip(z[1:], val[1:])):
        if b > a + 1e-9:
            problems.append("rate scan rises from z=%r (%r) to z=%r (%r)" % (za, a, zb, b))
    g1, g2 = v1 * v1, oracles.s12_g2(v1)
    for zi, vi in zip(z, val):
        if zi <= g1 and vi != math.inf:
            problems.append("z=%r at or below g1: I=%r, not inf" % (zi, vi))
        if zi >= g2 and not oracles.close(vi, oracles.s12_flat_rate(v1), abs_=oracles.RATE_TOL):
            problems.append("z=%r above g2: I=%r, flat value %r" % (zi, vi, oracles.s12_flat_rate(v1)))
    return problems


# v1 values per pass at which rate_I is evaluated twice in the flat region.
# A single `microshell rate` scan is one ~5 s call, so on its own it would
# leave rate_points_per_s at the mercy of one burst of machine noise; these
# calls (~0.25 s each, nearly independent of v1) spread the measured rate
# work over about twice as much time.
FLAT_POINTS = 12


class PhaseRate(Workload):
    name = "phase-rate"
    configs = ("lp3", "lp2_localized")
    work_metric = "rate_points_per_s"
    work_kinds = ("rate_I", "cli.rate")

    def inputs(self, seed, index):
        rng = _rng(seed, index, 1)
        s123 = []
        for _ in range(3):
            v1 = float(rng.uniform(0.7, 1.4))
            v2 = v1 * v1 * float(rng.uniform(1.15, 1.85))
            s123.append(((v1, v2, 6.0 * v1 ** 3 * float(rng.uniform(1.1, 2.0))), "EXTRANEOUS"))
        v1 = float(rng.uniform(0.7, 1.4))
        v2 = v1 * v1 * float(rng.uniform(2.1, 2.9))
        s123.append(((v1, v2, v2 * v2 / v1 * float(rng.uniform(1.1, 3.0))), "FULL_TILT_S2"))
        return {
            "s12": _jittered_s12_targets(rng),
            "s123": s123,
            "tilts": [(S12, _interior_tilt(rng, 2)), (S123, _interior_tilt(rng, 3))],
            "flat_v1": [float(v) for v in rng.uniform(0.5, 2.0, size=FLAT_POINTS)],
            "cli_seed": _seeds(rng, 1)[0],
        }

    def run_pass(self, rec, inp, out_dir):
        for v1, v2 in inp["s12"]:
            op = rec.run("classify", dual.classify, S12, (v1, v2))
            if op.ok:
                op.verify(_check_s12, v1, v2)
        for targets, want in inp["s123"]:
            op = rec.run("classify", dual.classify, S123, targets)
            if op.ok:
                op.verify(_check_s123, targets, want)
        out = os.path.join(out_dir, "classify-lp3")
        op = _cli(rec, "cli.classify", "classify", self.config_paths["lp3"], out, inp["cli_seed"])
        if op.ok:
            op.verify(_check_classify_json, os.path.join(out, "classify.json"),
                      tuple(self.config["lp3"]["targets"]))

        for oset, p in inp["tilts"]:
            fwd = rec.run("legendre.forward", _legendre_forward, oset, p)
            if not fwd.ok:
                continue
            v, direct = fwd.value
            op = rec.run("legendre.rate_I", rf.rate_I, oset, v)
            if op.ok:
                op.verify(_check_duality, p, direct)
        flat = [(v1, f * v1 * v1) for v1 in inp["flat_v1"] for f in (2.5, 3.5)]
        for v in [(2.0, 8.0)] + flat:
            op = rec.run("rate_I", rf.rate_I, S12, v, units=1)
            if op.ok:
                op.expect(oracles.close(op.value.value, oracles.s12_flat_rate(v[0]), abs_=oracles.RATE_TOL),
                          "I%r = %r, closed form %r" % (v, op.value.value, oracles.s12_flat_rate(v[0])))
        out = os.path.join(out_dir, "rate-lp2_localized")
        op = _cli(rec, "cli.rate", "rate", self.config_paths["lp2_localized"], out, inp["cli_seed"])
        path = os.path.join(out, "rate_scan.csv")
        if op.ok and op.verify(_check_rate_scan, path, self.config["lp2_localized"]["targets"][0]):
            op.units = len(_read_csv(path)[1])

    def metrics(self, passes):
        lat = [s for p in passes for s in p.seconds(("classify", "cli.classify"))]
        out = super().metrics(passes)
        out.update({
            "classify_p50_ms": (1e3 * nearest_rank(lat, 0.5), "ms"),
            "classify_p80_ms": (1e3 * nearest_rank(lat, 0.8), "ms"),
            "classify_samples": (len(lat), "count"),
        })
        return out


# --------------------------------------------------------------------------
# shell-chain


def _chain_steps(config):
    """Metropolis steps a sample config runs: burn-in plus n_states * thin
    per (n, delta) cell."""
    params = smp.ChainParams(**config.get("chains", {}))
    cells = len(config["n_list"]) * len(config["delta_list"])
    return cells * (params.burn_in + params.n_states * params.thin)


def _check_samples(_, out, config):
    """One sample file per (n, delta) cell, each with its sidecar, and
    every recorded state inside its shell, recomputed from the CSV."""
    a = [float(t) for t in config["targets"]]
    exps = [float(e) for e in config["observables"]["exponents"]]
    params = smp.ChainParams(**config.get("chains", {}))
    cells = sorted((int(n), float(d)) for n in config["n_list"] for d in config["delta_list"])
    problems = []
    found = []
    for side in sorted(glob.glob(os.path.join(out, "samples_*.json"))):
        with open(side) as fh:
            meta = json.load(fh)
        n, delta = int(meta["n"]), float(meta["delta"])
        found.append((n, delta))
        states = np.loadtxt(side[:-len(".json")] + ".csv", delimiter=",",
                            skiprows=1, ndmin=2)[:, 1:1 + n]
        if states.shape != (params.n_states, n):
            problems.append("n=%d: %r states recorded" % (n, states.shape))
            continue
        for e, ai in zip(exps, a):
            worst = float(np.max(np.abs((states ** e).mean(axis=1) - ai)))
            if not worst <= delta + 1e-9:
                problems.append("n=%d: a state leaves the shell by %g in x^%g" % (n, worst - delta, e))
    if sorted(found) != cells:
        problems.append("sample files for cells %r, config has %r" % (sorted(found), cells))
    return problems


def _check_verify(_, path):
    with open(path) as fh:
        report = json.load(fh)
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    return ["verify checks failed: %s" % failed] if failed or not report["passed"] else []


class ShellChain(Workload):
    name = "shell-chain"
    configs = ("lp2_localized", "lp2_interior", "lp2_verify")
    sets = (S12,)
    work_metric = "sample_steps_per_s"
    work_kinds = ("cli.sample",)

    def inputs(self, seed, index):
        return {"cli_seeds": _seeds(_rng(seed, index, 2), 2)}

    def run_pass(self, rec, inp, out_dir):
        seeds = inp["cli_seeds"]
        for i, (cfg, seed) in enumerate(zip(("lp2_localized", "lp2_interior"), seeds)):
            out = os.path.join(out_dir, "sample%d-%s" % (i, cfg))
            config = self.config[cfg]
            op = _cli(rec, "cli.sample", "sample", self.config_paths[cfg], out, seed,
                      units=_chain_steps(config))
            if op.ok:
                op.verify(_check_samples, out, config)
        # verify compares a 5000-state chain with enumeration by a KS test
        # at a fixed tolerance of 0.05; at arbitrary seeds about one chain
        # in fifty lands above it (seed 1852201471: 0.065, and 0.006 with a
        # chain ten times longer), so verify runs at its config's seed
        out = os.path.join(out_dir, "verify-lp2_verify")
        op = _cli(rec, "cli.verify", "verify", self.config_paths["lp2_verify"], out,
                  self.config["lp2_verify"]["seed"])
        if op.ok:
            op.verify(_check_verify, os.path.join(out, "verify.json"))



# --------------------------------------------------------------------------
# marginal-oracle

QUANTILE_POINTS = 20000
SAMPLE_SHAPE = (100, 50)  # configurations x coordinates per sample_tilted call
# KS of i.i.d. draws exceeds 3/sqrt(N) with probability about 2 exp(-18)
KS_BOUND = 3.0


def _check_quantile(q, u, p1):
    problems = []
    if p1 is not None:
        exact = oracles.exp_quantile(p1, u)
        worst = float(np.max(np.abs(q - exact) / exact))
        if not worst <= oracles.QUANTILE_REL_TOL:
            problems.append("p1=%r: quantile off the closed form by %g relative" % (p1, worst))
    return problems


def _check_appendix(report, p1):
    problems = []
    if not report.passed_decay_to_zero:
        problems.append("|log q| / n does not decrease along n")
    for row in report.rows:
        m, n = row["M"], row["n"]
        lo = math.sqrt(max((m - 0.1) * n, 0.0))
        hi = math.sqrt((m + 0.1) * n)
        want = oracles.exp_log_prob_interval(p1, lo, hi)
        if not oracles.close(row["logq"], want, rel=oracles.MOMENT_TOL):
            problems.append("(M, n)=(%r, %r): logq %r, closed form %r" % (m, n, row["logq"], want))
    return problems


def _check_table(table, spec):
    problems = []
    exps = spec.set.exponents
    for e, ai in zip(exps, spec.a):
        ok, m = oracles.table_moment_in_shell(table, e, ai, spec.delta)
        if not ok:
            problems.append("n=%d: E[x^%g] = %r outside the shell" % (spec.n, e, m))
    if spec.n == 2:
        right = table.x * np.sqrt(table.x[1] / table.x[0])  # upper edges of the log grid
        err = float(np.max(np.abs(oracles.s12_shell_marginal_cdf(spec.a, spec.delta, right) - table.cdf)))
        if not err <= oracles.BRUTE_FORCE_CDF_TOL:
            problems.append("n=2: CDF off the exact marginal by %g" % err)
    return problems


def _check_bruteforce_csv(_, out, config):
    a = tuple(float(t) for t in config["targets"])
    delta = float(config["delta_list"][0])
    tables = glob.glob(os.path.join(out, "bruteforce_*.csv"))
    if len(tables) != 1:
        return ["expected one brute-force table, found %d" % len(tables)]
    _, rows = _read_csv(tables[0])
    x = np.array([float(r[0]) for r in rows])
    c = np.array([float(r[2]) for r in rows])
    err = float(np.max(np.abs(oracles.s12_shell_marginal_cdf(a, delta, x * np.sqrt(x[1] / x[0])) - c)))
    return [] if err <= oracles.BRUTE_FORCE_CDF_TOL else ["CLI table off the exact marginal by %g" % err]


def _check_validate(_, path):
    with open(path) as fh:
        return [] if json.load(fh)["passed"] else ["validate reports a failed condition"]


class MarginalOracle(Workload):
    name = "marginal-oracle"
    configs = ("lp2_verify", "lp2_localized")
    work_metric = "quantile_points_per_s"
    work_kinds = ("quantile", "sample_tilted")

    def inputs(self, seed, index):
        rng = _rng(seed, index, 3)
        n = QUANTILE_POINTS
        tilts = [
            (S12, (float(rng.uniform(-1.0, 0.6)), 0.0)),
            (S12, (float(rng.uniform(-1.0, 0.6)), 0.0)),
            (S12, (float(rng.uniform(-0.5, 0.5)), float(rng.uniform(-1.0, -0.1)))),
            (S123, (float(rng.uniform(-0.5, 0.5)), float(rng.uniform(-0.5, 0.5)),
                    float(rng.uniform(-1.0, -0.1)))),
        ]
        specs = [
            smp.ShellSpec(set=S12, n=n_, delta=float(rng.uniform(0.1, 0.2)),
                          a=(1.0, float(rng.uniform(1.4, 1.8))))
            for n_ in (2, 3)
        ]
        return {
            "tilts": tilts,
            # stratified uniforms: one per stratum of width 1/n
            "u": (np.arange(n) + rng.uniform(0.01, 0.99, size=n)) / n,
            "sample_seeds": _seeds(rng, len(tilts)),
            "appendix_seed": _seeds(rng, 1)[0],
            "specs": specs,
            "cli_seed": _seeds(rng, 1)[0],
        }

    def run_pass(self, rec, inp, out_dir):
        u = inp["u"]
        exp_density = None
        for (oset, p), sseed in zip(inp["tilts"], inp["sample_seeds"]):
            p1 = p[0] if oset is S12 and p[1] == 0.0 else None
            op = rec.run("tilted_density", quad.tilted_density, oset, p)
            if not op.ok:
                continue
            d = op.value
            if p1 is not None and exp_density is None:
                exp_density = (d, p1)
            q = rec.run("quantile", quad.quantile, d, u, units=u.size)
            if q.ok:
                q.verify(_check_quantile, u, p1)
                c = rec.run("cdf", quad.cdf, d, q.value)
                if c.ok:
                    worst = float(np.max(np.abs(c.value - u)))
                    c.expect(worst <= oracles.CDF_ROUNDTRIP_TOL, "cdf(quantile(u)) off u by %g" % worst)
            count, n = SAMPLE_SHAPE
            s = rec.run("sample_tilted", smp.sample_tilted, d, n, count, sseed, units=count * n)
            if s.ok:
                x = s.value.ravel()
                k = rec.run("ks_distance", diag.ks_distance, x, d)
                if k.ok:
                    k.expect(k.value <= KS_BOUND / math.sqrt(x.size), "KS %r for %d draws" % (k.value, x.size))
                    if p1 is not None:
                        exact = oracles.uniform_ks(-np.expm1(-oracles.exp_rate(p1) * x))
                        k.expect(abs(k.value - exact) <= 1e-9, "KS %r, closed-form CDF gives %r" % (k.value, exact))
            m = rec.run("moments", quad.moments, oset, p)
            if m.ok:
                want = oracles.power_moments(p, oset.exponents, oset.exponents)
                m.expect(all(oracles.close(a, b, rel=oracles.INDEPENDENT_REL_TOL) for a, b in zip(m.value, want)),
                         "tilt %r: moments %r, independent %r" % (p, list(m.value), want))
                if p1 is not None:
                    m.expect(all(oracles.close(a, b, rel=oracles.MOMENT_TOL)
                                 for a, b in zip(m.value, oracles.exp_moments(p1))),
                             "p1=%r: moments %r, closed form %r" % (p1, list(m.value), oracles.exp_moments(p1)))
                    e = rec.run("entropy", rf.entropy, d)
                    if e.ok:
                        e.expect(oracles.close(e.value, oracles.exp_entropy(p1), abs_=oracles.MOMENT_TOL),
                                 "p1=%r: entropy %r, closed form %r" % (p1, e.value, oracles.exp_entropy(p1)))
        if exp_density is not None:
            d, p1 = exp_density
            op = rec.run("appendix_checks", diag.appendix_checks, S12, d, seed=inp["appendix_seed"])
            if op.ok:
                op.verify(_check_appendix, p1)
        for spec in inp["specs"]:
            op = rec.run("brute_force_conditional", smp.brute_force_conditional, spec)
            if op.ok:
                op.verify(_check_table, spec)
        out = os.path.join(out_dir, "bruteforce-lp2_verify")
        op = _cli(rec, "cli.bruteforce", "bruteforce", self.config_paths["lp2_verify"], out, inp["cli_seed"])
        if op.ok:
            op.verify(_check_bruteforce_csv, out, self.config["lp2_verify"])
        out = os.path.join(out_dir, "validate-lp2_localized")
        op = _cli(rec, "cli.validate", "validate", self.config_paths["lp2_localized"], out, inp["cli_seed"])
        if op.ok:
            op.verify(_check_validate, os.path.join(out, "validate.json"))



WORKLOADS = {w.name: w for w in (PhaseRate, ShellChain, MarginalOracle)}
