"""Command-line experiment runner.

Subcommands (each takes --config PATH, optional --seed and --out):

  validate    closed-form constants of the growth conditions C1-C4
  solve       dual solutions (reduced and full) as JSON
  classify    phase report as JSON
  rate        rate-function scan in the last coordinate as CSV
  sample      shell chains over the (n, delta) grid: per-cell sample CSV
              with a JSON sidecar, plus summary and tail-rate diagnostics
  bruteforce  exact small-n marginal table as CSV
  verify      config-scoped verification suite, pass/fail JSON

All result files are a pure function of (config, seed), and each format
has one writer: _write_json here (sorted keys, indent 2, every float a
JSON number, its repr) and diagnostics._write_csv ("\r\n" line ends,
floats as repr), so reading a value back gives the same float and
re-running a config reproduces byte-identical outputs.  Wall-clock
timing goes to a separate run.log that is excluded from that guarantee.

Exit codes: 0 success, 1 configuration/validation error, 2 numerical
failure.
"""

import argparse
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__
from . import diagnostics as diag
from . import dual_solver as dual
from . import observables as obs
from . import quadrature as quad
from . import rate_functions as rate
from . import sampler as smp
from .errors import ArgumentError, Infeasible, MicroshellError, NoFullTilt

__all__ = ["main", "load_config", "run", "CONFIG_SCHEMA"]

CONFIG_SCHEMA = {
    "type": "object",
    "required": ["observables", "targets"],
    "additionalProperties": False,
    "properties": {
        "observables": {
            "type": "object",
            "required": ["exponents"],
            "additionalProperties": False,
            "properties": {
                "exponents": {
                    "type": "array",
                    "minItems": 1,
                    "items": {"type": "number", "exclusiveMinimum": 0},
                },
            },
        },
        "targets": {
            "type": "array",
            "minItems": 1,
            "items": {"type": "number"},
        },
        "n_list": {
            "type": "array",
            "items": {"type": "integer", "minimum": 1},
        },
        "delta_list": {
            "type": "array",
            "items": {"type": "number", "exclusiveMinimum": 0},
        },
        "chains": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "burn_in": {"type": "integer", "minimum": 0},
                "thin": {"type": "integer", "minimum": 1},
                "step_scale": {"type": "number", "exclusiveMinimum": 0},
                "n_states": {"type": "integer", "minimum": 1},
                "swap_prob": {"type": "number", "minimum": 0, "exclusiveMaximum": 1},
            },
        },
        "target_measure": {"enum": ["uniform", "conditioned"]},
        "z_grid": {
            "type": "array",
            "minItems": 2,
            "items": {"type": "number"},
        },
        "seed": {"type": "integer"},
        "output_dir": {"type": "string"},
    },
}


def _schema_error_message(err):
    path = ".".join(str(p) for p in err.absolute_path) or "<root>"
    return "config field %r: %s" % (path, err.message)


def load_config(path):
    """Parse and schema-validate a JSON experiment config."""
    import jsonschema

    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ArgumentError("cannot read config %s: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise ArgumentError("config %s is not valid JSON: %s" % (path, exc))
    validator = jsonschema.Draft7Validator(CONFIG_SCHEMA)
    errors = sorted(validator.iter_errors(raw), key=lambda e: list(e.absolute_path))
    if errors:
        raise ArgumentError(_schema_error_message(errors[0]))
    k = len(raw["observables"]["exponents"])
    if len(raw["targets"]) != k:
        raise ArgumentError(
            "config field 'targets': expected %d values to match the %d "
            "observables, got %d" % (k, k, len(raw["targets"]))
        )
    return raw


def _obs_set(config):
    return obs.power_set(config["observables"]["exponents"])


def _chain_params(config):
    return smp.ChainParams(**config.get("chains", {}))


def _config_hash(config):
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _solution_payload(sol):
    return {
        "p": [float(v) for v in sol.p],
        "achieved": [float(v) for v in sol.achieved],
        "log_partition": float(sol.log_partition_value),
        "iterations": int(sol.iterations),
        "residual": float(sol.residual),
    }


def _cmd_validate(config, out_dir, seed):
    oset = _obs_set(config)
    report = obs.validate_assumptions(oset)
    payload = {
        "passed": bool(report.passed),
        "conditions": {
            name: {
                "passed": bool(res.passed),
                "constants": res.constants,
                "note": res.note,
            }
            for name, res in report.per_condition.items()
        },
    }
    _write_json(os.path.join(out_dir, "validate.json"), payload)
    return 0


def _cmd_solve(config, out_dir, seed):
    oset = _obs_set(config)
    targets = config["targets"]
    payload = {}
    if oset.k >= 2:
        try:
            reduced = dual.solve_reduced(oset, targets[:-1])
            payload["reduced"] = _solution_payload(reduced)
        except (Infeasible, NoFullTilt) as exc:
            payload["reduced"] = {"error": type(exc).__name__, "message": str(exc)}
    else:
        payload["reduced"] = {"error": "ArgumentError",
                              "message": "no reduced problem for k = 1"}
    try:
        full = dual.solve_full(oset, targets)
        payload["full"] = _solution_payload(full)
    except (Infeasible, NoFullTilt) as exc:
        payload["full"] = {"error": type(exc).__name__, "message": str(exc)}
    _write_json(os.path.join(out_dir, "solve.json"), payload)
    solved = any("p" in payload.get(k, {}) for k in ("reduced", "full"))
    return 0 if solved else 2


def _cmd_classify(config, out_dir, seed):
    oset = _obs_set(config)
    report = dual.classify(oset, config["targets"])
    payload = {
        "regime": report.regime,
        "g1": report.g1,
        "g2": report.g2,
        "notes": report.notes,
        "reduced": _solution_payload(report.reduced) if report.reduced else None,
        "full": _solution_payload(report.full) if report.full else None,
    }
    _write_json(os.path.join(out_dir, "classify.json"), payload)
    return 0


def _default_z_grid(targets):
    a_k = float(targets[-1])
    lo = 0.25 * a_k
    hi = 2.0 * a_k
    return np.linspace(lo, hi, 41)


def _cmd_rate(config, out_dir, seed):
    oset = _obs_set(config)
    targets = config["targets"]
    z_grid = config.get("z_grid")
    if z_grid is None:
        z_grid = _default_z_grid(targets)
    evals = rate.rate_scan(oset, targets[:-1], np.asarray(z_grid, dtype=float))
    rows = (
        [ev.v[-1], ev.value]
        + ([ev.maximizer_p] + [""] * (oset.k - 1)
           if isinstance(ev.maximizer_p, str) else list(ev.maximizer_p))
        for ev in evals
    )
    diag._write_csv(
        os.path.join(out_dir, "rate_scan.csv"),
        ["z", "I_value"] + ["p%d" % (i + 1) for i in range(oset.k)],
        rows,
    )
    return 0


def _grid(config):
    """The (n, delta) cells: every n of n_list with every delta of delta_list."""
    return [(int(n), float(d)) for n in config.get("n_list", [])
            for d in config.get("delta_list", [])]


def _cell_tag(n, delta):
    return "n%d_d%s" % (n, repr(delta).replace(".", "p"))


def _sidecar(batch):
    """Run metadata of a sample batch, written beside its CSV."""
    spec = batch.spec
    return {
        "seed": batch.seed,
        "acceptance_rate": batch.acceptance_rate,
        "n": spec.n,
        "delta": spec.delta,
        "a": list(spec.a),
        "burn_in": batch.params.burn_in,
        "thin": batch.params.thin,
        "n_states": int(batch.states.shape[0]),
        "reference_p": None if batch.reference_p is None else list(batch.reference_p),
        "step_scale_final": batch.step_scale_final,
    }


def _cmd_sample(config, out_dir, seed):
    cells = _grid(config)
    if not cells:
        raise ArgumentError(
            "config field 'n_list'/'delta_list': sample needs a non-empty grid"
        )
    oset = _obs_set(config)
    targets = tuple(float(v) for v in config["targets"])
    params = _chain_params(config)
    report = dual.classify(oset, targets)
    marginal = dual.limiting_marginal(oset, targets, report=report)
    reference = None
    if config.get("target_measure", "uniform") == "conditioned":
        reference = quad.tilted_density(oset, [0.0] * oset.k)
    summary_rows = []
    maxima_by_delta = {}
    for idx, (n, delta) in enumerate(cells):
        spec = smp.ShellSpec(set=oset, n=n, delta=delta, a=targets)
        batch = smp.run_chain(spec, params, seed=seed + idx, reference=reference)
        tag = _cell_tag(n, delta)
        smp.save_batch_csv(batch, os.path.join(out_dir, "samples_%s.csv" % tag))
        _write_json(os.path.join(out_dir, "samples_%s.json" % tag), _sidecar(batch))
        M, N = diag.max_stats(batch)
        ks = diag.ks_distance(batch.states.ravel(), marginal)
        summary_rows.append([n, delta, ks, float(np.mean(M)), float(np.mean(N))])
        maxima_by_delta.setdefault(delta, []).append((n, M))
    diag._write_csv(
        os.path.join(out_dir, "summary.csv"),
        ["n", "delta", "ks", "mean_M", "mean_N"],
        summary_rows,
    )
    for delta, maxima in maxima_by_delta.items():
        if len(maxima) < 2:
            continue
        g2v = report.g2
        eps = diag.default_epsilon(targets[-1], g2v)
        level = (targets[-1] - g2v) if (g2v is not None and targets[-1] > g2v) else 0.0
        upper = diag.tail_rate(
            maxima,
            lambda M: M >= level + eps,
            "LINEAR_N",
            event_label="M>=%s" % repr(level + eps),
        )
        estimates = list(upper)
        if oset.gamma is not None and level > 0:
            lower = diag.tail_rate(
                maxima,
                lambda M: M <= level - eps,
                "POWER_GAMMA",
                gamma=oset.gamma[0],
                event_label="M<=%s" % repr(level - eps),
            )
            estimates += lower
        diag._write_csv(
            os.path.join(out_dir, "tail_rates_%s.csv" % repr(delta)),
            ["n", "delta", "event", "scaling", "estimate", "ci_lo", "ci_hi"],
            ([e.n, delta, e.event, e.scaling if e.gamma is None
              else "%s(%g)" % (e.scaling, e.gamma), e.estimate, *e.ci]
             for e in estimates),
        )
    return 0


def _cmd_bruteforce(config, out_dir, seed):
    oset = _obs_set(config)
    targets = tuple(float(v) for v in config["targets"])
    wrote = 0
    for n, delta in _grid(config):
        if n not in (2, 3):
            continue
        spec = smp.ShellSpec(set=oset, n=n, delta=delta, a=targets)
        table = smp.brute_force_conditional(spec)
        diag._write_csv(
            os.path.join(out_dir, "bruteforce_%s.csv" % _cell_tag(n, delta)),
            ["x", "pdf", "cdf"],
            zip(table.x.tolist(), table.pdf.tolist(), table.cdf.tolist()),
        )
        wrote += 1
    if wrote == 0:
        raise ArgumentError(
            "config field 'n_list': brute force needs at least one n in {2, 3}"
        )
    return 0


def _cmd_verify(config, out_dir, seed):
    """Config-scoped verification: deterministic checks of the solver,
    duality, and (when a small n is configured) the chain against the
    brute-force oracle."""
    oset = _obs_set(config)
    targets = tuple(float(v) for v in config["targets"])
    checks = []

    def record(name, passed, **data):
        checks.append({"name": name, "passed": bool(passed), "data": data})

    report = dual.classify(oset, targets)
    record("classification_resolves", report.regime in
           ("EXTRANEOUS", "INTERIOR_S1", "FULL_TILT_S2", "INADMISSIBLE"),
           regime=report.regime)

    sol = report.full or report.reduced
    if sol is not None:
        matched = len(sol.p) if report.full else oset.k - 1
        resid = max(
            (abs(sol.achieved[i] - targets[i]) for i in range(matched)), default=0.0
        )
        record("moment_match", resid <= 1e-6, residual=resid)
        # Legendre duality at the solved tilt: I(moments(p)) == p.v - H(p)
        p = list(sol.p)
        v = quad.moments(oset, p)
        direct = float(np.dot(p, v)) - quad.log_partition(oset, p)
        ev = rate.rate_I(oset, v)
        record(
            "legendre_duality",
            abs(ev.value - direct) <= 1e-6,
            rate_value=float(ev.value),
            direct_value=direct,
        )

    small = [
        (n, d) for n, d in _grid(config) if n in (2, 3)
    ]
    if small and report.regime != "INADMISSIBLE":
        n, delta = small[0]
        spec = smp.ShellSpec(set=oset, n=n, delta=delta, a=targets)
        table = smp.brute_force_conditional(spec)
        params = smp.ChainParams(burn_in=20000, thin=20, n_states=5000)
        batch = smp.run_chain(spec, params, seed=seed)
        ks = diag.ks_distance(batch.states.ravel(), table)
        record("chain_vs_bruteforce", ks <= 0.05, ks=ks, n=n, delta=delta)

    payload = {
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
        "seed": int(seed),
    }
    _write_json(os.path.join(out_dir, "verify.json"), payload)
    return 0 if payload["passed"] else 2


_COMMANDS = {
    "validate": _cmd_validate,
    "solve": _cmd_solve,
    "classify": _cmd_classify,
    "rate": _cmd_rate,
    "sample": _cmd_sample,
    "bruteforce": _cmd_bruteforce,
    "verify": _cmd_verify,
}


def run(command, config, out_dir, seed):
    """Execute one subcommand; returns the process exit code."""
    os.makedirs(out_dir, exist_ok=True)
    t0 = time.time()
    status = _COMMANDS[command](config, out_dir, seed)
    manifest = {
        "command": command,
        "config_sha256": _config_hash(config),
        "seed": int(seed),
        "version": __version__,
    }
    _write_json(os.path.join(out_dir, "manifest.json"), manifest)
    with open(os.path.join(out_dir, "run.log"), "a") as fh:
        fh.write(
            "%s %s elapsed %.3fs status %d\n"
            % (time.strftime("%Y-%m-%dT%H:%M:%S"), command, time.time() - t0, status)
        )
    return status


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="microshell",
        description="Microcanonical shell experiments: dual solving, phase "
        "classification, rate functions, shell MCMC and diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=None, help="override config output_dir")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
    except ArgumentError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    seed = args.seed if args.seed is not None else config.get("seed", 0)
    out_dir = args.out or config.get("output_dir") or ("runs/%s" % args.command)
    try:
        return run(args.command, config, out_dir, seed)
    except ArgumentError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except MicroshellError as exc:
        print("numerical failure: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
