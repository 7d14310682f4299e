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

Exit codes: 0 success, 1 configuration error (load_config), 2 numerical
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
from .errors import (ArgumentError, Infeasible, InvalidObservableSet,
                     MicroshellError, NoFullTilt)

__all__ = ["main", "load_config", "run"]

# The JSON type of every config field: "number" (an int or float),
# "integer" (an int), "string", [a list of one type] or {an object of
# named fields}.  Bounds are checked by the objects built from the values.
_FIELDS = {
    "observables": {"exponents": ["number"]},
    "targets": ["number"],
    "n_list": ["integer"],
    "delta_list": ["number"],
    "chains": {"burn_in": "integer", "thin": "integer", "step_scale": "number",
               "n_states": "integer", "swap_prob": "number"},
    "target_measure": "string",
    "z_grid": ["number"],
    "seed": "integer",
    "output_dir": "string",
}
_REQUIRED = {"observables", "observables.exponents", "targets"}
_TYPES = {"object": (dict,), "array": (list,), "number": (int, float),
          "integer": (int,), "string": (str,)}


class _NonFinite(str):
    """A NaN or Infinity token of a config file: a value of no JSON type."""


def _config_error(path, message):
    return ArgumentError("config field %r: %s" % (path or "<root>", message))


def _check_types(value, kind, path=""):
    """Raise ArgumentError at the first field of value whose exact type is not
    its _FIELDS type: a bool is no number, and a NaN or Infinity token no type."""
    json_type = {dict: "object", list: "array"}.get(type(kind), kind)
    if type(value) not in _TYPES[json_type]:
        raise _config_error(path, "%r is not of type %r" % (value, json_type))
    if isinstance(kind, list):
        for i, item in enumerate(value):
            _check_types(item, kind[0], "%s.%d" % (path, i))
    elif isinstance(kind, dict):
        unexpected = sorted(set(value) - set(kind))
        if unexpected:
            raise _config_error(path, "Additional properties are not allowed "
                                "(%r was unexpected)" % unexpected[0])
        for key, sub in kind.items():
            name = path + "." + key if path else key
            if key in value:
                _check_types(value[key], sub, name)
            elif name in _REQUIRED:
                raise _config_error(path, "%r is a required property" % key)


def _construct(path, make, *args, **kwargs):
    """make(*args, **kwargs), its refusal of the arguments reported at path."""
    try:
        return make(*args, **kwargs)
    except (ArgumentError, InvalidObservableSet) as exc:
        raise _config_error(path, exc) from None


def load_config(path):
    """Parse a JSON experiment config and return it unchanged once every field
    has its _FIELDS type and the objects built from the fields accept them."""
    try:
        with open(path) as fh:
            raw = json.load(fh, parse_constant=_NonFinite)
    except OSError as exc:
        raise ArgumentError("cannot read config %s: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise ArgumentError("config %s is not valid JSON: %s" % (path, exc))
    _check_types(raw, _FIELDS)
    exponents = raw["observables"]["exponents"]
    # power_set refuses a list at its first bad exponent, so building the
    # set one prefix at a time names that exponent
    for i in range(len(exponents) or 1):
        oset = _construct("observables.exponents" + (".%d" % i if exponents else ""),
                      obs.power_set, exponents[:i + 1])
    targets = tuple(raw["targets"])
    if len(targets) != oset.k:
        raise _config_error("targets", "expected %d values to match the %d "
                            "observables, got %d" % (oset.k, oset.k, len(targets)))
    _construct("chains", smp.ChainParams, **raw.get("chains", {}))
    for n, delta in _grid(raw):
        _construct("n_list/delta_list", smp.ShellSpec, set=oset, n=n, delta=delta, a=targets)
    if raw.get("target_measure", "uniform") not in ("uniform", "conditioned"):
        raise _config_error("target_measure", "%r is not 'uniform' or 'conditioned'"
                            % raw["target_measure"])
    if "z_grid" in raw and len(raw["z_grid"]) < 2:
        raise _config_error("z_grid", "%r is too short" % raw["z_grid"])
    return raw


def _obs_set(config):
    return obs.power_set(config["observables"]["exponents"])


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
    params = smp.ChainParams(**config.get("chains", {}))
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
        level = report.surplus
        eps = diag.default_epsilon(level)
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
    sol = report.solution
    if sol is not None:
        matched = oset.k - 1 if report.regime == "EXTRANEOUS" else oset.k
        resid = max(
            (abs(sol.achieved[i] - targets[i]) for i in range(matched)), default=0.0
        )
        record("moment_match", resid <= 1e-6, residual=resid)
        # Legendre duality at the solved tilt: I(moments(p)) == p.v - H(p)
        v = sol.achieved
        direct = float(np.dot(sol.p, v)) - sol.log_partition_value
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
        seed = args.seed if args.seed is not None else config.get("seed", 0)
        out_dir = args.out or config.get("output_dir") or ("runs/%s" % args.command)
        return run(args.command, config, out_dir, seed)
    except ArgumentError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except MicroshellError as exc:
        print("numerical failure: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
