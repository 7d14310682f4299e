"""Per-layer metrics of a traced pass.

The layers are microshell's modules.  Besides calls, total and self time
of every public function, the traced pass counts work read from public
return values and arguments, never from the package's internals:

* Newton iterations and solves, from ``DualSolution.iterations``;
* rate points: ``rate_I`` calls outside ``rate_scan`` plus the grid
  points of ``rate_scan``, and the dual solves made under rate spans;
* quantile points, from the size of ``quantile``'s argument;
* chain steps and acceptance, from ``run_chain``'s parameters and batch.

``dual_solver`` calls the private ``quadrature._log_integral`` directly,
so integrals inside Newton solves count as ``dual_solver`` self time; the
observable closures in the chain's inner loop are not wrapped.
"""

import glob
import importlib
import os

import numpy as np

from spans import has_ancestor, summarize

LAYERS = ("observables", "quadrature", "dual_solver", "rate_functions", "sampler",
          "diagnostics", "cli")
SOLVES = ("dual_solver.solve_reduced", "dual_solver.solve_full")


def modules():
    return [importlib.import_module("microshell." + name) for name in LAYERS]


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _solve(tracer, args, kwargs, result):
    tracer.counts["dual_solver.newton_iterations"] += result.iterations
    tracer.counts["dual_solver.solves"] += 1


def _rate_point(tracer, args, kwargs, result):
    if not tracer.within("rate_functions.rate_scan"):
        tracer.counts["rate_functions.points"] += 1


def _rate_scan(tracer, args, kwargs, result):
    tracer.counts["rate_functions.points"] += len(result)


def _quantile(tracer, args, kwargs, result):
    tracer.counts["quadrature.quantile.points"] += int(np.size(_arg(args, kwargs, 1, "u")))


def _run_chain(tracer, args, kwargs, result):
    params = _arg(args, kwargs, 1, "params")
    post = params.n_states * params.thin
    tracer.counts["sampler.chain_steps"] += params.burn_in + post
    tracer.counts["sampler.post_burn_in_steps"] += post
    tracer.counts["sampler.accepted_moves"] += result.acceptance_rate * post


HOOKS = {
    "dual_solver.solve_reduced": _solve,
    "dual_solver.solve_full": _solve,
    "rate_functions.rate_I": _rate_point,
    "rate_functions.rate_scan": _rate_scan,
    "quadrature.quantile": _quantile,
    "sampler.run_chain": _run_chain,
}


def _ratio(a, b):
    return a / b if b else 0.0


def metrics(tracer):
    """Flat {name: (value, unit)} from a finished traced pass.  Every
    wrapped function is listed, so functions a workload never calls still
    report zeros."""
    spans = tracer.spans
    funcs, layer_self = summarize(spans)
    out = {}
    for name in tracer.wrapped:
        f = funcs.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        out[name + ".calls"] = (f["calls"], "count")
        out[name + ".total_s"] = (f["total_s"], "s")
        out[name + ".self_s"] = (f["self_s"], "s")
    for layer in LAYERS + ("bench",):
        out[layer + ".self_s"] = (layer_self.get(layer, 0.0), "s")

    c = tracer.counts
    solves_in_rate = sum(
        1 for i, s in enumerate(spans) if s[0] in SOLVES and has_ancestor(spans, i, "rate_functions")
    )
    out.update({
        "dual_solver.newton_iterations": (int(c["dual_solver.newton_iterations"]), "count"),
        "dual_solver.solves": (int(c["dual_solver.solves"]), "count"),
        "dual_solver.iterations_per_solve": (
            _ratio(c["dual_solver.newton_iterations"], c["dual_solver.solves"]), "ratio"),
        "rate_functions.points": (int(c["rate_functions.points"]), "count"),
        "rate_functions.solves_per_point": (_ratio(solves_in_rate, c["rate_functions.points"]), "ratio"),
        "quadrature.quantile.points": (int(c["quadrature.quantile.points"]), "count"),
        "quadrature.quantile.points_per_s": (
            _ratio(c["quadrature.quantile.points"], out["quadrature.quantile.total_s"][0]), "1/s"),
        "sampler.chain_steps": (int(c["sampler.chain_steps"]), "count"),
        "sampler.steps_per_s": (
            _ratio(c["sampler.chain_steps"], out["sampler.run_chain.self_s"][0]), "1/s"),
        "sampler.accept_rate": (
            _ratio(c["sampler.accepted_moves"], c["sampler.post_burn_in_steps"]), "ratio"),
    })
    return out


# counts that must repeat exactly between two traced runs with one seed
EXACT_COUNTS = (
    "dual_solver.newton_iterations",
    "dual_solver.solves",
    "sampler.chain_steps",
    "sampler.accept_rate",
    "quadrature.quantile.points",
    "dual_solver.classify.calls",
    "rate_functions.points",
)


def sloc(src_dir):
    """Non-blank, non-comment source lines per module, and their total."""
    out = {}
    total = 0
    for path in sorted(glob.glob(os.path.join(src_dir, "*.py"))):
        with open(path) as fh:
            n = sum(1 for line in fh if line.strip() and not line.lstrip().startswith("#"))
        total += n
        stem = os.path.splitext(os.path.basename(path))[0]
        if stem != "__init__":
            out[stem + ".sloc"] = (n, "lines")
    out["microshell.sloc"] = (total, "lines")
    return out
