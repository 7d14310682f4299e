"""The compiled chain kernel against a pure-Python oracle, bit for bit,
and the paths that build and load it."""

import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from microshell import _kernel as kern
from microshell import cli
from microshell import observables as obs
from microshell import quadrature as quad
from microshell import sampler as smp
from microshell.errors import (
    ClassificationInconclusive,
    FeasibilityError,
    MicroshellError,
    MixingFailure,
)

SETS = {1: obs.power_set([1]), 2: obs.power_set([1, 2]), 3: obs.power_set([1, 2, 3])}


def python_chain(spec, params, seed, reference=None):
    """run_chain's step loop in pure Python: the definition the kernel must
    reproduce.  The running sums are accumulated by a left-to-right loop,
    because sum() of floats is compensated from Python 3.12 on."""
    x0 = smp.feasible_point(spec)
    n, k = spec.n, spec.set.k
    a = list(spec.a)
    delta = spec.delta
    exps = spec.set.exponents
    ref_c = None
    if reference is not None:
        ref_c = list(np.asarray(reference.lebesgue_coeffs, dtype=float))

    def running_sums(x):
        out = []
        for e in exps:
            s = 0.0
            for xi in x:
                s += xi ** e
            out.append(s)
        return out

    rng = np.random.Generator(np.random.PCG64(seed))
    x = [float(v) for v in x0]
    sums = running_sums(x)

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
                        d_i = new ** exps[i] - old ** exps[i]
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
                    if win_moves >= 250:
                        win_index += 1
                        rate = win_accepts / win_moves
                        gain = 1.0 / math.sqrt(win_index)
                        log_step += gain * (rate - 0.3)
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
        sums = running_sums(x)

    acc_rate = accepted_post / max(post_steps, 1)
    if acc_rate < 1e-3:
        raise MixingFailure(
            "acceptance rate %.2e after adaptation" % acc_rate,
            diagnostics={"step": step, "n": n, "delta": delta},
        )
    return states[:recorded], residuals[:recorded], float(acc_rate), float(step)


def _outcome(chain, *args):
    try:
        return chain(*args)
    except MixingFailure as exc:
        return str(exc), exc.diagnostics


def _same_bits(u, v):
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    return u.shape == v.shape and u.tobytes() == v.tobytes()


@st.composite
def chain_cases(draw):
    """A shell around a drawn configuration y: a_1 is y's mean, and the
    higher targets are lifted inside delta so that (a_1, a_2) is off
    Jensen's bound and a_3 off Cauchy-Schwarz's even for n = 1."""
    k = draw(st.sampled_from([1, 2, 3]))
    n = draw(st.sampled_from([1, 2, 3, 8, 64]))
    delta = draw(st.floats(0.02, 0.3))
    y = np.array(draw(st.lists(st.floats(0.3, 2.0), min_size=n, max_size=n)))
    lift = [0.0] + [delta / (8.0 * (1.0 + y.max()))] * (k - 2) + [0.5 * delta] * (k > 1)
    oset = SETS[k]
    a = tuple(float(np.mean(y ** e)) + up for e, up in zip(oset.exponents, lift))
    params = smp.ChainParams(
        burn_in=draw(st.integers(0, 1500)),
        thin=draw(st.integers(1, 5)),
        step_scale=draw(st.floats(0.01, 2.0)),
        n_states=draw(st.integers(1, 60)),
        swap_prob=draw(st.sampled_from([0.0, 0.05, 0.5])),
    )
    tilt = draw(st.none() | st.floats(-0.5, 0.5))
    return smp.ShellSpec(set=oset, n=n, delta=delta, a=a), params, tilt


def _long_case(tilt):
    # burn-in ends inside the first 16384-step chunk, and the run crosses
    # into a second chunk
    spec = smp.ShellSpec(set=SETS[2], n=8, delta=0.1, a=(1.0, 1.6))
    params = smp.ChainParams(burn_in=10001, thin=3, n_states=3000, swap_prob=0.05)
    return spec, params, tilt


class TestKernelMatchesOracle:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=chain_cases(), seed=st.integers(0, 2**32 - 1))
    @example(case=_long_case(None), seed=20240902)
    @example(case=_long_case(0.0), seed=7)
    def test_states_residuals_rate_and_step_are_bit_identical(self, case, seed):
        spec, params, tilt = case
        reference = None
        if tilt is not None:
            reference = quad.tilted_density(spec.set, [tilt] + [0.0] * (spec.set.k - 1))
        try:
            got = _outcome(smp.run_chain, spec, params, seed, reference)
        except (FeasibilityError, ClassificationInconclusive):
            assume(False)  # no start inside the shell: the chain never runs
        want = _outcome(python_chain, spec, params, seed, reference)
        if len(want) == 2:  # both collapse with the same message and step
            assert got == want
            return
        states, residuals, rate, step = want
        assert _same_bits(got.states, states)
        assert _same_bits(got.shell_residuals, residuals)
        assert _same_bits(got.acceptance_rate, rate)
        assert _same_bits(got.step_scale_final, step)

    def test_long_case_crosses_a_chunk_with_burn_in_ending_mid_chunk(self):
        _, params, _ = _long_case(None)
        assert params.burn_in < smp._CHUNK
        assert params.burn_in + params.n_states * params.thin > smp._CHUNK


def _small_chain():
    spec = smp.ShellSpec(set=SETS[2], n=8, delta=0.1, a=(1.0, 1.6))
    return smp.run_chain(spec, smp.ChainParams(burn_in=500, thin=2, n_states=20), seed=3)


class TestBuild:
    def test_missing_compiler_is_a_clear_error(self, monkeypatch, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        missing = str(tmp_path / "no-such-cc")
        monkeypatch.setattr(kern, "_lib", None)
        monkeypatch.setattr(kern, "_CACHE_DIR", cache)
        monkeypatch.setattr(kern, "_CC", [missing])
        with pytest.raises(MicroshellError) as info:
            _small_chain()
        assert missing in str(info.value) and cache in str(info.value)

        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "observables": {"exponents": [1, 2]},
            "targets": [1.0, 1.6],
            "n_list": [8],
            "delta_list": [0.1],
            "chains": {"burn_in": 500, "thin": 2, "n_states": 20},
            "seed": 3,
        }))
        capsys.readouterr()
        status = cli.main(["sample", "--config", str(config), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert status != 0
        assert missing in err and cache in err

    def test_empty_cache_is_built_once_and_reused(self, monkeypatch, tmp_path):
        cache = tmp_path / "cache"
        monkeypatch.setattr(kern, "_lib", None)
        monkeypatch.setattr(kern, "_CACHE_DIR", str(cache))
        first = _small_chain()
        built = sorted(os.listdir(cache))
        assert len(built) == 1 and built[0].endswith(".so")
        stamp = os.stat(cache / built[0]).st_mtime_ns

        # a fresh load must find the library: a build would now fail
        monkeypatch.setattr(kern, "_lib", None)
        monkeypatch.setattr(kern, "_CC", [str(tmp_path / "no-such-cc")])
        second = _small_chain()
        assert sorted(os.listdir(cache)) == built
        assert os.stat(cache / built[0]).st_mtime_ns == stamp
        assert _same_bits(first.states, second.states)

    def test_every_kernel_source_ships_as_package_data(self):
        # the library is built from every .c file next to the package; a
        # source missing from the wheel would fail at a user's first build
        tomllib = pytest.importorskip("tomllib")
        root = os.path.join(os.path.dirname(__file__), os.pardir)
        with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
            listed = tomllib.load(fh)["tool"]["setuptools"]["package-data"]["microshell"]
        sources = sorted(os.listdir(os.path.dirname(kern.__file__)))
        sources = [s for s in sources if s.endswith(".c")]
        assert "_chain.c" in sources and "_repr.c" in sources
        assert [s for s in sources if s not in listed] == []

    def test_unwritable_cache_builds_in_a_temporary_directory(self, monkeypatch, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        monkeypatch.setattr(kern, "_lib", None)
        monkeypatch.setattr(kern, "_CACHE_DIR", str(blocker / "cache"))
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
        os.mkdir(tmp_path / "tmp")
        batch = _small_chain()
        assert batch.states.shape == (20, 8)
        # the build directory is gone once the library is loaded
        assert os.listdir(tmp_path / "tmp") == []
