"""The kernel library's float formatter against float.__repr__, byte for
byte, and sample CSVs against the pure-Python writer they replaced."""

import io
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microshell import _kernel as kern
from microshell import diagnostics as diag
from microshell import observables as obs
from microshell import sampler as smp
from microshell.errors import BuildError


def _assert_repr(values):
    """write_rows on one column gives "i,repr(v)\\r\\n" for each value."""
    values = np.asarray(values, dtype=float).ravel()
    fh = io.BytesIO()
    kern.write_rows(fh, values.reshape(-1, 1))
    got = fh.getvalue()
    want = "".join("%d,%r\r\n" % (i, v) for i, v in enumerate(values.tolist())).encode()
    if got != want:
        pairs = zip(got.decode().split("\r\n"), want.decode().split("\r\n"))
        wrong = [(g, w) for g, w in pairs if g != w]
        pytest.fail("%d lines differ, first %r" % (len(wrong), wrong[:5]))


def _from_bits(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


class TestFormatterMatchesRepr:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats() | st.integers(0, 2**64 - 1).map(_from_bits),
                    min_size=1, max_size=40))
    def test_any_double(self, values):
        # st.floats() draws subnormals, +-0, +-inf and nan; raw bit
        # patterns add nans of either sign and any payload
        _assert_repr(values)

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(20241020)
        _assert_repr(rng.integers(0, 2**64, size=10**6, dtype=np.uint64).view(np.float64))

    def test_edge_values(self):
        edges = [2.0**e for e in range(-1074, 1024)]
        for k in range(-20, 23):
            v = float("1e%d" % k)
            edges += [math.nextafter(v, 0.0), v, math.nextafter(v, math.inf)]
        for v in (9999999999999998.0, 1e16, 1e-4, 1e-5):
            edges += [math.nextafter(v, 0.0), v, math.nextafter(v, math.inf)]
        edges += [float(i) for i in range(2**53 - 5, 2**53 + 6)]
        edges += [5e-324, 1.7976931348623157e308, 0.0, math.inf, math.nan]
        _assert_repr(edges + [-v for v in edges])


def python_save_batch_csv(batch, csv_path):
    """save_batch_csv's per-cell Python writer, which the kernel replaced:
    the reference it must match byte for byte."""
    spec = batch.spec
    means = spec.set.phi(batch.states).mean(axis=2).T
    M, _ = diag.max_stats(batch)
    header = (["state"] + ["x%d" % (j + 1) for j in range(spec.n)]
              + ["S%d" % (i + 1) for i in range(spec.set.k)] + ["max_stat"])
    with open(csv_path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for idx, (state, mean, m) in enumerate(zip(batch.states, means, M.tolist())):
            row = [idx] + state.tolist() + mean.tolist() + [m]
            fh.write(",".join(map(str, row)) + "\r\n")


def _batch(n, k, states_count, seed):
    # coordinates over many decades, so the means and M cross both the
    # fixed and the exponent layout
    rng = np.random.Generator(np.random.PCG64(seed))
    states = rng.exponential(size=(states_count, n)) * 10.0 ** rng.integers(-7, 18, (states_count, 1))
    spec = smp.ShellSpec(set=obs.power_set(list(range(1, k + 1))), n=n, delta=0.1,
                         a=tuple(float(i + 1) for i in range(k)))
    return smp.SampleBatch(states=states, seed=seed, acceptance_rate=1.0,
                           shell_residuals=np.zeros(states_count), spec=spec)


class TestSampleCSV:
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 4, 37, 512])
    def test_bytes_match_the_python_writer(self, tmp_path, n, k):
        batch = _batch(n, k, 40, seed=100 * n + k)
        smp.save_batch_csv(batch, str(tmp_path / "got.csv"))
        python_save_batch_csv(batch, str(tmp_path / "want.csv"))
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_long_batch_fills_the_buffer_several_times(self, tmp_path):
        batch = _batch(37, 3, 5000, seed=11)
        smp.save_batch_csv(batch, str(tmp_path / "got.csv"))
        python_save_batch_csv(batch, str(tmp_path / "want.csv"))
        got = (tmp_path / "got.csv").read_bytes()
        assert len(got) > 3 * kern._BUFFER
        assert got == (tmp_path / "want.csv").read_bytes()

    def test_rows_of_mixed_cells_need_no_compiler(self, monkeypatch, tmp_path):
        # summary, tail-rate, rate and bruteforce tables are row iterables
        monkeypatch.setattr(kern, "_lib", None)
        monkeypatch.setattr(kern, "_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setattr(kern, "_CC", [str(tmp_path / "no-such-cc")])
        path = tmp_path / "rows.csv"
        diag._write_csv(str(path), ["n", "event", "p"], [[4, "M>=0.5", 0.1]])
        assert path.read_bytes() == b"n,event,p\r\n4,M>=0.5,0.1\r\n"
        with pytest.raises(BuildError):
            diag._write_csv(str(path), ["state", "x1"], np.ones((2, 1)))
