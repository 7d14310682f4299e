"""Smoke test: every demo's main() runs to the end and prints its report."""

import importlib.util
import pathlib

import pytest

DEMOS = pathlib.Path(__file__).resolve().parents[1] / "demos"


def _load(name):
    spec = importlib.util.spec_from_file_location("demo_" + name, DEMOS / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", sorted(p.stem for p in DEMOS.glob("*.py")))
def test_demo_main_runs(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # phase_portrait writes its CSV to the cwd
    _load(name).main()
    assert capsys.readouterr().out.strip()


def test_rate_profile_anchor_and_flat_tail(capsys):
    _load("rate_profile").main()
    out = capsys.readouterr().out
    assert "I(2, 8) = 0.30685282" in out
    # above the phase boundary z = 2 the rate is flat at I(1, 2) = 0
    assert "  3.60     0.000000" in out
