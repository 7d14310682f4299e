import json
import os

import pytest

from microshell import cli
from microshell.errors import ArgumentError


def base_config(**overrides):
    cfg = {
        "observables": {"family": "POWERS", "exponents": [1, 2]},
        "targets": [1.0, 3.0],
        "mode": "CLASSIFY",
        "seed": 7,
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestLoadConfig:
    def test_valid_minimal(self, tmp_path):
        path = write_config(tmp_path, base_config())
        cfg = cli.load_config(path)
        assert cfg["mode"] == "CLASSIFY"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ArgumentError, match="cannot read config"):
            cli.load_config(str(tmp_path / "absent.json"))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ArgumentError, match="not valid JSON"):
            cli.load_config(str(path))

    def test_schema_error_names_field(self, tmp_path):
        cfg = base_config()
        cfg["observables"]["exponents"] = [1, -2]
        path = write_config(tmp_path, cfg)
        with pytest.raises(ArgumentError, match="observables.exponents.1"):
            cli.load_config(path)

    def test_bad_mode_enum(self, tmp_path):
        path = write_config(tmp_path, base_config(mode="FROBNICATE"))
        with pytest.raises(ArgumentError, match="mode"):
            cli.load_config(path)

    def test_unknown_top_level_key_rejected(self, tmp_path):
        path = write_config(tmp_path, base_config(extra_knob=3))
        with pytest.raises(ArgumentError):
            cli.load_config(path)

    def test_targets_length_mismatch(self, tmp_path):
        path = write_config(tmp_path, base_config(targets=[1.0]))
        with pytest.raises(ArgumentError, match="targets"):
            cli.load_config(path)

    def test_sample_mode_requires_grid(self, tmp_path):
        path = write_config(tmp_path, base_config(mode="SAMPLE"))
        with pytest.raises(ArgumentError, match="n_list"):
            cli.load_config(path)


class TestExitCodes:
    def test_bad_config_returns_1(self, tmp_path):
        path = write_config(tmp_path, base_config(targets=[1.0]))
        assert cli.main(["classify", "--config", path]) == 1

    def test_classify_returns_0(self, tmp_path):
        path = write_config(tmp_path, base_config())
        out = str(tmp_path / "out")
        assert cli.main(["classify", "--config", path, "--out", out]) == 0
        payload = json.loads((tmp_path / "out" / "classify.json").read_text())
        assert payload["regime"] == "EXTRANEOUS"
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["command"] == "classify"
        assert manifest["seed"] == 7

    def test_bruteforce_without_small_n_returns_1(self, tmp_path):
        cfg = base_config(mode="BRUTEFORCE", n_list=[64], delta_list=[0.1])
        path = write_config(tmp_path, cfg)
        out = str(tmp_path / "out")
        assert cli.main(["bruteforce", "--config", path, "--out", out]) == 1

    def test_mixing_failure_returns_2(self, tmp_path, capsys):
        cfg = base_config(
            mode="SAMPLE",
            targets=[1.0, 2.5],
            n_list=[8],
            delta_list=[0.05],
            chains={"burn_in": 0, "thin": 1, "n_states": 2000,
                    "step_scale": 1e6, "swap_prob": 0.0},
        )
        path = write_config(tmp_path, cfg)
        out = str(tmp_path / "out")
        assert cli.main(["sample", "--config", path, "--out", out]) == 2
        assert "numerical failure: MixingFailure" in capsys.readouterr().err


class TestSolveCommand:
    def test_reduced_solves_and_full_reports_no_tilt(self, tmp_path):
        path = write_config(tmp_path, base_config(mode="SOLVE"))
        out = str(tmp_path / "out")
        assert cli.main(["solve", "--config", path, "--out", out]) == 0
        payload = json.loads((tmp_path / "out" / "solve.json").read_text())
        assert "p" in payload["reduced"]
        assert payload["full"]["error"] == "NoFullTilt"

    def test_interior_full_solves(self, tmp_path):
        path = write_config(tmp_path, base_config(mode="SOLVE", targets=[1.0, 1.5]))
        out = str(tmp_path / "out")
        assert cli.main(["solve", "--config", path, "--out", out]) == 0
        payload = json.loads((tmp_path / "out" / "solve.json").read_text())
        full = payload["full"]
        assert float(full["p"][1]) < 0
        assert float(full["achieved"][0]) == pytest.approx(1.0, abs=1e-7)

    def test_k1_has_no_reduced(self, tmp_path):
        cfg = base_config(mode="SOLVE", targets=[2.0])
        cfg["observables"]["exponents"] = [2]
        path = write_config(tmp_path, cfg)
        out = str(tmp_path / "out")
        assert cli.main(["solve", "--config", path, "--out", out]) == 0
        payload = json.loads((tmp_path / "out" / "solve.json").read_text())
        assert payload["reduced"]["error"] == "ArgumentError"
        assert float(payload["full"]["p"][0]) == pytest.approx(0.75, abs=1e-6)


class TestRateCommand:
    def test_scan_csv(self, tmp_path):
        cfg = base_config(mode="RATE", z_grid=[0.5, 1.5, 2.5, 3.5])
        path = write_config(tmp_path, cfg)
        out = str(tmp_path / "out")
        assert cli.main(["rate", "--config", path, "--out", out]) == 0
        lines = (tmp_path / "out" / "rate_scan.csv").read_text().strip().splitlines()
        assert lines[0] == "z,I_value,p1,p2"
        assert len(lines) == 5
        # z = 0.5 is below the admissible floor: infinite rate, boundary flag
        first = lines[1].split(",")
        assert first[1] == "inf"
        assert first[2] == "BOUNDARY"
        # z-values above the phase boundary share the flat rate value
        assert lines[3].split(",")[1] == lines[4].split(",")[1]


class TestBruteforceCommand:
    def test_table_csv(self, tmp_path):
        cfg = base_config(
            mode="BRUTEFORCE", targets=[1.0, 1.6], n_list=[2], delta_list=[0.15]
        )
        path = write_config(tmp_path, cfg)
        out = str(tmp_path / "out")
        assert cli.main(["bruteforce", "--config", path, "--out", out]) == 0
        files = os.listdir(out)
        assert "bruteforce_n2_d0p15.csv" in files
        lines = (
            (tmp_path / "out" / "bruteforce_n2_d0p15.csv").read_text().splitlines()
        )
        assert lines[0] == "x,pdf,cdf"
        last_cdf = float(lines[-1].split(",")[2])
        assert last_cdf == pytest.approx(1.0, rel=1e-9)


class TestSampleCommand:
    def test_grid_outputs(self, tmp_path):
        cfg = base_config(
            mode="SAMPLE",
            n_list=[8, 16],
            delta_list=[0.2],
            chains={"burn_in": 2000, "thin": 8, "n_states": 150},
        )
        path = write_config(tmp_path, cfg)
        out = str(tmp_path / "out")
        assert cli.main(["sample", "--config", path, "--out", out]) == 0
        files = set(os.listdir(out))
        assert {"samples_n8_d0p2.csv", "samples_n16_d0p2.csv",
                "summary.csv", "tail_rates_0.2.csv"} <= files
        lines = (tmp_path / "out" / "summary.csv").read_text().strip().splitlines()
        assert lines[0] == "n,delta,ks,mean_M,mean_N"
        assert len(lines) == 3

    def test_conditioned_target_measure(self, tmp_path):
        cfg = base_config(
            mode="SAMPLE",
            n_list=[8],
            delta_list=[0.2],
            target_measure="conditioned",
            chains={"burn_in": 1000, "thin": 4, "n_states": 50},
        )
        path = write_config(tmp_path, cfg)
        out = str(tmp_path / "out")
        assert cli.main(["sample", "--config", path, "--out", out]) == 0
        sidecar = json.loads(
            (tmp_path / "out" / "samples_n8_d0p2.json").read_text()
        )
        assert sidecar["reference_p"] == [0.0, 0.0]


class TestVerifyCommand:
    CFG = dict(
        mode="VERIFY", targets=[1.0, 1.6], n_list=[2], delta_list=[0.15], seed=11
    )

    def test_passes_and_is_byte_identical(self, tmp_path):
        path = write_config(tmp_path, base_config(**self.CFG))
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert cli.main(["verify", "--config", path, "--out", out1]) == 0
        assert cli.main(["verify", "--config", path, "--out", out2]) == 0
        v1 = (tmp_path / "a" / "verify.json").read_bytes()
        v2 = (tmp_path / "b" / "verify.json").read_bytes()
        assert v1 == v2
        m1 = (tmp_path / "a" / "manifest.json").read_bytes()
        m2 = (tmp_path / "b" / "manifest.json").read_bytes()
        assert m1 == m2
        payload = json.loads(v1)
        assert payload["passed"]
        names = {c["name"] for c in payload["checks"]}
        assert {"observable_conditions", "classification_resolves",
                "moment_match", "legendre_duality", "chain_vs_bruteforce"} <= names

    def test_seed_override_recorded(self, tmp_path):
        path = write_config(tmp_path, base_config(**self.CFG))
        out = str(tmp_path / "out")
        assert cli.main(
            ["verify", "--config", path, "--out", out, "--seed", "99"]
        ) == 0
        payload = json.loads((tmp_path / "out" / "verify.json").read_text())
        assert payload["seed"] == 99
