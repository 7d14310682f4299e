import csv
import glob
import json
import math
import os
import sys

import pytest

from microshell import cli
from microshell import observables as obs
from microshell import quadrature as quad
from microshell import sampler as smp
from microshell.errors import ArgumentError


def base_config(**overrides):
    cfg = {
        "observables": {"exponents": [1, 2]},
        "targets": [1.0, 3.0],
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
        assert cli.load_config(path) == base_config()

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

    def test_stale_mode_field_rejected(self, tmp_path):
        # the subcommand alone decides what runs; configs name no mode
        path = write_config(tmp_path, base_config(mode="SAMPLE"))
        with pytest.raises(ArgumentError, match="Additional properties.*'mode'"):
            cli.load_config(path)

    def test_unknown_top_level_key_rejected(self, tmp_path):
        path = write_config(tmp_path, base_config(extra_knob=3))
        with pytest.raises(ArgumentError):
            cli.load_config(path)

    def test_targets_length_mismatch(self, tmp_path):
        path = write_config(tmp_path, base_config(targets=[1.0]))
        with pytest.raises(ArgumentError, match="targets"):
            cli.load_config(path)

    @pytest.mark.parametrize("cfg, field", [
        ([1, 2], "<root>"),
        ({"targets": [1.0]}, "'observables' is a required"),
        ({"observables": {}, "targets": [1.0]}, "'exponents' is a required"),
        ({"observables": {"exponents": [1, 2]}}, "'targets' is a required"),
        (base_config(observables={"exponents": [1], "family": "x"}, targets=[1.0]),
         "'observables'.*'family'"),
        (base_config(observables={"exponents": []}), "observables.exponents"),
        (base_config(targets=[1, True]), "targets.1"),
        (base_config(n_list=[0], delta_list=[0.1]), "n_list"),
        (base_config(n_list=[8], delta_list=[0]), "delta_list"),
        (base_config(observables={"exponents": [1, float("nan")]}),
         "observables.exponents.1"),
        (base_config(n_list=[8], delta_list=[float("nan")]), "delta_list"),
        (base_config(chains={"thin": 0}), "thin"),
        (base_config(chains={"step_scale": 0}), "step_scale"),
        (base_config(chains={"swap_prob": 1}), "swap_prob"),
        (base_config(target_measure="x"), "target_measure"),
        (base_config(z_grid=[1]), "z_grid"),
        (base_config(seed="7"), "'seed'"),
        (base_config(output_dir=3), "output_dir"),
        # a JSON integer is an int: integral floats are refused as well
        (base_config(seed=7.0), "'seed'"),
        (base_config(chains={"burn_in": 100.0}), "burn_in"),
        (base_config(n_list=[8.0]), "n_list.0"),
    ])
    def test_rejection_names_the_field(self, tmp_path, cfg, field):
        path = write_config(tmp_path, cfg)
        with pytest.raises(ArgumentError, match=field):
            cli.load_config(path)

    def test_needs_no_jsonschema(self, tmp_path, monkeypatch):
        monkeypatch.setitem(sys.modules, "jsonschema", None)
        path = write_config(tmp_path, base_config())
        out = str(tmp_path / "out")
        assert cli.main(["validate", "--config", path, "--out", out]) == 0


class TestExitCodes:
    def test_bad_config_returns_1(self, tmp_path):
        path = write_config(tmp_path, base_config(targets=[1.0]))
        assert cli.main(["classify", "--config", path]) == 1

    def test_decreasing_exponents_return_1(self, tmp_path, capsys):
        cfg = base_config(observables={"exponents": [2, 1]})
        path = write_config(tmp_path, cfg)
        out = str(tmp_path / "out")
        assert cli.main(["classify", "--config", path, "--out", out]) == 1
        assert "config field 'observables.exponents.1'" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, field", [
        ({"seed": 7.0}, "seed"),
        ({"chains": {"burn_in": 100.0}}, "chains.burn_in"),
        ({"n_list": [8.0]}, "n_list.0"),
    ])
    def test_integral_float_returns_1(self, tmp_path, capsys, overrides, field):
        cfg = base_config(**{"n_list": [8], "delta_list": [0.05], **overrides})
        path = write_config(tmp_path, cfg)
        out = str(tmp_path / "out")
        assert cli.main(["sample", "--config", path, "--out", out]) == 1
        assert "config field %r" % field in capsys.readouterr().err

    @pytest.mark.parametrize("command, overrides, field, token", [
        ("classify", {"targets": [1.0, math.nan]}, "targets.1", "NaN"),
        ("classify", {"targets": [1.0, math.inf]}, "targets.1", "Infinity"),
        ("classify", {"targets": [-math.inf, 3.0]}, "targets.0", "-Infinity"),
        ("rate", {"z_grid": [1.0, math.nan]}, "z_grid.1", "NaN"),
        ("classify", {"output_dir": math.nan}, "output_dir", "NaN"),
    ])
    def test_non_finite_number_returns_1(self, tmp_path, capsys, command, overrides,
                                         field, token):
        # json.dumps writes NaN, Infinity and -Infinity, which are not JSON
        path = write_config(tmp_path, base_config(**overrides))
        out = str(tmp_path / "out")
        assert cli.main([command, "--config", path, "--out", out]) == 1
        err = capsys.readouterr().err
        assert "config field %r: %r is not of type" % (field, token) in err
        assert not os.path.exists(out)

    def test_classify_returns_0(self, tmp_path):
        path = write_config(tmp_path, base_config())
        out = str(tmp_path / "out")
        assert cli.main(["classify", "--config", path, "--out", out]) == 0
        payload = json.loads((tmp_path / "out" / "classify.json").read_text())
        assert payload["regime"] == "EXTRANEOUS"
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["command"] == "classify"
        assert manifest["seed"] == 7

    def test_sample_without_grid_returns_1(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config())
        out = str(tmp_path / "out")
        assert cli.main(["sample", "--config", path, "--out", out]) == 1
        assert "n_list" in capsys.readouterr().err

    def test_bruteforce_without_small_n_returns_1(self, tmp_path):
        cfg = base_config(n_list=[64], delta_list=[0.1])
        path = write_config(tmp_path, cfg)
        out = str(tmp_path / "out")
        assert cli.main(["bruteforce", "--config", path, "--out", out]) == 1

    def test_mixing_failure_returns_2(self, tmp_path, capsys):
        cfg = base_config(
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


    def test_swap_prob_one_returns_1(self, tmp_path, capsys):
        # transpositions alone only permute the chain's start
        cfg = base_config(n_list=[8], delta_list=[0.05], chains={"swap_prob": 1.0})
        path = write_config(tmp_path, cfg)
        out = str(tmp_path / "out")
        assert cli.main(["sample", "--config", path, "--out", out]) == 1
        assert "swap_prob" in capsys.readouterr().err


class TestSolveCommand:
    def test_reduced_solves_and_full_reports_no_tilt(self, tmp_path):
        path = write_config(tmp_path, base_config())
        out = str(tmp_path / "out")
        assert cli.main(["solve", "--config", path, "--out", out]) == 0
        payload = json.loads((tmp_path / "out" / "solve.json").read_text())
        assert "p" in payload["reduced"]
        assert payload["full"]["error"] == "NoFullTilt"

    def test_interior_full_solves(self, tmp_path):
        path = write_config(tmp_path, base_config(targets=[1.0, 1.5]))
        out = str(tmp_path / "out")
        assert cli.main(["solve", "--config", path, "--out", out]) == 0
        payload = json.loads((tmp_path / "out" / "solve.json").read_text())
        full = payload["full"]
        assert float(full["p"][1]) < 0
        assert float(full["achieved"][0]) == pytest.approx(1.0, abs=1e-7)

    def test_k1_has_no_reduced(self, tmp_path):
        cfg = base_config(targets=[2.0])
        cfg["observables"]["exponents"] = [2]
        path = write_config(tmp_path, cfg)
        out = str(tmp_path / "out")
        assert cli.main(["solve", "--config", path, "--out", out]) == 0
        payload = json.loads((tmp_path / "out" / "solve.json").read_text())
        assert payload["reduced"]["error"] == "ArgumentError"
        assert float(payload["full"]["p"][0]) == pytest.approx(0.75, abs=1e-6)

    def test_target_below_the_floor_writes_reduced_and_infeasible_full(self, tmp_path):
        # POWERS[1, 2, 4] at (1, 1.2, 1.6): a_3 is below the floor 1.2^3
        cfg = base_config(targets=[1.0, 1.2, 1.6])
        cfg["observables"]["exponents"] = [1, 2, 4]
        path = write_config(tmp_path, cfg)
        out = str(tmp_path / "out")
        assert cli.main(["solve", "--config", path, "--out", out]) == 0
        payload = json.loads((tmp_path / "out" / "solve.json").read_text())
        assert float(payload["reduced"]["achieved"][2]) == pytest.approx(2.382, abs=1e-3)
        assert payload["full"]["error"] == "Infeasible"

    def test_s2_prefix_writes_the_reduced_error_and_a_full_solution(self, tmp_path):
        # lp3's targets: POWERS[1, 2, 3] at (1, 2.5, 7); the reduced solve
        # walks down to the face p_2 = 0, where the second moment falls short
        cfg = base_config(targets=[1.0, 2.5, 7.0])
        cfg["observables"]["exponents"] = [1, 2, 3]
        path = write_config(tmp_path, cfg)
        out = str(tmp_path / "out")
        assert cli.main(["solve", "--config", path, "--out", out]) == 0
        payload = json.loads((tmp_path / "out" / "solve.json").read_text())
        assert payload["reduced"] == {
            "error": "Infeasible",
            "message": "moment 2 reachable at most 2 on the boundary face, target 2.5",
        }
        full = payload["full"]
        assert full["residual"] < 1e-8
        assert full["achieved"] == pytest.approx([1.0, 2.5, 7.0], abs=1e-8)


class TestRateCommand:
    def test_scan_csv(self, tmp_path):
        cfg = base_config(z_grid=[0.5, 1.5, 2.5, 3.5])
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

    def test_default_grid(self, tmp_path):
        # no z_grid: 41 points from a_k / 4 to 2 a_k, here 0.75 to 6
        path = write_config(tmp_path, base_config())
        out = str(tmp_path / "out")
        assert cli.main(["rate", "--config", path, "--out", out]) == 0
        lines = (tmp_path / "out" / "rate_scan.csv").read_text().strip().splitlines()
        assert lines[0] == "z,I_value,p1,p2"
        rows = [line.split(",") for line in lines[1:]]
        z = [float(row[0]) for row in rows]
        assert len(rows) == 41
        assert z[0] == 0.75 and z[-1] == 6.0
        assert z == sorted(z)
        for zi, row in zip(z, rows):
            if zi <= 1.0:
                # at or below the floor g1 = a_1^2 = 1
                assert row[1:] == ["inf", "BOUNDARY", ""]
            elif zi >= 2.0:
                # at or above g2 = 2: the flat rate at the reduced tilt
                assert row[1:] == ["0.0", "0.0", "0.0"]


class TestBruteforceCommand:
    def test_table_csv(self, tmp_path):
        cfg = base_config(
            targets=[1.0, 1.6], n_list=[2], delta_list=[0.15]
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
        # a numpy scalar would write its repr, np.float64(...), into a cell
        for name in files:
            assert "np." not in (tmp_path / "out" / name).read_text(), name
        with open(tmp_path / "out" / "tail_rates_0.2.csv", newline="") as fh:
            events = {row["event"] for row in csv.DictReader(fh)}
        # the targets (1, 3) are extraneous: both tails are estimated
        assert {e[:3] for e in events} == {"M>=", "M<="}
        for event in events:
            assert repr(float(event[3:])) == event[3:]

    def test_conditioned_target_measure(self, tmp_path):
        cfg = base_config(
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
        # the same chain run directly gives every sidecar value
        oset = obs.power_set([1, 2])
        spec = smp.ShellSpec(set=oset, n=8, delta=0.2, a=(1.0, 3.0))
        params = smp.ChainParams(burn_in=1000, thin=4, n_states=50)
        reference = quad.tilted_density(oset, [0.0, 0.0])
        batch = smp.run_chain(spec, params, seed=7, reference=reference)
        assert sidecar == {
            "seed": 7,
            "acceptance_rate": batch.acceptance_rate,
            "n": 8,
            "delta": 0.2,
            "a": [1.0, 3.0],
            "burn_in": 1000,
            "thin": 4,
            "n_states": 50,
            "reference_p": [0.0, 0.0],
            "step_scale_final": batch.step_scale_final,
        }


CONFIGS = sorted(
    glob.glob(os.path.join(os.path.dirname(__file__), "..", "configs", "*.json"))
)


class TestValidateCommand:
    @pytest.mark.parametrize("config", CONFIGS, ids=os.path.basename)
    def test_every_config_passes(self, config, tmp_path):
        # the benchmark's validate check reads only the top-level key
        assert cli.main(["validate", "--config", config, "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "validate.json").read_text())
        assert payload["passed"] is True
        assert all(c["passed"] for c in payload["conditions"].values())


class TestVerifyCommand:
    CFG = dict(
        targets=[1.0, 1.6], n_list=[2], delta_list=[0.15], seed=11
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
        assert names == {"moment_match", "legendre_duality", "chain_vs_bruteforce"}

    def test_seed_override_recorded(self, tmp_path):
        path = write_config(tmp_path, base_config(**self.CFG))
        out = str(tmp_path / "out")
        assert cli.main(
            ["verify", "--config", path, "--out", out, "--seed", "99"]
        ) == 0
        payload = json.loads((tmp_path / "out" / "verify.json").read_text())
        assert payload["seed"] == 99
