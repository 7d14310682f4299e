import importlib.util
import json
import math
import os

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
_spec = importlib.util.spec_from_file_location(
    "result_diff", os.path.join(ROOT, "tools", "result_diff.py")
)
result_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(result_diff)

# solve.json as microshell solve writes it for configs/lp3.json
SOLVE = {
    "full": {
        "achieved": [0.9999999999955422, 2.4999999999865037, 6.999999999951234],
        "iterations": 18,
        "log_partition": -1.6885227252114692,
        "p": [-8.808482460820034, 5.838538132505001, -0.9706765810349092],
        "residual": 4.8766324312055076e-11,
    },
    "reduced": {
        "error": "Infeasible",
        "message": "moment 2 reachable at most 2 on the boundary face, target 2.5",
    },
}


def _compare(a, b, name="solve.json"):
    return result_diff.compare_file(name, json.dumps(a).encode(), json.dumps(b).encode())


def test_classify_on_one_tree_is_identical():
    lines, problems = result_diff.diff_run(ROOT, ROOT, "lp3.json", "classify")
    assert problems == 0
    # manifest.json and run.log are left out
    assert lines == ["lp3.json classify: exit 0, stdout and stderr identical",
                     "lp3.json classify classify.json: identical"]


def test_a_moment_moved_by_1e_5_exits_1_naming_file_and_field(tmp_path, monkeypatch, capsys):
    moved = json.loads(json.dumps(SOLVE))
    moved["full"]["achieved"][1] *= 1.0 + 1e-5
    written = {}
    for side, payload in (("a", SOLVE), ("b", moved)):
        tree = tmp_path / side
        (tree / "configs").mkdir(parents=True)
        (tree / "configs" / "lp3.json").write_text("{}")
        written[str(tree)] = json.dumps(payload, sort_keys=True, indent=2).encode()
    # every run exits 0 and prints nothing; solve writes the two copies
    monkeypatch.setattr(result_diff, "run_one", lambda tree, config_name, command: (
        0, b"", b"", {"solve.json": written[tree]} if command == "solve" else {}))
    assert result_diff.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "lp3.json solve solve.json: DIFFERS: 1 beyond tolerance; values equal" in out
    assert "    full.achieved[1]: 2.4999999999865037 vs 2.5000249999865036, relative 1e-05 > 1e-08" in out
    assert out[-1] == "1 beyond tolerance over 7 runs"


def test_a_float_moved_within_tolerance_is_counted():
    moved = json.loads(json.dumps(SOLVE))
    moved["full"]["achieved"][1] = math.nextafter(moved["full"]["achieved"][1], 3.0)
    count, (rel, where), problems = _compare(SOLVE, moved)
    assert (count, where, problems) == (1, "full.achieved[1]", [])
    assert 0.0 < rel < 1e-15


def test_a_quoted_float_equals_the_number():
    assert _compare({"g2": "1.5"}, {"g2": 1.5}) == (0, (0.0, None), [])
    quoted = json.loads(json.dumps(SOLVE))
    quoted["full"]["p"] = [repr(v) for v in SOLVE["full"]["p"]]
    assert _compare(quoted, SOLVE)[2] == []
    assert _compare({"regime": "EXTRANEOUS"}, {"regime": 1.5})[2] != []


def test_a_removed_verify_check_is_reported():
    checks = [{"name": "observable_conditions", "passed": True, "data": {}},
              {"name": "chain_vs_bruteforce", "passed": True,
               "data": {"ks": 0.0134, "n": 2, "delta": 0.15}}]
    a = {"passed": True, "checks": checks, "seed": 1}
    b = {"passed": True, "checks": checks[1:], "seed": 1}
    assert _compare(a, b, "verify.json")[2] == ["checks.observable_conditions: only in A"]
    # a KS statistic moves freely below its bound, not past it
    b["checks"] = [dict(checks[1], data=dict(checks[1]["data"], ks=0.02))]
    assert _compare(a, b, "verify.json")[2] == ["checks.observable_conditions: only in A"]
    b["checks"][0]["data"]["ks"] = 0.06
    assert len(_compare(a, b, "verify.json")[2]) == 2
