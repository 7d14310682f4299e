"""The determinism check between two traced runs."""

from record import disagreements


def _trace(counts, files):
    return {"exact_counts": counts, "result_sha256": files}


def test_identical_traces_agree():
    t = _trace({"sampler.chain_steps": 10, "sampler.accept_rate": 0.25}, {"a.csv": "ab"})
    assert disagreements(t, dict(t)) == []


def test_a_changed_count_is_named():
    first = _trace({"sampler.chain_steps": 10, "dual_solver.solves": 4}, {})
    second = _trace({"sampler.chain_steps": 10, "dual_solver.solves": 5}, {})
    assert disagreements(first, second) == ["dual_solver.solves is 4, then 5"]


def test_a_changed_or_missing_result_file_is_named():
    first = _trace({}, {"a.csv": "ab", "b.json": "cd"})
    second = _trace({}, {"a.csv": "ax"})
    assert disagreements(first, second) == [
        "result file a.csv is ab, then ax",
        "result file b.json is cd, then None",
    ]
