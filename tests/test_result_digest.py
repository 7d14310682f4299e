import importlib.util
import os

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
_spec = importlib.util.spec_from_file_location(
    "result_digest", os.path.join(ROOT, "tools", "result_digest.py")
)
result_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(result_digest)


def test_classify_digest_repeats():
    config = os.path.join(ROOT, "configs", "lp3.json")
    first = result_digest.digest_run(ROOT, config, "classify")
    assert first == result_digest.digest_run(ROOT, config, "classify")
    assert first[0].startswith("lp3.json classify exit=0 stdout=")
    # one line per result file: classify.json, not manifest.json or run.log
    assert [line.split()[2] for line in first[1:]] == ["classify.json"]
