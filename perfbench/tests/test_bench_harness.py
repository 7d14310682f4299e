"""Percentile rule and failure counting."""

import pytest

from harness import Recorder, nearest_rank, rate, tail_count


def test_p90_of_100_samples_has_ten_beyond():
    values = list(range(1, 101))
    assert tail_count(100, 0.9) == 10
    assert nearest_rank(values, 0.9) == 90
    assert sum(v > nearest_rank(values, 0.9) for v in values) == 10


def test_high_percentile_refused_without_ten_samples_beyond():
    with pytest.raises(ValueError):
        nearest_rank(list(range(99)), 0.9)
    assert nearest_rank(list(range(1, 51)), 0.8) == 40


def test_median_is_nearest_rank_and_order_free():
    assert nearest_rank([5.0, 1.0, 3.0], 0.5) == 3.0
    assert nearest_rank([4.0, 1.0, 3.0, 2.0], 0.5) == 2.0
    assert nearest_rank([7.0], 0.5) == 7.0


def _boom():
    raise ValueError("no")


def test_failures_count_raised_calls_and_failed_checks_once_per_op():
    ticks = iter(range(100))
    rec = Recorder(clock=lambda: float(next(ticks)))
    good = rec.run("a", lambda: 1, units=3)
    bad_check = rec.run("a", lambda: 2, units=5)
    bad_check.expect(False, "first")
    bad_check.expect(False, "second")
    raised = rec.run("b", _boom, units=7)
    broken = rec.run("b", lambda: 3)
    broken.verify(lambda value: [] if value == 0 else ["wrong"])
    crashed = rec.run("b", lambda: 4)
    crashed.verify(lambda value: 1 / 0)
    assert good.ok and not bad_check.ok and not raised.ok and not broken.ok and not crashed.ok
    assert rec.attempted == 5
    assert rec.failed == 4
    assert rec.wall_s == 5.0
    # throughput counts the units of successful operations only
    assert rec.units(("a",)) == 3
    assert rate([rec], ("a",)) == 1.5
