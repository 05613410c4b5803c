"""The tail percentile of a latency sample."""

import pytest

from run import TAIL_BEYOND, tail_percentile


@pytest.mark.parametrize("n", [11, 12, 31, 100, 1001, 20000])
def test_tail_leaves_ten_samples_beyond(n):
    samples = [float(i) for i in range(n, 0, -1)]
    pct, value, beyond = tail_percentile(samples)
    assert beyond == TAIL_BEYOND
    assert sum(1 for x in samples if x > value) == TAIL_BEYOND
    assert pct == pytest.approx(100.0 * (n - TAIL_BEYOND) / n)


def test_small_samples_report_the_maximum():
    assert tail_percentile([3.0, 1.0, 2.0]) == (100.0, 3.0, 0)


def test_empty_sample_is_an_error():
    with pytest.raises(ValueError):
        tail_percentile([])
