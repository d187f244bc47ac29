"""Percentiles, tail selection and spreads on synthetic samples."""

import pytest

from perfbench import stats


def test_percentile_interpolates_between_ranks():
    values = [4.0, 1.0, 3.0, 2.0]
    assert stats.percentile(values, 0.0) == 1.0
    assert stats.percentile(values, 1.0) == 4.0
    assert stats.percentile(values, 0.5) == pytest.approx(2.5)
    assert stats.percentile(values, 0.25) == pytest.approx(1.75)


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        stats.percentile([], 0.5)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 1.5)


@pytest.mark.parametrize(
    "count, expected",
    [
        (5000, 0.99),  # enough samples: capped at p99
        (1000, 0.99),  # exactly ten beyond p99
        (599, 0.983),  # 1 - 10/599 = 0.98330...
        (330, 0.969),
        (100, 0.9),
        (20, None),  # p50 is the most a 20-sample set supports
        (0, None),
    ],
)
def test_tail_fraction_leaves_ten_samples_beyond(count, expected):
    fraction = stats.tail_fraction(count)
    assert fraction == expected
    if fraction is not None:
        assert count - fraction * count >= 10 - 1e-9


def test_summarize_reports_count_and_falls_back_to_the_maximum():
    small = stats.summarize([3.0, 1.0, 2.0])
    assert small == {"n": 3, "p50": 2.0, "tail": 3.0, "tail_q": 1.0}
    big = stats.summarize([float(i) for i in range(1, 1001)])
    assert big["n"] == 1000 and big["tail_q"] == 0.99
    assert big["tail"] == pytest.approx(stats.percentile(range(1, 1001), 0.99))
    assert stats.summarize([])["n"] == 0


def test_merge_intervals_unions_overlaps():
    merged = stats.merge_intervals([(5, 7), (0, 2), (1, 3), (3, 4), (6, 9)])
    assert merged == [(0, 4), (5, 9)]
    assert stats.merge_intervals([]) == []
