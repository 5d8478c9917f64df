"""The percentile helper reports a tail only with ten samples beyond it."""

import pytest

from perfbench.stats import tail_percentile


def test_p90_needs_ten_samples_beyond_it():
    assert tail_percentile(list(range(99)), 0.9) is None
    samples = list(range(100, 0, -1))
    # Nearest rank 90 of 1..100; ten samples (91..100) lie beyond it.
    assert tail_percentile(samples, 0.9) == 90


def test_p99_needs_a_thousand_samples():
    assert tail_percentile([1.0] * 999, 0.99) is None
    assert tail_percentile([float(v) for v in range(1000)], 0.99) == 989.0


def test_tail_percentile_rejects_a_non_tail_quantile():
    with pytest.raises(ValueError):
        tail_percentile([1.0, 2.0], 1.0)
