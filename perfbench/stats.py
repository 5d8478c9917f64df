"""Order statistics the benchmark reports."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: A tail percentile is reported only when this many samples lie beyond it.
MIN_SAMPLES_BEYOND = 10


def median(values: Sequence[float]) -> float:
    """The median of ``values`` (``nan`` when empty)."""
    return statistics.median(values) if values else math.nan


def tail_percentile(
    samples: Sequence[float], q: float, min_beyond: int = MIN_SAMPLES_BEYOND
) -> float | None:
    """The nearest-rank ``q``-quantile, or ``None`` when too few samples back it.

    The value at rank ``ceil(q * n)`` is reported only if at least
    ``min_beyond`` samples sit at higher ranks: a p90 needs 100 samples,
    a p99 needs 1000.
    """
    if not 0 < q < 1:
        raise ValueError(f"q must be in (0, 1), got {q}")
    n = len(samples)
    rank = max(1, math.ceil(q * n))
    if n - rank < min_beyond:
        return None
    return sorted(samples)[rank - 1]
