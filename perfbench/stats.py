"""Order statistics the benchmark reports.

Kept independent of the program under test (``repro.runtime.latency``
has its own percentile), so a change to the program's statistics can
never move the benchmark's yardstick.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

#: A tail percentile needs at least this many samples strictly above it.
TAIL_MIN_BEYOND = 10
#: The tail percentile reported when the sample count supports it.
TAIL_CAP = 0.99


def percentile(values: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile of ``values`` (any order).

    ``fraction`` is in ``[0, 1]``.  An empty input has no percentile.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction {fraction} outside [0, 1]")
    ordered = sorted(values)
    rank = fraction * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return float(ordered[low])
    weight = rank - low
    return ordered[low] * (1.0 - weight) + ordered[high] * weight


def median(values: Sequence[float]) -> float:
    """The 50th percentile."""
    return percentile(values, 0.5)


def tail_fraction(count: int) -> Optional[float]:
    """The highest percentile with at least ten samples beyond it.

    Capped at p99 and rounded down to a tenth of a percent.  ``None``
    when ``count`` is too small for any tail above the median.
    """
    if count <= 0:
        return None
    fraction = min(TAIL_CAP, 1.0 - TAIL_MIN_BEYOND / count)
    fraction = math.floor(fraction * 1000.0) / 1000.0
    if fraction <= 0.5:
        return None
    return fraction


def summarize(values: Sequence[float]) -> Dict[str, Optional[float]]:
    """Median, the supported tail percentile and the sample count.

    ``tail_q`` is the percentile actually used (e.g. 0.969 for 330
    samples); ``tail`` falls back to the maximum when the sample is too
    small to support any tail percentile, and ``tail_q`` is then 1.0.
    """
    if not values:
        return {"n": 0, "p50": None, "tail": None, "tail_q": None}
    fraction = tail_fraction(len(values))
    if fraction is None:
        tail, fraction = float(max(values)), 1.0
    else:
        tail = percentile(values, fraction)
    return {"n": len(values), "p50": median(values), "tail": tail, "tail_q": fraction}


def pct(part: float, whole: float) -> float:
    """``100 * part / whole``; 0 for an empty whole."""
    return 100.0 * part / whole if whole else 0.0


def ratio(part: float, whole: float) -> float:
    """``part / whole``; 0 for an empty whole."""
    return part / whole if whole else 0.0


def merge_intervals(intervals: List[tuple]) -> List[tuple]:
    """Union of ``(start, end)`` intervals as disjoint sorted intervals."""
    merged: List[list] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1][1] = end
        else:
            merged.append([start, end])
    return [tuple(pair) for pair in merged]
