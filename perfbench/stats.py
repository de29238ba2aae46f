"""Order statistics for benchmark reports.

A timing is reported as its median plus the highest percentile of a fixed
ladder that still has at least ``MIN_BEYOND`` samples above it, so a tail
figure is never read off one or two outliers.
"""

from __future__ import annotations

import math
import statistics

TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)
MIN_BEYOND = 10


def nearest_rank(ordered: list[float], p: float) -> tuple[int, float]:
    """1-based nearest rank of percentile ``p`` in sorted ``ordered``, and its value."""
    rank = max(1, math.ceil(p * len(ordered) / 100.0 - 1e-9))  # 99.9 * 10000 / 100 is 9990.000000000002
    return rank, ordered[rank - 1]


def tail_percentile(values) -> tuple[float, float] | None:
    """(p, value) for the highest ladder percentile with >= MIN_BEYOND samples beyond it."""
    ordered = sorted(values)
    for p in TAIL_LADDER:
        if not ordered:
            break
        rank, value = nearest_rank(ordered, p)
        if len(ordered) - rank >= MIN_BEYOND:
            return p, value
    return None


def summarize(values) -> dict:
    """Median, tail percentile (or None) and sample count of a timing."""
    values = list(values)
    tail = tail_percentile(values)
    return {
        "n": len(values),
        "median": statistics.median(values) if values else None,
        "tail": None if tail is None else {"p": tail[0], "value": tail[1]},
    }


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with quartiles as ``statistics.quantiles(n=4)`` gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
