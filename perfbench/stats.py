"""Order statistics shared by the runner and the comparison tool."""

from __future__ import annotations

import math
import statistics

#: Percentiles the tail rule chooses from, highest last.
TAIL_CANDIDATES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def quantile(values, fraction: float) -> float:
    """Linear interpolation between closest ranks (the 'inclusive'
    definition: 0 → minimum, 1 → maximum)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no values")
    position = fraction * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def beyond(n: int, percentile: float) -> int:
    """How many of ``n`` samples lie above the ``percentile`` rank."""
    return n - math.ceil(n * percentile / 100.0 - 1e-9)


def tail_percentile(n: int) -> float | None:
    """The highest candidate percentile with at least ten of ``n``
    samples beyond it, or ``None`` when even the median has fewer."""
    chosen = None
    for percentile in TAIL_CANDIDATES:
        if beyond(n, percentile) >= 10:
            chosen = percentile
    return chosen


def latency_summary(seconds: list[float]) -> dict:
    """Median and rule-chosen tail of a latency sample, in ms, with n."""
    n = len(seconds)
    summary = {"n": n, "p50_ms": quantile(seconds, 0.5) * 1e3 if n else None}
    tail = tail_percentile(n)
    summary["tail_percentile"] = tail
    summary["tail_ms"] = quantile(seconds, tail / 100.0) * 1e3 if tail else None
    return summary


def spread(values: list[float]) -> dict:
    """Median, quartiles (``statistics.quantiles``, n=4) and the
    interquartile range as a share of the median."""
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "q1": median, "q3": median, "iqr_share": 0.0}
    q1, _, q3 = statistics.quantiles(values, n=4)
    share = (q3 - q1) / abs(median) if median else math.inf
    return {"median": median, "q1": q1, "q3": q3, "iqr_share": share}
