"""The statistics behind the metrics (no ``repro`` import needed)."""

from __future__ import annotations

import math
import statistics


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def tail_percentile(n: int) -> float:
    """The highest of p90 / p95 / p99 / p99.9 with at least ten of ``n``
    samples beyond it (p50 if none has): p90 of a cold deck's 125
    requests, p95 of ``serve_churn``'s 750."""
    return max((q for q in (90, 95, 99, 99.9) if n - math.ceil(q / 100 * n) >= 10), default=50)


def fastest_fifth(values: list[float]) -> float:
    """Mean of the fastest fifth of like samples.  Repetitions of the same
    cold work are alike by construction and interference only ever adds
    time, so the slow ones measure the host, not the program."""
    ordered = sorted(values)
    return statistics.fmean(ordered[: max(1, len(ordered) // 5)])


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)
