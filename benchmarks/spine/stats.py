"""Order statistics the spine reports, with their sample-count rules."""

from __future__ import annotations

import math
import statistics

#: A percentile is reported only with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile of ``samples``.

    Refuses (``ValueError``) a percentile that fewer than
    :data:`MIN_SAMPLES_BEYOND` samples lie beyond: a p90 of 50 samples
    is five outliers, not a percentile.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must be within (0, 100): {q}")
    count = len(samples)
    beyond = count * (100 - q) / 100
    if beyond < MIN_SAMPLES_BEYOND:
        raise ValueError(
            f"p{q:g} of {count} samples has {beyond:g} beyond it; "
            f"need {MIN_SAMPLES_BEYOND}"
        )
    rank = math.ceil(count * q / 100)
    return sorted(samples)[rank - 1]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (run-to-run spread)."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of ``ys`` over ``xs`` (0 when ``xs`` is constant)."""
    mean_x = statistics.fmean(xs)
    mean_y = statistics.fmean(ys)
    var = sum((x - mean_x) ** 2 for x in xs)
    if not var:
        return 0.0
    return sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / var
