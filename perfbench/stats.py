"""The harness's own order statistics (kept apart from ``repro`` so a
rewrite of the program's percentile code cannot move the ruler)."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: A percentile is reported only with this many samples beyond it.
SAMPLES_BEYOND = 10

#: The tail percentile asked for when the sample supports it.
TAIL_PERCENTILE = 99.0


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``pct`` percent of the samples at or below it."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < pct <= 100.0:
        raise ValueError(f"percentile must lie in (0, 100], got {pct}")
    ordered = sorted(samples)
    rank = math.ceil(pct / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def supported_tail(count: int) -> float:
    """The highest percentile, at most :data:`TAIL_PERCENTILE`, that
    still leaves :data:`SAMPLES_BEYOND` samples beyond it.

    1000 samples and more support p99; 400 support p97.5; fewer than
    twice ``SAMPLES_BEYOND`` support nothing above the median, which is
    what this returns for them.
    """
    if count <= 2 * SAMPLES_BEYOND:
        return 50.0
    return min(TAIL_PERCENTILE, 100.0 * (count - SAMPLES_BEYOND) / count)


def tail(samples: Sequence[float]) -> tuple[float, float]:
    """``(percentile used, its value)`` for the sample's supported tail."""
    pct = supported_tail(len(samples))
    return pct, percentile(samples, pct)


def spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median — the repeatability measure ``BENCHMARK.json`` bounds."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first: float, second: float, better: str) -> float:
    """By what share of ``first`` the value ``second`` is worse (negative
    when it is better); ``better`` is ``"lower"`` or ``"higher"``."""
    return ((second - first) if better == "lower" else (first - second)) / first
