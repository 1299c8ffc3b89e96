"""Percentiles, shares, throughput and their window medians."""

from __future__ import annotations

import statistics


def percentile(values, p: float) -> float:
    """The p-th percentile (0..100) by linear interpolation between the
    closest ranks of the sorted sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 <= p <= 100:
        raise ValueError("percentile must be between 0 and 100")
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def share(part: int, whole: int) -> float:
    if whole <= 0:
        raise ValueError("share of an empty total")
    if not 0 <= part <= whole:
        raise ValueError("part must lie between 0 and the total")
    return part / whole


def throughput(runs) -> float:
    """Decided instances per second of the time all instances took, from
    (elapsed seconds, decided) pairs: an undecided instance costs its time
    and adds nothing."""
    total = sum(elapsed for elapsed, _ in runs)
    if total <= 0:
        raise ValueError("throughput of no time")
    return sum(1 for _, decided in runs if decided) / total


def window_median(values, stat, windows: int = 10, min_size: int = 1000) -> float:
    """stat over consecutive windows of values (in run order), then the
    median over windows: as many windows as fit, up to `windows`, with at
    least `min_size` values each (a remainder of fewer than one value per
    window is left out).  With too few values for two windows it is
    stat(values).  A burst of interference from other processes on a shared
    machine then moves at most the windows it falls in."""
    k = min(windows, len(values) // min_size)
    if k < 2:
        return stat(values)
    size = len(values) // k
    return statistics.median(stat(values[i * size : (i + 1) * size]) for i in range(k))
