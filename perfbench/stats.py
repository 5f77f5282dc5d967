"""Metric arithmetic: percentiles, the reportable tail, peak resident set."""

from __future__ import annotations

import math
import resource
import sys

# Candidate tail percentiles, highest first.  A percentile is reportable
# only when at least TAIL_MIN samples lie beyond it.
TAIL_CANDIDATES = (99.9, 99.0, 90.0, 50.0)
TAIL_MIN = 10


def percentile(values, pct: float) -> float:
    """Linear-interpolation percentile of a non-empty sequence (pct in [0, 100])."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    pos = (len(xs) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def samples_beyond(n: int, pct: float) -> int:
    """How many of n sorted samples sit above the rank `percentile` reads at."""
    return n - 1 - math.floor((n - 1) * pct / 100.0) if n else 0


def highest_tail(n: int) -> float | None:
    """Highest candidate percentile with at least TAIL_MIN samples beyond it."""
    for pct in TAIL_CANDIDATES:
        if samples_beyond(n, pct) >= TAIL_MIN:
            return pct
    return None


def maxrss_to_mb(maxrss: int, platform: str = sys.platform) -> float:
    """Convert getrusage's ru_maxrss to MiB: kilobytes on Linux, bytes on macOS."""
    if platform == "darwin":
        return maxrss / (1024.0 * 1024.0)
    return maxrss / 1024.0


def peak_rss_mb() -> float:
    """Peak resident set of this process so far, in MiB."""
    return maxrss_to_mb(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
