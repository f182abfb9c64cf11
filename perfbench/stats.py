"""Order statistics shared by every workload."""

from __future__ import annotations

import math
import statistics
from collections.abc import Sequence

#: Percentiles a tail latency may be reported at, lowest first.
PERCENTILE_LADDER: tuple[float, ...] = (50.0, 90.0, 95.0, 99.0, 99.9)

#: A percentile is reported only when this many samples lie beyond it.
MIN_BEYOND = 10


def rank(n: int, p: float) -> int:
    """1-based nearest rank of percentile ``p`` in ``n`` sorted samples."""
    return max(1, math.ceil(p / 100.0 * n - 1e-9))


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (a value that was actually observed)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    return ordered[rank(len(ordered), p) - 1]


def beyond(n: int, p: float) -> int:
    """Samples strictly above the nearest rank of ``p``."""
    return n - rank(n, p)


def supported_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least :data:`MIN_BEYOND` samples
    beyond it, or ``None`` when even the median is not supported."""
    best = None
    for p in PERCENTILE_LADDER:
        if beyond(n, p) >= MIN_BEYOND:
            best = p
    return best


#: The percentile windowed tails are taken at.
WINDOW_TAIL = 90.0


def window_for(p: float) -> int:
    """Smallest window with :data:`MIN_BEYOND` samples beyond ``p``."""
    return math.ceil(MIN_BEYOND / (1.0 - p / 100.0) - 1e-9)


def per_window(values: Sequence[float], p: float, size: int) -> list[float]:
    """Each consecutive window's ``p``-th percentile; the last window
    takes the remainder (one window when there are fewer than ``size``)."""
    count = max(1, len(values) // size)
    return [percentile(values[i * size:(i + 1) * size if i < count - 1 else None], p)
            for i in range(count)]


def lower_quartile(values: Sequence[float]) -> float:
    """First quartile, interpolated inside the sample (never beyond it)."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def windowed(values: Sequence[float], p: float, size: int) -> float:
    """Lower quartile over consecutive windows of ``size`` samples of each
    window's ``p``-th percentile.

    Interference from outside the program (other tenants of a shared host)
    comes in bursts of seconds that slow every request in a window; it
    lifts the windows it hits, not the quartile, unless it covers most of
    the run.  A slowdown of the program itself lifts every window.
    """
    return lower_quartile(per_window(values, p, size))


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of an empty sample")
    return float(statistics.median(values))


def percentile_label(p: float) -> str:
    """``99.0 -> "p99"``, ``99.9 -> "p99.9"``."""
    return f"p{p:g}"
