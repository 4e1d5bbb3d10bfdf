"""Small statistics shared by the runner, the worker and the tests."""

from __future__ import annotations

import math
import statistics
import time
from collections.abc import Sequence

# A tail percentile is reported only when at least this many items of one
# pass lie beyond it.
TAIL_ITEMS_BEYOND = 10


def tail_percentile(n_items: int) -> int | None:
    """The highest whole percentile with TAIL_ITEMS_BEYOND items of n beyond it.

    Items beyond percentile p number n * (100 - p) / 100, so the answer is
    floor(100 * (1 - 10 / n)).  A pass with fewer than 20 items has no such
    percentile worth the name (it would be below the median), so None.
    """
    if n_items < 2 * TAIL_ITEMS_BEYOND:
        return None
    return math.floor(100 * (n_items - TAIL_ITEMS_BEYOND) / n_items)


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest value with p% of values at or below it."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]


def item_tail(item_times: Sequence[float]) -> float:
    """The tail latency of one pass.

    With 20 or more items it is the tail_percentile of the items.  With
    fewer, no percentile has ten items beyond it, so the slowest item is
    the tail.
    """
    p = tail_percentile(len(item_times))
    if p is None:
        return max(item_times)
    return percentile(item_times, p)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def reference_loop_seconds(repeats: int = 3, n: int = 200_000) -> float:
    """Median time of a fixed pure-Python loop: a record of host speed.

    The loop mixes integer arithmetic, a dict and a list, the same kinds of
    work the library does, so a slow host shows up here as well.
    """
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        acc = 0
        seen: dict[int, int] = {}
        rows = []
        for i in range(n):
            k = (i * 7919) % 1031
            seen[k] = seen.get(k, 0) + 1
            acc += k if k & 1 else -k
            if i % 64 == 0:
                rows.append((k, acc))
        times.append(time.perf_counter() - start)
    return median(times)
