"""Arithmetic of the benchmark: tail percentiles, failure shares, self times.

Kept free of trotterchain imports so the tests of this file run without the
library and the orchestrator can use it before anything is built.
"""

from __future__ import annotations

import math

# Percentiles tried for the tail, highest first.  The tail is the highest of
# them that still has at least TAIL_MIN_BEYOND samples strictly above it.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


def nearest_rank(values, pct: float) -> tuple:
    """(value, samples beyond it) of the nearest-rank ``pct`` percentile."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    # round first: 99.9 / 100 * 10000 is 9990.000000000002 in floating point
    rank = max(1, math.ceil(round(pct / 100.0 * len(ordered), 9)))
    return ordered[rank - 1], len(ordered) - rank


def tail(values) -> tuple | None:
    """(percentile, value) of the highest ladder percentile with enough samples beyond.

    Returns None below 2 * TAIL_MIN_BEYOND samples, where not even the median
    has ten samples beyond it; the caller then reports the sample count only.
    """
    if len(values) < 2 * TAIL_MIN_BEYOND:
        return None
    for pct in TAIL_LADDER:
        value, beyond = nearest_rank(values, pct)
        if beyond >= TAIL_MIN_BEYOND:
            return pct, value
    return None


def failed_share(checks) -> float:
    """Failed checks over attempted checks; ``checks`` holds (name, ok, detail)."""
    if not checks:
        raise ValueError("no checks were attempted")
    return sum(1 for _, ok, _ in checks if not ok) / len(checks)


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> list:
    """Self time of every span: its duration minus what its children cover.

    ``spans`` holds (name, start, end, parent) with ``parent`` the index of
    the enclosing span or -1.
    """
    children: dict = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    return [
        (end - start) - covered_length(children.get(i, ()), start, end)
        for i, (name, start, end, parent) in enumerate(spans)
    ]


def rescaled(seconds: float, start: float, samples, ref_hz: float) -> float | None:
    """``seconds`` measured from ``start``, restated at the probe rate ``ref_hz``.

    ``samples`` holds (start, CPU seconds) of each run of the probe loop
    (``probe.py``).  Their mean rate over the interval, over ``ref_hz``,
    scales the time: an interval through which the CPU ran 20% slower than
    at ``ref_hz`` comes out 20% shorter.  None when no sample falls inside.
    """
    rates = [1.0 / cpu for t, cpu in samples if start <= t <= start + seconds and cpu > 0]
    if not rates:
        return None
    return seconds * (sum(rates) / len(rates)) / ref_hz
