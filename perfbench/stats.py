"""Summary statistics of one run: throughput over windows, latency
percentiles, and per-item layer quantities."""

from __future__ import annotations

import statistics

import hostspeed
from metrics import PER_LAYER

TAIL_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def tail_latency(latencies) -> tuple[float, float, int]:
    """Latency at the highest percentile that still has at least TAIL_BEYOND
    items beyond it: with n sorted latencies, the (n - TAIL_BEYOND)-th one,
    at percentile 100 (n - TAIL_BEYOND) / n. Returns (latency, percentile,
    items beyond). With n <= TAIL_BEYOND no percentile qualifies, and the
    maximum is returned with nothing beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def scaled(kind: str, latencies, windows, calibration) -> list[float]:
    """Each latency in reference-host seconds: scaled by the median
    calibration-kernel time of its window (hostspeed.py). calibration
    holds the kernel times measured after each item."""
    factor = {
        w: hostspeed.scale(kind, [c for cs, cw in zip(calibration, windows) if cw == w for c in cs])
        for w in set(windows)
    }
    return [latency * factor[w] for latency, w in zip(latencies, windows)]


def rate(latencies) -> float:
    """Items completed per second of item time."""
    return len(latencies) / sum(latencies) if latencies else 0.0


def per_item(totals: dict, setup_totals: dict, items: int, scale: float) -> dict:
    """Every per-layer metric of the traced run: a mean per item for units
    ending in /item, a total over set-up for plain seconds. Times are
    multiplied by `scale`, to reference-host seconds."""
    out = {}
    for name, unit, _, _ in PER_LAYER:
        factor = scale if unit in ("s", "s/item") else 1.0
        if unit.endswith("/item"):
            out[name] = factor * totals.get(name, 0.0) / items if items else 0.0
        elif unit == "s":
            out[name] = factor * setup_totals.get(name, 0.0)
    systems = totals.get("nondegeneracy.systems", 0.0)
    decided = totals.get("nondegeneracy.systems_decided", 0.0)
    out["nondegeneracy.systems_decided_ratio"] = decided / systems if systems else 0.0
    return out
