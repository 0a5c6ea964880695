"""Latency percentiles in which a failed request ranks above every success."""

from __future__ import annotations

import math


def percentile(latencies: list[float], failures: int, q: float) -> float | None:
    """Nearest-rank q-quantile of the latencies, with `failures` ranked last.

    A failed request counts as missing every latency limit, so it sorts
    above every success.  When the rank lands on a failure the
    percentile is unresolved and None is returned.
    """
    if not 0 < q <= 1:
        raise ValueError("q must lie in (0, 1]")
    n = len(latencies) + failures
    if n == 0:
        return None
    rank = math.ceil(q * n)
    ordered = sorted(latencies)
    return ordered[rank - 1] if rank <= len(ordered) else None


def samples_beyond(total: int, q: float) -> int:
    """How many of `total` samples rank above the nearest-rank q-quantile."""
    return total - math.ceil(q * total) if total else 0
