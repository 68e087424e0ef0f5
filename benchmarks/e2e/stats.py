"""Order statistics for the harness, ``compare.py`` and the self-tests."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Optional, Sequence

#: A percentile is reported only when at least this many samples lie
#: beyond it; otherwise it prints as ``insufficient``.
MIN_BEYOND = 10


@dataclass(frozen=True)
class Percentile:
    """A nearest-rank percentile together with its sample support."""

    q: float
    value: float
    n: int
    beyond: int

    @property
    def sufficient(self) -> bool:
        return self.beyond >= MIN_BEYOND

    def describe(self, unit: str) -> str:
        label = f"p{self.q:g} of n={self.n}, {self.beyond} beyond"
        if not self.sufficient:
            return f"insufficient ({label})"
        return f"{self.value:.4f} {unit} ({label})"


def percentile(values: Sequence[float], q: float) -> Percentile:
    """Nearest-rank *q*-th percentile of *values* (0 < q < 100)."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q < 100:
        raise ValueError("q must lie strictly between 0 and 100")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return Percentile(q, ordered[rank - 1], len(ordered), len(ordered) - rank)


def quartiles(values: Sequence[float]) -> tuple:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        only = values[0]
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> Optional[float]:
    """Interquartile range as a share of the median (None at median 0)."""
    q1, mid, q3 = quartiles(values)
    if mid == 0:
        return None
    return (q3 - q1) / abs(mid)

