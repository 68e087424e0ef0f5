"""Figure 5: masking overhead vs. checkpoint size and wrapped-call ratio.

The paper measures the slowdown of the masked program as a function of
(a) the size of the checkpointed object and (b) the percentage of calls
that go to transformed (wrapped) methods; each point is the median of 40
runs, on a method whose unwrapped processing time is ~0.5 µs.

This module reproduces the experiment on a synthetic service whose state
size is a parameter.  It also measures the masking wrapper under the
undo-log ("copy-on-write") checkpoint strategy as the ablation suggested
in the paper's Section 6.2: its cost is write-proportional, so the
overhead stays flat as the object grows.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

from repro.core.analyzer import Analyzer
from repro.core.masking import STRATEGIES, make_atomicity_wrapper

__all__ = [
    "SyntheticService",
    "OverheadPoint",
    "measure_overhead",
    "measure_undolog_ablation",
    "format_overhead_table",
    "DEFAULT_SIZES",
    "DEFAULT_RATIOS",
]

#: Checkpointed-object sizes (number of state fields), log-spaced like
#: the paper's x axis.
DEFAULT_SIZES: Sequence[int] = (4, 16, 64, 256, 1024)

#: Fraction of calls that go to the wrapped (masked) method.
DEFAULT_RATIOS: Sequence[float] = (0.0, 0.001, 0.01, 0.1, 1.0)

#: The checkpoint strategy each ``variant`` of :func:`measure_overhead` times.
_VARIANTS: Dict[str, str] = {"eager": "snapshot", "undolog": "undolog"}


class SyntheticService:
    """A service whose checkpointable state has a configurable size.

    ``step`` models the paper's ~0.5 µs method: a handful of attribute
    reads and writes plus one list update.
    """

    def __init__(self, size: int) -> None:
        self.size = size
        self.counter = 0
        self.accumulator = 0
        self.state = [0] * size

    def step(self, value: int) -> int:
        """One unit of work: bounded mutation of the service state."""
        self.counter += 1
        self.accumulator += value
        self.state[value % self.size] = self.counter
        return self.accumulator


@dataclass
class OverheadPoint:
    """One data point of Figure 5."""

    size: int
    ratio: float
    base_seconds_per_call: float
    masked_seconds_per_call: float

    @property
    def overhead(self) -> float:
        """Slowdown factor (1.0 = no overhead)."""
        if self.base_seconds_per_call == 0:
            return float("inf")
        return self.masked_seconds_per_call / self.base_seconds_per_call


def _run_loop(
    service: SyntheticService,
    calls: int,
    ratio: float,
    wrapped: Callable,
) -> float:
    """Time *calls* invocations, a *ratio* fraction through *wrapped*."""
    plain = SyntheticService.step
    period = int(1 / ratio) if ratio > 0 else 0
    start = time.perf_counter()
    for index in range(calls):
        if period and index % period == 0:
            wrapped(service, index)
        else:
            plain(service, index)
    return (time.perf_counter() - start) / calls


def _median_time(make_run: Callable[[], float], repeats: int) -> float:
    return statistics.median(make_run() for _ in range(repeats))


def measure_overhead(
    sizes: Sequence[int] = DEFAULT_SIZES,
    ratios: Sequence[float] = DEFAULT_RATIOS,
    *,
    calls: int = 2000,
    repeats: int = 7,
    variant: str = "eager",
) -> List[OverheadPoint]:
    """Measure masking overhead over the size × ratio grid.

    Each point compares the per-call time of a loop where a *ratio*
    fraction of calls is masked against the fully unmasked loop, taking
    the median of *repeats* runs (the paper uses the median of 40).
    The masked calls go through :func:`make_atomicity_wrapper` with the
    ``snapshot`` (``variant="eager"``) or ``undolog`` strategy.
    """
    if variant not in _VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    strategy = STRATEGIES[_VARIANTS[variant]]
    step_spec = next(
        s for s in Analyzer().analyze_class(SyntheticService) if s.name == "step"
    )
    wrapped = make_atomicity_wrapper(
        step_spec, checkpoint_args=False, strategy=strategy.name
    )
    points: List[OverheadPoint] = []
    strategy.cover([SyntheticService])
    try:
        for size in sizes:
            service = SyntheticService(size)
            base = _median_time(
                lambda: _run_loop(service, calls, 0.0, wrapped), repeats
            )
            for ratio in ratios:
                masked = _median_time(
                    lambda: _run_loop(service, calls, ratio, wrapped), repeats
                )
                points.append(
                    OverheadPoint(
                        size=size,
                        ratio=ratio,
                        base_seconds_per_call=base,
                        masked_seconds_per_call=masked,
                    )
                )
    finally:
        strategy.uncover([SyntheticService])
    return points


def measure_undolog_ablation(
    sizes: Sequence[int] = DEFAULT_SIZES,
    *,
    ratio: float = 1.0,
    calls: int = 1000,
    repeats: int = 5,
) -> Dict[str, List[OverheadPoint]]:
    """Eager-checkpoint vs undo-log overhead across object sizes.

    The interesting shape: eager overhead grows with object size; the
    undo log's stays flat (cost proportional to writes, not size).
    """
    return {
        "eager": measure_overhead(
            sizes, (ratio,), calls=calls, repeats=repeats, variant="eager"
        ),
        "undolog": measure_overhead(
            sizes, (ratio,), calls=calls, repeats=repeats, variant="undolog"
        ),
    }


def format_overhead_table(points: List[OverheadPoint]) -> str:
    """Render the Figure 5 grid: rows = object size, columns = ratio."""
    ratios = sorted({point.ratio for point in points})
    sizes = sorted({point.size for point in points})
    by_key = {(p.size, p.ratio): p for p in points}
    header = ["size \\ wrapped-calls"] + [f"{100 * r:g}%" for r in ratios]
    widths = [len(h) for h in header]
    rows = []
    for size in sizes:
        row = [str(size)]
        for ratio in ratios:
            point = by_key[(size, ratio)]
            row.append(f"{point.overhead:.2f}x")
        rows.append(row)
        widths = [max(w, len(c)) for w, c in zip(widths, row)]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(header, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
