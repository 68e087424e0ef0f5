"""Figure 5 — masking overhead vs. checkpoint size and wrapped-call ratio.

Regenerates the paper's overhead grid on the synthetic service: the
overhead grows with the size of the checkpointed object and with the
percentage of calls to transformed methods, and stays small while both
stay small — the condition the paper observes in its real applications
(< 0.4% of calls to wrapped methods).
"""

from __future__ import annotations

from repro.experiments import (
    DEFAULT_RATIOS,
    DEFAULT_SIZES,
    format_overhead_table,
    measure_overhead,
)

from conftest import emit


def bench_fig5(benchmark):
    points = measure_overhead(
        sizes=DEFAULT_SIZES, ratios=DEFAULT_RATIOS, calls=1000, repeats=5
    )
    rendered = emit(
        "Figure 5: masking overhead (rows: object size, cols: % wrapped calls)",
        format_overhead_table(points),
    )
    benchmark.extra_info["fig5"] = rendered

    grid = {(p.size, p.ratio): p.overhead for p in points}
    sizes, ratios = sorted(DEFAULT_SIZES), sorted(DEFAULT_RATIOS)
    # paper shape 1: overhead grows with the wrapped-call ratio
    assert grid[(sizes[-1], ratios[-1])] > grid[(sizes[-1], ratios[1])]
    # paper shape 2: overhead grows with the checkpointed object size
    assert grid[(sizes[-1], 1.0)] > grid[(sizes[0], 1.0)]
    # paper shape 3: negligible when almost no call is wrapped
    assert grid[(sizes[0], ratios[1])] < grid[(sizes[0], 1.0)] / 2

    # the benchmarked unit: one masked call on a mid-size object
    from repro.core.masking import failure_atomic
    from repro.experiments.fig5 import SyntheticService

    service = SyntheticService(64)
    wrapped = failure_atomic(SyntheticService.step, checkpoint_args=False)
    benchmark(lambda: wrapped(service, 7))
