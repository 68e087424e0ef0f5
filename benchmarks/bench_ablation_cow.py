"""Ablation — eager checkpoint vs. undo-log ("copy-on-write") masking.

Section 6.2 of the paper suggests copy-on-write mechanisms to speed up
checkpointing of very large objects.  This bench compares the eager
deep-copy checkpoint against the write-barrier undo log across object
sizes: the eager overhead grows with size, the undo log's stays flat.
Both time the same masking wrapper, under its ``snapshot`` and
``undolog`` checkpoint strategies.
"""

from __future__ import annotations

from repro.experiments import format_overhead_table, measure_undolog_ablation

from conftest import emit


def bench_ablation_cow(benchmark):
    results = measure_undolog_ablation(
        sizes=(4, 64, 1024), calls=600, repeats=5
    )
    emit("Ablation: eager checkpoint", format_overhead_table(results["eager"]))
    emit("Ablation: undo-log checkpoint",
         format_overhead_table(results["undolog"]))

    eager = {p.size: p.overhead for p in results["eager"]}
    undolog = {p.size: p.overhead for p in results["undolog"]}
    benchmark.extra_info["eager"] = eager
    benchmark.extra_info["undolog"] = undolog

    # the paper's expected benefit: size-independence of the CoW variant
    assert undolog[1024] < eager[1024]
    assert undolog[1024] / undolog[4] < eager[1024] / eager[4]

    from repro.core.masking import failure_atomic, get_strategy
    from repro.experiments.fig5 import SyntheticService

    undolog = get_strategy("undolog")
    undolog.cover([SyntheticService])
    try:
        service = SyntheticService(1024)
        wrapped = failure_atomic(
            SyntheticService.step, checkpoint_args=False, strategy="undolog"
        )
        benchmark(lambda: wrapped(service, 7))
    finally:
        undolog.uncover([SyntheticService])
