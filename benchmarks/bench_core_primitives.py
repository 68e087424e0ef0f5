"""Microbenchmarks of the core primitives the campaigns are built from.

Not a paper artifact, but the numbers that explain every other bench:
object-graph capture, graph comparison, checkpoint, restore, the
per-call cost of an injection wrapper in each campaign mode, and the
per-call cost of an atomicity wrapper around Figure 5's
``SyntheticService.step`` under each checkpoint strategy.  Run them with
``make bench-primitives``; they assert only that each primitive works.
"""

from __future__ import annotations

import pytest

from repro.core import (
    Analyzer,
    InjectionCampaign,
    capture,
    checkpoint,
    graphs_equal,
    make_injection_wrapper,
)
from repro.core.masking import STRATEGIES, make_atomicity_wrapper
from repro.experiments.fig5 import SyntheticService


class _Payload:
    def __init__(self, fanout: int) -> None:
        self.mapping = {f"key{i}": [i, i + 1] for i in range(fanout)}
        self.sequence = list(range(fanout))
        self.label = "payload"

    def touch(self) -> int:
        self.sequence[0] += 1
        return self.sequence[0]


def bench_capture(benchmark):
    payload = _Payload(32)
    graph = benchmark(lambda: capture(payload))
    assert graph.size() > 64


def bench_graph_compare(benchmark):
    payload = _Payload(32)
    before = capture(payload)
    after = capture(payload)
    assert benchmark(lambda: graphs_equal(before, after))


def bench_checkpoint(benchmark):
    payload = _Payload(32)
    saved = benchmark(lambda: checkpoint(payload))
    assert saved.recorded_count > 30


def bench_checkpoint_restore(benchmark):
    payload = _Payload(32)
    saved = checkpoint(payload)

    def mutate_and_restore():
        payload.sequence.append(99)
        saved.restore()

    benchmark(mutate_and_restore)
    assert payload.sequence == list(range(32))


def bench_wrapper_disabled(benchmark):
    campaign = InjectionCampaign()
    spec = next(
        s for s in Analyzer().analyze_class(_Payload) if s.name == "touch"
    )
    wrapper = make_injection_wrapper(spec, campaign)
    payload = _Payload(4)
    benchmark(lambda: wrapper(payload))


def bench_wrapper_detecting(benchmark):
    """The capture path: a run with no profile elides nothing, so every
    call captures its receiver before it runs and never compares it.
    Most calls of a real run take the elided path instead."""
    campaign = InjectionCampaign()
    spec = next(
        s for s in Analyzer().analyze_class(_Payload) if s.name == "touch"
    )
    wrapper = make_injection_wrapper(spec, campaign)
    payload = _Payload(4)
    campaign.begin_run(10**9)  # never fires: pure instrumentation cost
    benchmark(lambda: wrapper(payload))
    campaign.end_run(completed=True, escaped=False)


def _step_spec():
    return next(
        s for s in Analyzer().analyze_class(SyntheticService) if s.name == "step"
    )


def bench_wrapper_elided(benchmark):
    """The path most calls of a detection run take: the profiling run saw
    the call return below the threshold, so it runs uncaptured.  Each
    timed call rewinds the counter and the call ordinal to the profiled
    call's."""
    campaign = InjectionCampaign()
    wrapper = make_injection_wrapper(_step_spec(), campaign)
    service = SyntheticService(16)
    campaign.begin_profile()
    wrapper(service, 1)
    campaign.end_profile()
    campaign.begin_run(10**9)

    def elided_call():
        campaign.calls_entered = campaign.point = 0
        return wrapper(service, 1)

    benchmark(elided_call)
    campaign.end_run(completed=True, escaped=False)
    assert campaign.state_stats.captures == 0


@pytest.mark.parametrize("fields", [16, 1024])
def bench_atomicity_snapshot(benchmark, fields):
    """Figure 5's eager wrapper: a receiver-only checkpoint per call."""
    wrapped = make_atomicity_wrapper(_step_spec(), checkpoint_args=False)
    service = SyntheticService(fields)
    benchmark(wrapped, service, 1)
    assert service.counter > 0


def bench_atomicity_undolog(benchmark):
    """Figure 5's undo-log wrapper at 1,024 fields: cost per write."""
    strategy = STRATEGIES["undolog"]
    wrapped = make_atomicity_wrapper(
        _step_spec(), checkpoint_args=False, strategy=strategy.name
    )
    service = SyntheticService(1024)
    strategy.cover([SyntheticService])
    try:
        benchmark(wrapped, service, 1)
    finally:
        strategy.uncover([SyntheticService])
    assert service.counter > 0
