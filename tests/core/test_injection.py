"""Tests for injection wrappers and campaign counter semantics (Listing 1)."""

import sys

import pytest

from repro.core.analyzer import Analyzer
from repro.core.exceptions import InjectedRuntimeError, is_injected, throws
from repro.core.injection import (
    INJ_WRAPPER_CODE,
    InjectionCampaign,
    make_injection_wrapper,
)
from repro.core.runlog import NONATOMIC
from repro.core.weaver import Weaver


class Counter:
    def __init__(self):
        self.value = 0
        self.steps = []

    def bump_safely(self):
        value = self.value + 1
        self.value = value
        self.steps.append(value)

    def bump_then_fail(self):
        self.steps.append("partial")
        raise ValueError("genuine failure")

    @throws(KeyError)
    def declared(self):
        return self.value

    @throws(KeyError, ValueError)
    def guarded(self, *items, **options):
        return len(items) + len(options)


def weave(campaign, cls):
    weaver = Weaver(lambda spec: make_injection_wrapper(spec, campaign))
    weaver.weave_class(cls)
    return weaver


def test_disabled_campaign_is_transparent():
    campaign = InjectionCampaign()
    with weave(campaign, Counter):
        c = Counter()
        c.bump_safely()
        assert c.value == 1
    assert campaign.point == 0
    assert campaign.log.call_counts == {}


def test_profiling_counts_points_and_calls():
    campaign = InjectionCampaign()
    with weave(campaign, Counter):
        campaign.begin_profile()
        c = Counter()
        c.bump_safely()
        c.bump_safely()
        c.declared()
        c.guarded()
        total = campaign.end_profile()
    # __init__(1) + 2 * bump_safely(1) + declared(2: KeyError + runtime)
    # + guarded(3: KeyError, ValueError + runtime)
    assert total == 8
    assert campaign.call_entries == [0, 1, 2, 3, 5]
    assert campaign.call_exits == [1, 2, 3, 5, 8]
    assert campaign.log.call_counts["Counter.bump_safely"] == 2
    assert campaign.log.call_counts["Counter.declared"] == 1
    assert campaign.log.call_counts["Counter.guarded"] == 1


def test_injection_fires_at_exact_threshold():
    campaign = InjectionCampaign()
    with weave(campaign, Counter):
        campaign.begin_run(2)  # second point = bump_safely entry
        c = Counter()
        with pytest.raises(InjectedRuntimeError) as info:
            c.bump_safely()
        campaign.end_run(completed=False, escaped=True)
    assert is_injected(info.value)
    assert c.value == 0  # method body never ran
    run = campaign.log.runs[0]
    assert run.injected_method == "Counter.bump_safely"
    assert run.injected_exception == "InjectedRuntimeError"


def test_declared_exception_injected_first():
    campaign = InjectionCampaign()
    with weave(campaign, Counter):
        campaign.begin_run(2)  # first point of declared() after __init__
        c = Counter()
        with pytest.raises(KeyError):
            c.declared()
        campaign.end_run(completed=False, escaped=True)

        campaign.begin_run(3)  # second point: the runtime exception
        c = Counter()
        with pytest.raises(InjectedRuntimeError):
            c.declared()
        campaign.end_run(completed=False, escaped=True)


@pytest.mark.parametrize(
    "threshold, fired",
    [(4, KeyError), (5, ValueError), (6, InjectedRuntimeError), (7, None)],
)
def test_each_repertoire_point_fires_its_own_exception(threshold, fired):
    campaign = InjectionCampaign()
    with weave(campaign, Counter):
        c = Counter()  # the campaign is off: no points
        campaign.begin_run(threshold)
        c.guarded()  # points 1-3
        if fired is None:  # past the second call's points 4-6
            c.guarded()
            assert campaign.point == 3 + 3
        else:
            with pytest.raises(fired):
                c.guarded()
            assert campaign.point == threshold
            run = campaign.log.runs[0]
            assert run.injected_method == "Counter.guarded"
            assert run.injected_exception == fired.__name__
        campaign.end_run(completed=fired is None, escaped=fired is not None)


def test_observers_see_the_wrapper_frame_and_its_call():
    """The trace pass reads a wrapper's call through the frame its
    observers are called from: the wrapper's code, with ``spec``,
    ``args`` and ``kwargs`` among its locals, at the entry's counter."""
    campaign = InjectionCampaign()
    seen = []

    def observe(spec, entry=None):
        frame = sys._getframe(1)
        assert frame.f_code is INJ_WRAPPER_CODE
        local = frame.f_locals
        seen.append((local["spec"] is spec, local["args"][1:], local["kwargs"]))
        if entry is not None:
            assert campaign.point == entry

    campaign.point_observer = observe
    campaign.escape_observer = observe
    with weave(campaign, Counter):
        campaign.begin_profile()
        c = Counter()
        c.guarded(1, 2, flag=True)
        with pytest.raises(ValueError):
            c.bump_then_fail()
        campaign.end_profile()
    assert seen == [
        (True, (), {}),  # __init__
        (True, (1, 2), {"flag": True}),
        (True, (), {}),  # bump_then_fail's entry,
        (True, (), {}),  # and its escape
    ]


def test_counter_does_not_refire_after_threshold():
    campaign = InjectionCampaign()
    with weave(campaign, Counter):
        campaign.begin_run(1)
        with pytest.raises(InjectedRuntimeError):
            Counter()
        # application catches and retries: later points must not fire
        c = object.__new__(Counter)
        c.value = 0
        c.steps = []
        c.bump_safely()
        assert c.value == 1
        campaign.end_run(completed=True, escaped=False)


def test_genuine_exception_marks_nonatomic():
    campaign = InjectionCampaign()
    with weave(campaign, Counter):
        campaign.begin_run(100)  # never fires: observe genuine behavior
        c = Counter()
        with pytest.raises(ValueError):
            c.bump_then_fail()
        campaign.end_run(completed=False, escaped=False)
    marks = campaign.log.runs[0].marks
    assert [(m.method, m.verdict) for m in marks] == [
        ("Counter.bump_then_fail", NONATOMIC)
    ]
    assert "steps" in marks[0].difference


def test_atomic_method_marked_atomic_on_propagation():
    class Outer:
        def __init__(self):
            self.inner = Counter()

        def run(self):
            self.inner.bump_then_fail()

    campaign = InjectionCampaign()
    weaver = Weaver(lambda spec: make_injection_wrapper(spec, campaign))
    with weaver:
        weaver.weave_class(Counter)
        weaver.weave_class(Outer)
        campaign.begin_run(100)
        outer = Outer()
        with pytest.raises(ValueError):
            outer.run()
        campaign.end_run(completed=False, escaped=False)
    marks = [(m.method, m.verdict) for m in campaign.log.runs[0].marks]
    # callee marked before caller (propagation order)
    assert marks == [
        ("Counter.bump_then_fail", NONATOMIC),
        ("Outer.run", NONATOMIC),
    ]


def test_mutable_argument_included_in_snapshot():
    class Sink:
        def consume(self, items):
            items.pop()  # mutates the argument, then fails
            raise RuntimeError("boom")

    campaign = InjectionCampaign()
    with weave(campaign, Sink):
        campaign.begin_run(100)
        sink = Sink()
        with pytest.raises(RuntimeError):
            sink.consume([1, 2, 3])
        campaign.end_run(completed=False, escaped=False)
    mark = campaign.log.runs[0].marks[0]
    assert mark.verdict == NONATOMIC


def test_suspension_makes_wrappers_transparent():
    campaign = InjectionCampaign()
    with weave(campaign, Counter):
        campaign.begin_run(1)
        with campaign.suspend():
            c = Counter()  # would otherwise hit the threshold
            c.bump_safely()
        assert c.value == 1
        with pytest.raises(InjectedRuntimeError):
            Counter()
        campaign.end_run(completed=False, escaped=True)


def test_call_counts_not_inflated_by_detection_runs():
    campaign = InjectionCampaign()

    def body():
        c = Counter()
        c.bump_safely()

    with weave(campaign, Counter):
        campaign.begin_profile()
        body()
        campaign.end_profile()
        for point in (1, 2):
            campaign.begin_run(point)
            try:
                body()
            except InjectedRuntimeError:
                pass
            campaign.end_run(completed=False, escaped=True)
    assert campaign.log.call_counts["Counter.bump_safely"] == 1


def test_begin_run_rejects_nonpositive_threshold():
    campaign = InjectionCampaign()
    with pytest.raises(ValueError):
        campaign.begin_run(0)


def test_wrapper_preserves_metadata_and_is_unweavable():
    campaign = InjectionCampaign()
    weaver = weave(campaign, Counter)
    assert Counter.bump_safely.__name__ == "bump_safely"
    assert getattr(Counter.bump_safely, "_repro_kind") == "injection"
    weaver.unweave_all()
    assert not hasattr(Counter.bump_safely, "_repro_kind")


def test_return_value_passed_through():
    campaign = InjectionCampaign()
    with weave(campaign, Counter):
        campaign.begin_profile()
        c = Counter()
        assert c.declared() == 0
        campaign.end_profile()
