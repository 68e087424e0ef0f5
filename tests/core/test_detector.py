"""Tests for the detection campaign driver (Step 3)."""

import pytest

from repro.core.detector import (
    CallableProgram,
    DetectionError,
    Detector,
    profile_program,
)
from repro.core.exceptions import InjectedRuntimeError
from repro.core.injection import InjectionCampaign, make_injection_wrapper
from repro.core.weaver import Weaver


class Stack:
    def __init__(self):
        self.items = []

    def push(self, item):
        self.items.append(item)

    def pop(self):
        return self.items.pop()

    def broken_pop_two(self):
        first = self.items.pop()
        second = self.items.pop()  # fails on 1-element stack, first is lost
        return first, second


def stack_program():
    s = Stack()
    s.push(1)
    s.push(2)
    s.pop()
    try:
        s.broken_pop_two()  # only one element left: genuine IndexError
    except IndexError:
        pass


@pytest.fixture
def woven_campaign():
    campaign = InjectionCampaign()
    weaver = Weaver(lambda spec: make_injection_wrapper(spec, campaign))
    weaver.weave_class(Stack)
    yield campaign
    weaver.unweave_all()


def make_detector(campaign, **kwargs):
    return Detector(
        CallableProgram("stack", stack_program), campaign, **kwargs
    )


def test_profile_counts_points(woven_campaign):
    total = profile_program(
        CallableProgram("stack", stack_program), woven_campaign
    ).total_points
    # 5 wrapped calls (init, push, push, pop, broken_pop_two), 1 point each
    assert total == 5


def test_detect_runs_once_per_point_plus_baseline(woven_campaign):
    result = make_detector(woven_campaign).detect()
    assert result.total_points == 5
    assert result.runs_executed == 6  # 5 injection runs + baseline
    assert result.total_injections == 5


def test_baseline_run_observes_genuine_failures(woven_campaign):
    result = make_detector(woven_campaign).detect()
    baseline = result.log.runs[-1]
    assert baseline.injected_method is None
    nonatomic = baseline.nonatomic_methods()
    assert "Stack.broken_pop_two" in nonatomic


def test_stride_thins_points(woven_campaign):
    result = make_detector(woven_campaign).detect()
    campaign2 = InjectionCampaign()
    weaver = Weaver(lambda spec: make_injection_wrapper(spec, campaign2))
    # Stack is currently unwoven? No: fixture still active. Use the same
    # campaign object with a strided detector instead.
    del weaver
    strided = make_detector(woven_campaign, stride=2)
    strided_result = strided.detect()
    # points 1, 3, 5 and the baseline run, against 1-5 and the baseline
    assert (strided_result.runs_executed, result.runs_executed) == (4, 6)


def test_stride_must_be_positive(woven_campaign):
    with pytest.raises(ValueError):
        make_detector(woven_campaign, stride=0)


def test_failing_program_raises_detection_error():
    campaign = InjectionCampaign()

    def bad_program():
        raise RuntimeError("program itself is broken")

    with pytest.raises(DetectionError):
        profile_program(CallableProgram("bad", bad_program), campaign)


def test_campaign_disabled_after_detect(woven_campaign):
    make_detector(woven_campaign).detect()
    assert not woven_campaign.enabled
    s = Stack()
    s.push(1)  # wrappers transparent again
    assert s.items == [1]


def test_escaped_flag_set_for_escaping_injections(woven_campaign):
    result = make_detector(woven_campaign).detect()
    # The stack program has no try/except around push/pop/init, so all
    # injections except those inside the caught broken_pop_two escape.
    escaped = [run.escaped for run in result.log.runs]
    assert any(escaped)


def test_injection_caught_by_program_marks_completed():
    class Safe:
        def work(self):
            return 1

    def program():
        s = Safe()
        try:
            s.work()
        except InjectedRuntimeError:
            pass

    campaign = InjectionCampaign()
    weaver = Weaver(lambda spec: make_injection_wrapper(spec, campaign))
    with weaver:
        weaver.weave_class(Safe)
        result = Detector(CallableProgram("safe", program), campaign).detect()
    # the baseline run injects nothing and completes as well
    assert len(result.log.runs) == 2
    assert all(run.completed for run in result.log.runs)


def test_genuine_failures_reported():
    class Fragile:
        def work(self):
            raise OSError("disk on fire")  # escapes the program

    def program():
        Fragile().work()

    campaign = InjectionCampaign()
    weaver = Weaver(lambda spec: make_injection_wrapper(spec, campaign))
    with weaver:
        weaver.weave_class(Fragile)
        detector = Detector(CallableProgram("fragile", program), campaign)
        with pytest.raises(DetectionError):
            # profiling already fails: the program is not runnable
            detector.detect()


def test_progress_callback_invoked(woven_campaign):
    events = []
    detector = Detector(
        CallableProgram("stack", stack_program),
        woven_campaign,
        progress=lambda done, total: events.append((done, total)),
    )
    result = detector.detect()
    assert len(events) == result.runs_executed
    assert events[-1] == (result.runs_executed, result.runs_executed)
    assert [done for done, _ in events] == list(range(1, len(events) + 1))


# -- before-capture elision --------------------------------------------------


def test_runs_capture_only_calls_an_exception_can_leave(woven_campaign):
    """Every call of ``stack_program`` returns before the injection
    fires except the one that raises for real, so only that call takes
    a before-capture, and only in the baseline run (points 1-5 fire in
    each call's own repertoire, before its capture).  Its escape is
    compared against the live state, which takes no second capture."""
    result = make_detector(woven_campaign).detect()
    telemetry = result.telemetry
    assert (telemetry.state_captures, telemetry.state_compares) == (1, 1)
    assert telemetry.runs_replayed == 0


#: Executions of ``Settler.settle`` in this process; a shard process
#: inherits its parent's count when it forks.
_SETTLES = 0


class Settler:
    def __init__(self):
        self.n = 0

    def step(self):
        self.n += 1

    def settle(self):
        global _SETTLES
        _SETTLES += 1
        self.n += 1
        if _SETTLES > 1:
            raise LookupError("settles only once")


def settler_program():
    settler = Settler()
    settler.step()
    try:
        settler.settle()
    except LookupError:
        pass
    settler.step()


class _CaptureEveryCall(InjectionCampaign):
    """A campaign that skips no before-capture: the reference."""

    def elides(self, ordinal, entry):
        return False


def _settler_detection(campaign_type=InjectionCampaign):
    global _SETTLES
    _SETTLES = 0
    campaign = campaign_type()
    weaver = Weaver(lambda spec: make_injection_wrapper(spec, campaign))
    with weaver:
        weaver.weave_class(Settler)
        return Detector(
            CallableProgram("settler", settler_program), campaign
        ).detect()


def _settle_marked_runs(result):
    return [
        run.injection_point
        for run in result.log.runs
        if "Settler.settle" in run.nonatomic_methods()
    ]


def test_skipped_call_that_raises_is_replayed_with_full_captures():
    """``settle`` returns normally only in the profiling run, so runs
    skip its before-capture; each run in which it raises anyway is
    replayed and carries the mark of a run that captures every call."""
    elided = _settler_detection()
    full = _settler_detection(_CaptureEveryCall)
    assert elided.log.to_json() == full.log.to_json()
    assert elided.genuine_failures == full.genuine_failures
    assert _settle_marked_runs(full) == [4, 5]
    assert elided.telemetry.runs_replayed == 2
    assert full.telemetry.runs_replayed == 0


def _settler_app():
    from repro.experiments.programs import AppProgram

    return AppProgram(
        name="settler", language="Java", classes=[Settler], body=settler_program
    )


def test_shard_engine_replays_like_the_sequential_engine(tmp_path):
    global _SETTLES
    from repro.experiments import run_app_campaign

    full = _settler_detection(_CaptureEveryCall)
    _SETTLES = 0
    sharded = run_app_campaign(
        _settler_app(),
        workers=2,
        journal=str(tmp_path / "journal"),
    ).detection
    assert [run.to_dict() for run in sharded.log.runs] == [
        run.to_dict() for run in full.log.runs
    ]
    assert sharded.telemetry.runs_replayed == len(_settle_marked_runs(full))
