"""Tests for the capture/checkpoint resource budgets."""

import pytest

from repro.core.state import (
    CaptureLimitError,
    CheckpointError,
    capture,
    capture_frame,
    checkpoint,
)


class Node:
    def __init__(self, value, next_node=None):
        self.value = value
        self.next = next_node


def chain(length):
    head = None
    for value in range(length):
        head = Node(value, head)
    return head


def test_capture_within_budget():
    graph = capture(chain(10), max_nodes=1000)
    assert graph.size() > 10


def test_capture_exceeding_budget_raises():
    with pytest.raises(CaptureLimitError, match="exceeds 20 nodes"):
        capture(chain(100), max_nodes=20)


def test_capture_unlimited_by_default():
    graph = capture(chain(500))
    assert graph.size() > 500


def test_capture_frame_budget():
    with pytest.raises(CaptureLimitError):
        capture_frame([("self", chain(100))], max_nodes=10)


def test_checkpoint_within_budget():
    saved = checkpoint(chain(10), max_objects=100)
    assert saved.recorded_count == 10


def test_checkpoint_exceeding_budget_raises():
    with pytest.raises(CheckpointError, match="exceeds 5 objects"):
        checkpoint(chain(50), max_objects=5)


def test_checkpoint_unlimited_by_default():
    saved = checkpoint(chain(300))
    assert saved.recorded_count == 300


def test_budget_failure_leaves_target_untouched():
    head = chain(50)
    snapshot_of_value = head.value
    with pytest.raises(CheckpointError):
        checkpoint(head, max_objects=5)
    assert head.value == snapshot_of_value  # capture never mutates


# -- capture budget during detection ---------------------------------------
#
# When a state capture inside the injection wrapper blows the node budget
# the run must surface as a genuine failure and record *no* verdict: a
# graph truncated mid-traversal must never leak into the detection log as
# if it were a faithful snapshot.


def _detect(cls, workload, max_graph_nodes=None):
    from repro.core.detector import CallableProgram, Detector
    from repro.core.injection import InjectionCampaign, make_injection_wrapper
    from repro.core.weaver import Weaver

    campaign = InjectionCampaign(max_graph_nodes=max_graph_nodes)
    weaver = Weaver(lambda spec: make_injection_wrapper(spec, campaign))
    weaver.weave_class(cls)
    try:
        return Detector(CallableProgram("limit-test", workload), campaign).detect()
    finally:
        weaver.unweave_all()


class FatReceiver:
    """Receiver too large to capture even before the method runs."""

    def __init__(self):
        self.blobs = [[i] for i in range(40)]
        self.flag = 0

    def poke(self):
        self.flag += 1
        raise ValueError("boom")


def _fat_workload():
    receiver = FatReceiver()
    try:
        receiver.poke()
    except ValueError:
        pass


def test_before_capture_budget_is_genuine_failure_not_verdict():
    result = _detect(FatReceiver, _fat_workload, max_graph_nodes=30)
    assert any("CaptureLimitError" in f for f in result.genuine_failures)
    for run in result.log.runs:
        assert not run.marks  # no partial-graph verdict leaked


class Grower:
    """Receiver small at entry; the method inflates it past the budget
    before raising, so only the *after* capture can exceed."""

    def __init__(self):
        self.blobs = []

    def grow_then_fail(self):
        self.blobs = self.blobs + [[i] for i in range(60)]
        raise ValueError("boom")


def _grower_workload():
    grower = Grower()
    try:
        grower.grow_then_fail()
    except ValueError:
        pass


def test_after_capture_budget_is_genuine_failure_not_verdict():
    result = _detect(Grower, _grower_workload, max_graph_nodes=40)
    assert any("CaptureLimitError" in f for f in result.genuine_failures)
    for run in result.log.runs:
        for mark in run.marks:
            assert "grow_then_fail" not in str(mark.method)


def test_unbudgeted_control_marks_grower_nonatomic():
    """Without a budget the same program yields a NON-ATOMIC verdict,
    proving the budget (not something else) suppressed it above."""
    result = _detect(Grower, _grower_workload)
    assert not any(
        "CaptureLimitError" in f for f in result.genuine_failures
    )
    marked = {
        mark.method
        for run in result.log.runs
        for mark in run.marks
        if mark.verdict == "nonatomic"
    }
    assert any("grow_then_fail" in str(method) for method in marked)


def test_atomicity_wrapper_budget():
    from repro.core.analyzer import Analyzer
    from repro.core.masking import make_atomicity_wrapper

    class Fat:
        def __init__(self):
            self.blobs = [[i] for i in range(50)]

        def touch(self):
            self.blobs.append([])

    spec = next(
        s for s in Analyzer().analyze_class(Fat) if s.name == "touch"
    )
    wrapper = make_atomicity_wrapper(spec, max_objects=10)
    fat = Fat()
    with pytest.raises(CheckpointError):
        wrapper(fat)
    assert len(fat.blobs) == 50  # the method never ran
