"""Captures and checkpoints take everything reachable.

The paper notes that "there is no upper bound on the size of objects"
(Section 6.2): neither a state capture nor a checkpoint stops at a size,
and detection marks a method by its whole reachable state.
"""

from repro.core.state import capture, checkpoint


class Node:
    def __init__(self, value, next_node=None):
        self.value = value
        self.next = next_node


def chain(length):
    head = None
    for value in range(length):
        head = Node(value, head)
    return head


def test_capture_unlimited_by_default():
    graph = capture(chain(500))
    assert graph.size() > 500


def test_checkpoint_unlimited_by_default():
    saved = checkpoint(chain(300))
    assert saved.recorded_count == 300


def _detect(cls, workload):
    from repro.core.detector import CallableProgram, Detector
    from repro.core.injection import InjectionCampaign, make_injection_wrapper
    from repro.core.weaver import Weaver

    campaign = InjectionCampaign()
    weaver = Weaver(lambda spec: make_injection_wrapper(spec, campaign))
    weaver.weave_class(cls)
    try:
        return Detector(CallableProgram("limit-test", workload), campaign).detect()
    finally:
        weaver.unweave_all()


class Grower:
    """Receiver small at entry; the method inflates it before raising."""

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


def test_unbudgeted_control_marks_grower_nonatomic():
    """The inflated after-state is compared in full: the method that
    grew it before raising is marked non-atomic."""
    result = _detect(Grower, _grower_workload)
    assert not result.genuine_failures
    marked = {
        mark.method
        for run in result.log.runs
        for mark in run.marks
        if mark.verdict == "nonatomic"
    }
    assert any("grow_then_fail" in str(method) for method in marked)
