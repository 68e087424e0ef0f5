"""Every trace-deriver fallback reason, from a minimal variant subject.

The deriver refuses to decide a span for four distinct reasons (rules
R1–R3 and R5 in repro.core.tracepass.deriver).  Each test here builds the
smallest subject that trips exactly one of them — and builds it through
the variant engine (transform_source + a registered virtual source), so
the reasons are demonstrably reachable from generated variant code, not
only from handwritten classes.

Reason map:

* ``walk``         — subject code calls ``call_through_boundary``
                     itself, so the stack walk meets a nested boundary
                     and cannot see the true enclosing context (R1).
* ``stack``        — the sibling call right after that event: the
                     active stack was distrusted and truncated, so it
                     no longer reconciles with the walked frames (R3).
* ``transparency`` — the variant source was never registered, so no
                     frame between point and boundary is certifiably
                     exception-transparent (R2).
* ``ambient``      — a genuine escape whose verdict was underivable
                     (it escaped inside a nested boundary, so its walk
                     was unusable) poisons every later span (R5).
"""

import pytest

from repro.core import InjectionCampaign, make_injection_wrapper
from repro.core.analyzer import Analyzer
from repro.core.tracepass import TraceDeriver, call_through_boundary
from repro.core.variants import transform_source
from repro.core.virtualsource import (
    register_virtual_source,
    unregister_virtual_source,
)
from repro.core.weaver import Weaver

RECIPE = ("temp-assign", "alpha-rename", "constant-guard")


@pytest.fixture
def variant_class_factory():
    """Builds a class from recipe-transformed source; unregisters after."""
    registered = []

    def build(filename, source, class_name, *, register=True, extra=None):
        variant = transform_source(source, RECIPE, tag=1)
        assert variant.changed, "recipe must apply — subject too trivial"
        if register:
            register_virtual_source(filename, variant.source)
            registered.append(filename)
        namespace = {"__name__": f"variant_subject_{class_name.lower()}"}
        namespace.update(extra or {})
        exec(compile(variant.source, filename, "exec"), namespace)
        return namespace[class_name]

    yield build
    for filename in registered:
        unregister_virtual_source(filename)


def _run(campaign, cls, body):
    weaver = Weaver(
        lambda spec: make_injection_wrapper(spec, campaign), Analyzer()
    )
    with weaver:
        weaver.weave_classes([cls])
        deriver = TraceDeriver(campaign)
        deriver.attach(campaign)
        campaign.begin_profile()
        try:
            call_through_boundary(body)
        finally:
            campaign.end_profile()
            deriver.detach(campaign)
    return deriver


def reasons_by_method(deriver):
    out = {}
    for span in deriver.spans:
        out.setdefault(str(span.spec.key), []).append(span.reason)
    return out


BRIDGE = """
class Bridge:
    def __init__(self):
        self.hits = []

    def step(self):
        self.hits.append("step")

    def other(self):
        self.hits.append("other")

    def run(self):
        call_through_boundary(self.step)
        self.other()
"""


def test_walk_and_stack_reasons(variant_class_factory):
    cls = variant_class_factory(
        "<trace-reason-walk>",
        BRIDGE,
        "Bridge",
        extra={"call_through_boundary": call_through_boundary},
    )
    deriver = _run(InjectionCampaign(), cls, lambda: cls().run())
    reasons = reasons_by_method(deriver)
    # the boundary-calling method's callee cannot see past the nested
    # boundary: rule R1
    assert reasons[f"{cls.__name__}.step"] == ["walk"]
    # the next sibling call finds the distrusted (truncated) active
    # stack out of step with the walked frames: rule R3
    assert reasons[f"{cls.__name__}.other"] == ["stack"]
    # the enclosing method itself was decidable
    assert reasons[f"{cls.__name__}.run"] == [None]


NESTED = """
class Nested:
    def __init__(self):
        self.a = 0
        self.b = [1, 2]

    def inner(self):
        return self.a

    def outer(self):
        return self.inner()
"""


NESTED_GUARDED = """
class NestedGuarded:
    def __init__(self):
        self.a = 0
        self.b = [1, 2]

    def inner(self):
        return self.a

    def outer(self):
        try:
            return self.inner()
        finally:
            pass
"""


def test_transparency_reason(variant_class_factory):
    # unregistered variant source: outer's method frame sits between
    # inner's injection point and the boundary, and rule R2 cannot
    # certify a frame that has exception machinery (a non-empty handler
    # table) and whose source is unretrievable.  (A handler-FREE
    # sourceless frame is certified via its empty co_exceptiontable on
    # 3.11+ — see tests/core/test_transparency_sourceless.py — which is
    # why this subject wraps the call in try/finally.)
    cls = variant_class_factory(
        "<trace-reason-transparency>",
        NESTED_GUARDED,
        "NestedGuarded",
        register=False,
    )
    deriver = _run(InjectionCampaign(), cls, lambda: cls().outer())
    reasons = reasons_by_method(deriver)
    assert reasons[f"{cls.__name__}.inner"] == ["transparency"]


VOLATILE = """
class Volatile:
    def __init__(self):
        self.a = 0
        self.b = [0]

    def boom(self):
        self.a = 1
        raise ValueError("genuine")

    def calm(self):
        return self.a
"""


def test_ambient_reason(variant_class_factory):
    cls = variant_class_factory("<trace-reason-ambient>", VOLATILE, "Volatile")

    def body():
        subject = cls()
        try:
            call_through_boundary(subject.boom)
        except ValueError:
            pass
        subject.calm()

    deriver = _run(InjectionCampaign(), cls, body)
    reasons = reasons_by_method(deriver)
    # the genuine escape crossed boom's wrapper inside a nested boundary,
    # so its verdict was underivable, and every span observed after it
    # is poisoned: rule R5
    assert reasons[f"{cls.__name__}.calm"] == ["ambient"]


def test_registered_variant_subject_is_fully_decidable(
    variant_class_factory,
):
    # control: same shape as the transparency subject but registered —
    # derivation succeeds end to end on a variant-built class
    cls = variant_class_factory("<trace-reason-ok>", NESTED, "Nested")
    deriver = _run(InjectionCampaign(), cls, lambda: cls().outer())
    assert deriver.spans
    assert deriver.undecided_spans == 0
    assert deriver.derive_map()
