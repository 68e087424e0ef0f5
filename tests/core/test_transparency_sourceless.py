"""Transparency certificates for sourceless handler-free frames.

Decorator glue built at runtime (``exec``-compiled adapters carrying
``functools.wraps`` metadata) has no retrievable source, so the AST-based
transparency certificate can never cover it — yet on CPython 3.11+ such
a frame *can* be certified without source: zero-cost exceptions store
every handler span in ``co_exceptiontable``, and an empty table proves
the frame cannot catch, transform, or clean up after a propagating
exception at any line.  These tests pin that certificate down, from the
minimal reproducer (one sourceless glue frame between an injection point
and the profile boundary keeps the point dynamic) to the end-to-end
derivation win.
"""

import functools
import sys
import textwrap

import pytest

from repro.core import InjectionCampaign, make_injection_wrapper
from repro.core.analyzer import Analyzer
from repro.core.detector import CallableProgram, Detector
from repro.core.runlog import log_json_without_provenance
from repro.core.tracepass.transparency import caught_by
from repro.core.weaver import Weaver

from .suspended import HAS_EXCEPTIONTABLE, catchers_at

_GLUE_SOURCE = textwrap.dedent(
    """
    import functools

    def passthrough(func):
        @functools.wraps(func)
        def glue(*args, **kwargs):
            return func(*args, **kwargs)
        return glue

    def guarded(func):
        @functools.wraps(func)
        def glue(*args, **kwargs):
            try:
                return func(*args, **kwargs)
            finally:
                pass
        return glue
    """
)


def _sourceless_factories():
    """``exec``-build the decorator factories with no linecache entry."""
    namespace = {"functools": functools}
    exec(compile(_GLUE_SOURCE, "<glue-nosource>", "exec"), namespace)
    return namespace["passthrough"], namespace["guarded"]


# -- the certificate itself ----------------------------------------------


@pytest.mark.skipif(
    not HAS_EXCEPTIONTABLE, reason="co_exceptiontable needs CPython 3.11+"
)
def test_handlerless_sourceless_glue_is_certified():
    passthrough, _ = _sourceless_factories()
    assert passthrough(lambda: None).__code__.co_exceptiontable == b""
    assert catchers_at(lambda probe: passthrough(probe)()) == ()


def test_sourceless_frame_with_handlers_stays_uncertified():
    _, guarded = _sourceless_factories()
    assert catchers_at(lambda probe: guarded(probe)()) is None


def test_sourced_frames_unaffected():
    # The table must not loosen the certificate for code whose source
    # *is* available: the guarded line still stops what it catches.
    def guarded_frame(probe):
        try:
            return probe()
        except ValueError:
            return 0

    catchers = catchers_at(guarded_frame)
    assert catchers is None or caught_by(ValueError, catchers)


# -- end-to-end: derivation through a sourceless adapter -----------------


class Box:
    def __init__(self):
        self.value = 0

    def get(self):
        return self.value


def _campaign_through_glue(glue_factory, trace_derive):
    campaign = InjectionCampaign()
    weaver = Weaver(
        lambda spec: make_injection_wrapper(spec, campaign), Analyzer()
    )
    call = glue_factory(lambda box: box.get())

    def body():
        box = Box()
        call(box)

    with weaver:
        weaver.weave_classes([Box])
        result = Detector(
            CallableProgram("glue-subject", body),
            campaign,
            trace_derive=trace_derive,
        ).detect()
    return result


@pytest.mark.parametrize("flavor", ["passthrough", "guarded"])
def test_derivation_through_sourceless_glue(flavor):
    """The glue frame sits between ``Box.get``'s injection point and the
    profile boundary.  Handler-free glue is certifiable on 3.11+ (the
    point is derived); glue with exception machinery never is (the
    point stays dynamic).  Either way the derived log is bit-identical."""
    passthrough, guarded = _sourceless_factories()
    factory = passthrough if flavor == "passthrough" else guarded
    full = _campaign_through_glue(factory, trace_derive=False)
    derived = _campaign_through_glue(factory, trace_derive=True)
    assert log_json_without_provenance(
        derived.log
    ) == log_json_without_provenance(full.log)
    # Box.__init__'s points never cross the glue and are derived on any
    # version; only a certified glue frame lets Box.get's points join.
    assert derived.telemetry.runs_derived >= 1
    expect_glue_derived = flavor == "passthrough" and HAS_EXCEPTIONTABLE
    assert (derived.telemetry.runs_derived > 1) == expect_glue_derived
