"""Tests for the one-trace-many-points pass (repro.core.tracepass).

Subject classes live in this real file on purpose: trace decidability
rule R2 requires retrievable source for every non-wrapper frame between
an injection point and the profile boundary, so subjects defined via
``exec`` of an unregistered string are undecidable by construction
(exercised explicitly below).
"""

from repro.core import InjectionCampaign, make_injection_wrapper
from repro.core.analyzer import Analyzer
from repro.core.detector import CallableProgram, Detector
from repro.core.runlog import NONATOMIC, log_json_without_provenance
from repro.core.tracepass import (
    PROVENANCE_TRACE,
    TraceDeriver,
    TransparencyIndex,
    call_through_boundary,
)
from repro.core.weaver import Weaver
from repro.experiments import AppProgram, run_app_campaign


# -- subject classes ------------------------------------------------------


class Ledger:
    def __init__(self):
        self.balance = 0
        self.history = []

    def read_balance(self):
        return self.balance

    def describe(self):
        return "bal=" + str(self.read_balance())

    def deposit(self, amount):
        if amount is None:
            raise TypeError("amount required")
        self.history.append(amount)
        self.balance = self.balance + amount

    def mutate_then_call(self, amount):
        self.balance = self.balance + amount
        return self.read_balance()


class Register:
    """Three wrappers deep on one receiver and one shared argument: at
    ``inner``'s entry, ``middle``'s verdict (atomic) and ``outer``'s
    (non-atomic) read the same live objects at the same instant."""

    def __init__(self):
        self.total = 0
        self.log = []

    def outer(self, batch):
        self.log.append(len(batch))
        return self.middle(batch)

    def middle(self, batch):
        return self.inner(batch)

    def inner(self, batch):
        batch.append(self.total)
        self.total += sum(batch)
        return self.total


#: One ``("__setattr__" in its class dict, "__delattr__" in it)`` pair
#: per :class:`ClassDictWitness` method call.
_CLASS_DICT_SEEN = []


class ClassDictWitness:
    """Records, at every call, whether its class still looks as woven:
    a write barrier would add ``__setattr__`` and ``__delattr__``."""

    def __init__(self):
        self.value = 0

    def witness(self):
        own = vars(type(self))
        _CLASS_DICT_SEEN.append(("__setattr__" in own, "__delattr__" in own))

    def bump(self):
        self.witness()
        self.value += 1


# -- campaign helper ------------------------------------------------------


def _campaign(classes, body, *, trace_derive=False):
    campaign = InjectionCampaign()
    weaver = Weaver(
        lambda spec: make_injection_wrapper(spec, campaign), Analyzer()
    )
    program = CallableProgram(name="trace-mini", body=body)
    with weaver:
        weaver.weave_classes(classes)
        return Detector(program, campaign, trace_derive=trace_derive).detect()


def _ledger_body():
    ledger = Ledger()
    ledger.read_balance()
    ledger.describe()
    ledger.mutate_then_call(5)


def _register_body():
    register = Register()
    batch = [1, 2]
    register.outer(batch)
    register.outer(batch)


# -- trace-derived campaigns ---------------------------------------------


def test_derived_log_is_bit_identical_modulo_provenance():
    # Register's nested wrappers share one read of the live objects
    # between the verdicts of each entry instant.
    for classes, body in (([Ledger], _ledger_body), ([Register], _register_body)):
        full = _campaign(classes, body)
        traced = _campaign(classes, body, trace_derive=True)
        assert traced.telemetry.runs_derived > 0
        assert traced.telemetry.runs_executed < full.telemetry.runs_executed
        assert log_json_without_provenance(traced.log) == (
            log_json_without_provenance(full.log)
        )
        for record in traced.log.runs:
            if record.provenance == PROVENANCE_TRACE:
                assert record.escaped and not record.completed


def test_nonatomic_verdict_is_derivable():
    # Injecting into read_balance while mutate_then_call's half-done
    # mutation is on the stack: the trace pass derives the NONATOMIC
    # mark by diffing the enclosing wrapper's entry capture against the
    # live state at the inner entry.
    traced = _campaign([Ledger], _ledger_body, trace_derive=True)
    derived_nonatomic = [
        record
        for record in traced.log.runs
        if record.provenance == PROVENANCE_TRACE
        and any(m.is_nonatomic for m in record.marks)
    ]
    assert derived_nonatomic
    mark = next(
        m
        for m in derived_nonatomic[0].marks
        if m.verdict == NONATOMIC
    )
    assert mark.method == "Ledger.mutate_then_call"
    assert mark.difference  # carries the graph-diff evidence string


def test_ambient_marks_derive_points_after_caught_genuine_failure():
    # A genuine failure caught by the workload leaves a mark in every
    # later run; the trace pass records the escape's verdict at the
    # moment it crosses the wrapper (the ambient mark) and keeps
    # deriving.
    def body():
        ledger = Ledger()
        try:
            ledger.deposit(None)  # genuine TypeError, caught here
        except TypeError:
            pass
        ledger.read_balance()

    full = _campaign([Ledger], body)
    traced = _campaign([Ledger], body, trace_derive=True)
    assert log_json_without_provenance(traced.log) == (
        log_json_without_provenance(full.log)
    )
    post_failure = [
        record
        for record in traced.log.runs
        if record.injected_method == "Ledger.read_balance"
        and record.provenance == PROVENANCE_TRACE
    ]
    assert post_failure, "points after the caught failure must derive"
    for record in post_failure:
        assert any(m.method == "Ledger.deposit" for m in record.marks)


def test_baseline_run_is_never_derived():
    traced = _campaign([Ledger], _ledger_body, trace_derive=True)
    baseline = traced.log.runs[-1]
    assert baseline.injection_point == traced.total_points + 1
    assert baseline.provenance == "dynamic"


def _witness_body():
    witness = ClassDictWitness()
    witness.witness()
    witness.bump()


def test_trace_derived_profiling_leaves_subject_classes_as_woven():
    # The profiling run that the trace pass observes puts nothing on the
    # subject's classes: every call, profiling run included, sees the
    # class dict the weaver left.  Both engines profile in this process.
    program = AppProgram(
        name="witness",
        language="Java",
        classes=[ClassDictWitness],
        body=_witness_body,
    )
    for workers in (None, 2):
        _CLASS_DICT_SEEN.clear()
        outcome = run_app_campaign(program, trace_derive=True, workers=workers)
        assert outcome.detection.telemetry.runs_derived > 0
        assert _CLASS_DICT_SEEN, "the workload never ran"
        assert set(_CLASS_DICT_SEEN) == {(False, False)}, workers


def test_sourceless_workload_is_undecidable_with_reason():
    # exec'd source NOT registered in linecache: every wrapper entry
    # walks through the sourceless workload frame, which carries
    # exception machinery (try/finally), so rule R2 cannot certify it —
    # every span must fall back to real execution.  (A handler-FREE
    # sourceless frame would be certified via its empty
    # co_exceptiontable on 3.11+; see
    # tests/core/test_transparency_sourceless.py.)
    namespace = {}
    exec(
        "class Opaque:\n"
        "    def __init__(self):\n"
        "        self.x = 0\n"
        "    def peek(self):\n"
        "        return self.x\n"
        "def workload():\n"
        "    try:\n"
        "        Opaque().peek()\n"
        "    finally:\n"
        "        pass\n",
        namespace,
    )
    opaque_cls = namespace["Opaque"]

    campaign = InjectionCampaign()
    weaver = Weaver(
        lambda spec: make_injection_wrapper(spec, campaign), Analyzer()
    )
    with weaver:
        weaver.weave_classes([opaque_cls])
        deriver = TraceDeriver(campaign)
        deriver.attach(campaign)
        campaign.begin_profile()
        try:
            call_through_boundary(namespace["workload"])
        finally:
            campaign.end_profile()
            deriver.detach(campaign)
    assert deriver.spans
    assert deriver.undecided_spans == len(deriver.spans)
    assert {span.reason for span in deriver.spans} == {"transparency"}
    assert deriver.derive_map() == {}


def test_derived_records_respect_repertoire_offsets():
    traced = _campaign([Ledger], _ledger_body, trace_derive=True)
    by_point = {record.injection_point: record for record in traced.log.runs}
    # points are dense 1..total and every record sits at its own point
    assert sorted(by_point) == list(range(1, len(by_point) + 1))
    for point, record in by_point.items():
        assert record.injection_point == point


# -- transparency certificates -------------------------------------------


def _plain_frame(x):
    return x + 1


def _guarded_frame(x):
    try:
        return x + 1
    except ValueError:
        return 0


def test_plain_line_is_transparent():
    index = TransparencyIndex()
    code = _plain_frame.__code__
    assert index.transparent_at(code, code.co_firstlineno + 1)


def test_line_inside_try_is_not_transparent():
    index = TransparencyIndex()
    code = _guarded_frame.__code__
    assert not index.transparent_at(code, code.co_firstlineno + 2)


def test_sourceless_code_with_handlers_is_never_transparent():
    # A sourceless frame that *has* exception machinery (non-empty
    # handler table on 3.11+, and no AST certificate ever) must stay
    # uncertified at every line.  Handler-free sourceless frames are
    # covered by test_transparency_sourceless.py.
    index = TransparencyIndex()
    code = compile(
        "try:\n    x = 1\nfinally:\n    pass", "<nosource>", "exec"
    )
    assert not index.transparent_at(code, 1)
    assert not index.transparent_at(code, 2)
