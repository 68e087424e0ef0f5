"""Tests for the one-trace-many-points pass (repro.core.tracepass).

Subject classes live in this real file on purpose: trace decidability
rule R2 requires retrievable source for every non-wrapper frame between
an injection point and the profile boundary, so subjects defined via
``exec`` of an unregistered string are undecidable by construction
(exercised explicitly below).
"""

from repro.core import InjectionCampaign, make_injection_wrapper
from repro.core.analyzer import Analyzer
from repro.core.cow import UndoLog, active_log_top
from repro.core.detector import CallableProgram, Detector
from repro.core.runlog import ATOMIC, NONATOMIC, log_json_without_provenance
from repro.core.tracepass import (
    PROVENANCE_TRACE,
    TraceDeriver,
    TraceRecorder,
    TransparencyIndex,
    barrier_covered,
    call_through_boundary,
)
from repro.core.weaver import Weaver


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


class Counter:
    """Scalar-only state: fully barrier-coverable."""

    def __init__(self):
        self.value = 0

    def get(self):
        return self.value

    def outer(self):
        return self.get()


# -- campaign helper ------------------------------------------------------


def _campaign(classes, body, *, trace_derive=False):
    campaign = InjectionCampaign()
    weaver = Weaver(
        lambda spec: make_injection_wrapper(spec, campaign), Analyzer()
    )
    program = CallableProgram(name="trace-mini", body=body)
    with weaver:
        specs = weaver.weave_classes(classes)
        detector = Detector(
            program,
            campaign,
            trace_derive=trace_derive,
            woven_specs=specs,
        )
        return detector.detect()


def _ledger_body():
    ledger = Ledger()
    ledger.read_balance()
    ledger.describe()
    ledger.mutate_then_call(5)


# -- recorder lifecycle ---------------------------------------------------


def test_recorder_counts_attribute_writes():
    recorder = TraceRecorder()
    recorder.start([Counter])
    try:
        assert active_log_top() is recorder
        assert recorder.is_innermost
        counter = Counter()  # __init__ writes .value
        counter.value = 7
        assert recorder.sequence == 2
        assert ("Counter", "value") in {
            (tname, attr) for _, tname, attr in recorder.events
        }
    finally:
        recorder.stop()
    assert active_log_top() is None
    assert "__setattr__" not in vars(Counter)
    # events after stop no longer reach the recorder
    Counter().value = 1
    assert recorder.sequence == 2


def test_recorder_stop_removes_a_subclass_barrier_installed_after_its_base():
    class Base:
        pass

    class Derived(Base):
        pass

    recorder = TraceRecorder()
    recorder.start([Base, Derived])  # Derived inherits Base's barrier first
    recorder.stop()
    for cls in (Base, Derived):
        assert "__setattr__" not in vars(cls), cls.__name__


def test_recorder_double_start_raises():
    recorder = TraceRecorder()
    recorder.start([])
    try:
        try:
            recorder.start([])
            raised = False
        except RuntimeError:
            raised = True
        assert raised
    finally:
        recorder.stop()
    recorder.stop()  # idempotent


def test_recorder_not_innermost_under_subject_undolog():
    recorder = TraceRecorder()
    recorder.start([Counter])
    try:
        with UndoLog() as log:
            assert not recorder.is_innermost
            before = recorder.sequence
            counter = Counter()
            counter.value = 3
            # events went to the subject's undo log, not the recorder
            assert recorder.sequence == before
            assert log.recorded_writes > 0
        # the closed region's writes were absorbed into the sequence
        assert recorder.sequence > before
        assert recorder.is_innermost
    finally:
        recorder.stop()


def test_absorb_overcounts_conservatively():
    recorder = TraceRecorder()

    class Child:
        recorded_writes = 0

    recorder.absorb(Child())
    assert recorder.sequence == 1  # at least one, even for an empty child


# -- barrier coverage -----------------------------------------------------


def test_scalar_only_instance_is_covered():
    counter = Counter()
    assert barrier_covered([("self", counter)], {Counter})


def test_non_barriered_instance_is_uncoverable():
    counter = Counter()
    assert not barrier_covered([("self", counter)], set())


def test_mutable_container_is_uncoverable():
    ledger = Ledger()  # .history is a plain list
    assert not barrier_covered([("self", ledger)], {Ledger})


def test_immutable_shells_are_walked_not_rejected():
    counter = Counter()
    counter.pair = (1, frozenset({2}))
    assert barrier_covered([("self", counter)], {Counter})
    counter.pair = (1, [2])  # list behind a tuple: uncoverable
    assert not barrier_covered([("self", counter)], {Counter})


def test_coverage_walk_respects_object_budget():
    counter = Counter()
    chain = counter
    for _ in range(5):
        nxt = Counter()
        chain.child = nxt
        chain = nxt
    assert barrier_covered([("self", counter)], {Counter})
    assert not barrier_covered([("self", counter)], {Counter}, max_objects=2)


# -- trace-derived campaigns ---------------------------------------------


def test_derived_log_is_bit_identical_modulo_provenance():
    full = _campaign([Ledger], _ledger_body)
    traced = _campaign([Ledger], _ledger_body, trace_derive=True)
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


def test_recorder_fast_path_skips_recaptures():
    # Counter's reachable state is scalar-only, so with the recorder the
    # enclosing wrapper's verdict needs no state comparison: entry
    # coverage + unchanged sequence proves atomicity.  Without a recorder
    # the same verdict costs a comparison against the live state.
    def body():
        Counter().outer()

    def run(recorder):
        campaign = InjectionCampaign()
        weaver = Weaver(
            lambda spec: make_injection_wrapper(spec, campaign), Analyzer()
        )
        with weaver:
            weaver.weave_classes([Counter])
            deriver = TraceDeriver(campaign, recorder=recorder)
            deriver.attach(campaign)
            if recorder is not None:
                recorder.start([Counter])
            campaign.begin_profile()
            try:
                call_through_boundary(body)
            finally:
                total = campaign.end_profile()
                if recorder is not None:
                    recorder.stop()
                deriver.detach(campaign)
        derive_map = deriver.derive_map()
        assert total > 0 and derive_map
        return deriver, derive_map

    fast, fast_map = run(TraceRecorder())
    slow, slow_map = run(None)
    marks = {
        point: [(m.method, m.verdict) for m in record.marks]
        for point, record in fast_map.items()
    }
    assert marks == {
        point: [(m.method, m.verdict) for m in record.marks]
        for point, record in slow_map.items()
    }
    assert any(
        (mark[1] == ATOMIC) for record in marks.values() for mark in record
    )
    assert fast.stats.compares < slow.stats.compares


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
