"""Rule R2 per exception type: the exception-table certificate.

The first half asks a :class:`TransparencyIndex` about hand-written
frames while they are suspended and checks the exact set of exception
types each one lets through; it needs ``co_exceptiontable`` (CPython
3.11+), and pins the answers of 3.11's bytecode (a later interpreter
may certify a frame less, never differently).  The second half runs
the same handler shapes as campaigns on every interpreter: wherever an
interpreter's certificate decides less, the derived log must still
equal the dynamic one.
"""

import types

import pytest

from repro.core import InjectionCampaign, make_injection_wrapper, throws
from repro.core.analyzer import Analyzer
from repro.core.detector import CallableProgram, Detector
from repro.core.runlog import log_json_without_provenance
from repro.core.tracepass import PROVENANCE_TRACE, TransparencyIndex
from repro.core.tracepass.transparency import caught_by
from repro.core.weaver import Weaver

from .suspended import (
    HAS_EXCEPTIONTABLE,
    SHAPES_PINNED,
    assert_certifies,
    catchers_at,
    passing_types,
)


class A(Exception):
    pass


class SubA(A):
    pass


class B(Exception):
    pass


errors = types.ModuleType("errors")


class ParseError(B):
    pass


errors.ParseError = ParseError

#: The types every certificate below is asked about.
TYPES = (A, SubA, B, ParseError, RuntimeError)

GUARDS = (A, errors.ParseError)
NOT_A_CLASS = 3
ALIAS = A


class Outer:
    Error = B


class _Liar(type):
    def __subclasscheck__(cls, sub):
        return True

    def __instancecheck__(cls, inst):
        return True


class Lying(Exception, metaclass=_Liar):
    """``issubclass(X, Lying)`` is True for every X; CPython's except
    matching reads the MRO and catches only Lying itself."""


table_only = pytest.mark.skipif(
    not HAS_EXCEPTIONTABLE, reason="co_exceptiontable needs CPython 3.11+"
)


# -- frames, each suspended in its call of probe --------------------------


def nested_try(probe):
    try:
        try:
            probe()
        except B:
            pass
    except A:
        pass


def except_as(probe):
    try:
        probe()
    except A as error:
        return error


def except_tuple(probe):
    try:
        probe()
    except (A, B):
        pass


def module_attribute(probe):
    try:
        probe()
    except errors.ParseError:
        pass


def class_attribute(probe):
    try:
        probe()
    except Outer.Error:
        pass


def name_bound_to_tuple(probe):
    try:
        probe()
    except GUARDS:
        pass


def local_class(probe, error=A):
    try:
        probe()
    except error:
        pass


def closure_class(probe):
    error = B

    def inner():
        try:
            probe()
        except error:
            pass

    inner()


def lying_metaclass(probe):
    try:
        probe()
    except Lying:
        pass


def aliased(probe):
    try:
        probe()
    except ALIAS:
        pass


def in_handler_body(probe):
    try:
        raise KeyError("handled")
    except KeyError:
        probe()


def except_as_body(probe):
    # The handler body of ``except ... as name`` unbinds the name on the
    # way out, a cleanup the decoder does not follow.
    try:
        raise KeyError("handled")
    except KeyError as error:
        probe(error)


def generator(probe):
    try:
        yield probe()
    except A:
        pass


def consume_generator(probe):
    return list(generator(probe))


class Receiver:
    Error = A

    def guarded(self, probe):
        try:
            probe()
        except self.Error:
            pass


def non_class(probe):
    try:
        probe()
    except NOT_A_CLASS:
        pass


def unbound_name(probe):
    try:
        probe()
    except NO_SUCH_NAME:  # noqa: F821 - resolving it would raise
        pass


def nested_tuple(probe):
    try:
        probe()
    except ((A,), B):
        pass


def bare_except(probe):
    try:
        probe()
    except A:
        pass
    except:  # noqa: E722 - the shape under test
        pass


def empty_finally(probe):
    try:
        probe()
    finally:
        pass


class _Quiet:
    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False


def with_block(probe):
    with _Quiet():
        probe()


# ``except*`` is a syntax error before 3.11, so this frame is compiled at
# run time.
_STAR_SOURCE = """
def except_star(probe):
    try:
        probe()
    except* A:
        pass
"""


def _except_star():
    namespace = {"A": A}
    exec(compile(_STAR_SOURCE, "<except-star>", "exec"), namespace)
    return namespace["except_star"]


# -- exact passing sets ---------------------------------------------------


@table_only
@pytest.mark.parametrize(
    "subject, catchers, passing",
    [
        # the inner clause misses A, the outer one catches it
        (nested_try, (B, A), (RuntimeError,)),
        (except_as, (A,), (B, ParseError, RuntimeError)),
        (except_tuple, (A, B), (RuntimeError,)),
        (module_attribute, (ParseError,), (A, SubA, B, RuntimeError)),
        (class_attribute, (B,), (A, SubA, RuntimeError)),
        (name_bound_to_tuple, (A, ParseError), (B, RuntimeError)),
        (local_class, (A,), (B, ParseError, RuntimeError)),
        (closure_class, (B,), (A, SubA, RuntimeError)),
        (lying_metaclass, (Lying,), TYPES),
        (in_handler_body, (), TYPES),
        (consume_generator, (A,), (B, ParseError, RuntimeError)),
    ],
    ids=lambda value: getattr(value, "__name__", None),
)
def test_clause_runs_pass_exactly_the_uncaught_types(
    subject, catchers, passing
):
    found = catchers_at(subject)
    assert_certifies(found, catchers)
    if found is not None:
        assert passing_types(found, TYPES) == passing


@table_only
@pytest.mark.parametrize(
    "subject",
    [
        Receiver().guarded,  # self.Error: an instance attribute read
        non_class,
        unbound_name,
        nested_tuple,  # CPython raises TypeError here
        bare_except,
        empty_finally,
        with_block,
        lambda probe: _except_star()(probe),
        except_as_body,
    ],
    ids=[
        "self-attribute", "non-class", "unbound", "nested-tuple",
        "bare-except", "finally", "with", "except-star", "as-cleanup",
    ],
)
def test_other_shapes_certify_no_type(subject):
    assert catchers_at(subject) is None


@table_only
def test_names_resolve_at_the_instant_asked():
    global ALIAS
    index = TransparencyIndex()
    assert_certifies(catchers_at(aliased, index=index), (A,))
    ALIAS = B
    try:
        assert_certifies(catchers_at(aliased, index=index), (B,))
    finally:
        ALIAS = A


@table_only
def test_module_level_code_resolves_through_load_name():
    code = compile(
        "try:\n    probe()\nexcept Local:\n    pass\n", "<module>", "exec"
    )
    found = catchers_at(
        lambda probe: exec(code, {"probe": probe, "Local": SubA})
    )
    assert_certifies(found, (SubA,))


def _raise_a():
    raise A("propagates")


def test_matching_reads_the_mro_like_cpython():
    assert issubclass(A, Lying)  # what a metaclass can claim
    assert not caught_by(A, (Lying,))
    with pytest.raises(A):
        lying_metaclass(_raise_a)
    assert caught_by(SubA, (B, A))
    assert not caught_by(A, (SubA,))


# -- the same shapes as campaigns, on every interpreter -------------------


class Leaf:
    def __init__(self):
        self.hits = 0

    @throws(A)
    def poke(self):
        self.hits += 1


class Shapes:
    """Each method calls the woven ``Leaf.poke`` in one handler shape;
    ``poke``'s repertoire is A, then the generic runtime exception."""

    def __init__(self):
        self.leaf = Leaf()
        self.count = 0

    def nested_try(self):
        try:
            try:
                self.leaf.poke()
            except B:
                pass
        except A:
            self.count += 1

    def misses(self):
        try:
            self.leaf.poke()
        except errors.ParseError:
            pass

    def tuple_name(self):
        try:
            self.leaf.poke()
        except GUARDS:
            pass

    def catch_all(self):
        try:
            self.leaf.poke()
        except Exception:
            pass

    def writing_finally(self):
        try:
            self.leaf.poke()
        finally:
            self.count += 1

    def suppressing_with(self):
        with _Suppress(A):
            self.leaf.poke()

    def in_generator(self):
        def steps():
            try:
                yield self.leaf.poke()
            except B:
                pass

        return list(steps())


class _Suppress:
    def __init__(self, exc_type):
        self.exc_type = exc_type

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return exc_type is not None and issubclass(exc_type, self.exc_type)


#: Per shape, the injected types at ``Leaf.poke`` derived on CPython
#: 3.11; other interpreters may derive fewer.
SHAPES = {
    "nested_try": {"InjectedRuntimeError"},
    "misses": {"A", "InjectedRuntimeError"},
    "tuple_name": {"InjectedRuntimeError"},
    "catch_all": set(),
    "writing_finally": set(),
    "suppressing_with": set(),
    "in_generator": {"A", "InjectedRuntimeError"},
}


def _detect(method, trace_derive):
    campaign = InjectionCampaign()
    weaver = Weaver(
        lambda spec: make_injection_wrapper(spec, campaign), Analyzer()
    )

    def body():
        shapes = Shapes()
        getattr(shapes, method)()
        getattr(shapes, method)()

    with weaver:
        weaver.weave_classes([Leaf, Shapes])
        return Detector(
            CallableProgram(f"shape-{method}", body),
            campaign,
            trace_derive=trace_derive,
        ).detect()


@pytest.mark.parametrize("method", sorted(SHAPES))
def test_derived_log_equals_the_dynamic_one(method):
    dynamic = _detect(method, trace_derive=False)
    derived = _detect(method, trace_derive=True)
    assert log_json_without_provenance(
        derived.log
    ) == log_json_without_provenance(dynamic.log)
    at_poke = {
        record.injected_exception
        for record in derived.log.runs
        if record.provenance == PROVENANCE_TRACE
        and record.injected_method == "Leaf.poke"
    }
    if SHAPES_PINNED:
        assert at_poke == SHAPES[method]
    else:
        assert at_poke <= SHAPES[method]
