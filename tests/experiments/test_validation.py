"""Tests for the detect -> mask -> re-detect validation loop."""

import pytest

from repro.core.classify import CATEGORY_ATOMIC
from repro.core.masking import STRATEGIES
from repro.experiments import (
    program_by_name,
    run_app_campaign,
    synthetic_program,
    validate_masking,
)


@pytest.fixture(scope="module")
def synthetic_validation():
    return validate_masking(synthetic_program())


def test_masking_is_effective_on_synthetic(synthetic_validation):
    assert synthetic_validation.masking_effective
    assert synthetic_validation.still_nonatomic == []


def test_wrapped_set_is_the_pure_set(synthetic_validation):
    from repro.experiments import GROUND_TRUTH

    expected = sorted(k for k, v in GROUND_TRUTH.items() if v == "pure")
    assert synthetic_validation.wrapped == expected


def test_rollbacks_happened_during_redetection(synthetic_validation):
    # every injection that hits a masked method's execution window must
    # trigger a rollback
    assert synthetic_validation.masking_stats.rollbacks > 0


def test_conditional_methods_become_atomic(synthetic_validation):
    """Section 4.3 fourth case, proven by re-detection: once the pure
    callees are masked, the conditional callers are atomic without
    being wrapped themselves."""
    second = synthetic_validation.second_classification
    assert second.category_of("Auditor.audit_risky") == CATEGORY_ATOMIC


def test_masking_effective_on_real_application():
    validation = validate_masking(program_by_name("LLMap"))
    assert validation.masking_effective, validation.summary()


def test_summary_reports_verdict(synthetic_validation):
    text = synthetic_validation.summary()
    assert "EFFECTIVE" in text
    assert "masked" in text


def test_wrap_conditional_variant_also_effective():
    validation = validate_masking(synthetic_program(), wrap_conditional=True)
    assert validation.masking_effective
    # wrapping conditionals enlarges the wrapped set (the §4.3 waste)
    baseline = validate_masking(synthetic_program())
    assert len(validation.wrapped) >= len(baseline.wrapped)


#: Per app: the wrapped methods, the masked re-detection's wrapped calls
#: and rollbacks (the same under every strategy), and the methods the
#: undo-log strategy leaves non-atomic.  ``HashedSet.union_update`` writes
#: ``self._slots[index]``, a list mutated in place, which the write
#: barrier cannot see (GUIDE §14).
STRATEGY_AGREEMENT = {
    "LinkedList": (
        ["LinkedList.extend", "LinkedList.insert_at", "LinkedList.insert_last"],
        1008,
        73,
        [],
    ),
    "HashedSet": (
        ["HashedSet._grow", "HashedSet.add", "HashedSet.union_update"],
        551,
        76,
        ["HashedSet.union_update"],
    ),
}


@pytest.mark.parametrize("strategy", tuple(STRATEGIES))
@pytest.mark.parametrize("app", sorted(STRATEGY_AGREEMENT))
def test_strategies_wrap_and_roll_back_alike(app, strategy):
    wrapped, calls, rollbacks, undolog_misses = STRATEGY_AGREEMENT[app]
    validation = validate_masking(program_by_name(app), strategy=strategy)
    assert validation.wrapped == wrapped
    assert validation.masking_stats.wrapped_calls == calls
    assert validation.masking_stats.rollbacks == rollbacks
    expected = undolog_misses if strategy == "undolog" else []
    assert validation.still_nonatomic == expected, validation.summary()
    assert validation.masking_effective == (not expected)


def test_campaigns_leave_every_class_dict_as_they_found_it():
    """The trace pass and the undo-log strategy both put write barriers
    on the subject's classes; both must take them off exactly."""
    program = program_by_name("LinkedList")
    before = {cls: dict(vars(cls)) for cls in program.classes}
    run_app_campaign(program, trace_derive=True)
    validate_masking(program, strategy="undolog")
    for cls in program.classes:
        assert dict(vars(cls)) == before[cls], cls.__name__
