"""Tests for the differential harness, batch runner, and self-check."""

import pytest

from repro.fuzz import (
    DEFECTS,
    check_program,
    generate_program,
    run_fuzz,
    run_self_check,
)

SEED = 20260806


def test_clean_batch_has_no_mismatches():
    report = run_fuzz(SEED, 6, engine="sequential")
    assert report.ok, [m.to_dict() for m in report.mismatches]
    assert report.total_runs > 0
    assert report.category_counts["atomic"] > 0


def test_report_is_deterministic():
    first = run_fuzz(SEED, 4, engine="sequential")
    second = run_fuzz(SEED, 4, engine="sequential")
    assert first.to_json() == second.to_json()


def test_both_engines_agree():
    report = run_fuzz(SEED, 4, engine="both", workers=2)
    assert report.ok, [m.to_dict() for m in report.mismatches]


def test_progress_callback_sees_every_program():
    seen = []
    run_fuzz(SEED, 3, engine="sequential", progress=lambda d, t, v: seen.append((d, t)))
    assert seen == [(1, 3), (2, 3), (3, 3)]


def test_check_program_validates_arguments():
    spec = generate_program(SEED, 0)
    with pytest.raises(ValueError, match="engine"):
        check_program(spec, engine="warp")
    with pytest.raises(ValueError, match="defect"):
        check_program(spec, defect="nonsense")


@pytest.mark.parametrize("defect", DEFECTS)
def test_each_planted_defect_is_caught(defect):
    """The fuzzer must detect every classifier/merge/masking mutation it
    knows how to plant — otherwise its green runs mean nothing."""
    report = run_fuzz(SEED, 8, engine="both", defect=defect)
    assert not report.ok, f"defect {defect!r} slipped through"


def test_self_check_reports_all_defects_caught():
    results = run_self_check(SEED, programs_per_defect=8)
    assert set(results) == set(DEFECTS)
    assert all(results.values()), results


def test_trace_check_catches_a_certificate_that_passes_every_type(
    monkeypatch,
):
    """Check 6 bites on the guarded calls: with every handler taken to
    let every type through, the trace pass derives runs the program's
    handlers catch or its finally blocks change."""
    from repro.core.tracepass import TransparencyIndex

    clean = run_fuzz(SEED, 25, engine="sequential", trace_derive=True)
    assert clean.ok, [m.to_dict() for m in clean.mismatches]
    monkeypatch.setattr(TransparencyIndex, "catchers", lambda self, frame: ())
    planted = run_fuzz(SEED, 25, engine="sequential", trace_derive=True)
    assert planted.mismatches
    assert {m.check for m in planted.mismatches} == {"trace-equivalence"}
