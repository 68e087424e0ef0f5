"""Campaigns under the fingerprint backend: equivalence, journal, telemetry.

The acceptance contract of the state-layer refactor: a campaign run with
``state_backend="fingerprint"`` produces a run log and classification
**bit-identical** to the graph backend's, on both engines.  The digest
fast path can only witness *that* state changed; the detector's
refinement pass re-runs non-atomic points under the graph backend so the
recorded difference strings match too.
"""

import glob
import json
import os

import pytest

from repro.core import InjectionCampaign
from repro.core.runlog import NONATOMIC
from repro.experiments import (
    JournalError,
    program_by_name,
    run_app_campaign,
    validate_masking,
)

APP = "LLMap"  # small, fast campaign with real marks and an error path


@pytest.fixture(scope="module")
def graph_outcome():
    return run_app_campaign(program_by_name(APP))


@pytest.fixture(scope="module")
def fingerprint_outcome():
    return run_app_campaign(program_by_name(APP), state_backend="fingerprint")


def _same_result(a, b) -> None:
    assert a.detection.log.to_json() == b.detection.log.to_json()
    assert a.classification.to_json() == b.classification.to_json()


# -- bit-identical output across backends ---------------------------------


def test_sequential_fingerprint_matches_graph(graph_outcome, fingerprint_outcome):
    _same_result(graph_outcome, fingerprint_outcome)


def test_parallel_fingerprint_matches_graph(graph_outcome):
    parallel = run_app_campaign(
        program_by_name(APP), workers=2, state_backend="fingerprint"
    )
    _same_result(graph_outcome, parallel)


def test_nonatomic_difference_strings_survive_refinement(
    graph_outcome, fingerprint_outcome
):
    """Refined records carry graph-quality diagnostics, not digest noise."""
    graph_marks = [
        (record.injection_point, mark.method, mark.difference)
        for record in graph_outcome.detection.log.runs
        for mark in record.marks
        if mark.verdict == NONATOMIC
    ]
    fp_marks = [
        (record.injection_point, mark.method, mark.difference)
        for record in fingerprint_outcome.detection.log.runs
        for mark in record.marks
        if mark.verdict == NONATOMIC
    ]
    assert graph_marks == fp_marks
    assert graph_marks, "workload must produce non-atomic marks to test"
    for _point, _method, difference in fp_marks:
        assert "fingerprint changed" not in (difference or "")


def test_validate_masking_under_fingerprint_backend():
    graph = validate_masking(program_by_name(APP))
    fingered = validate_masking(
        program_by_name(APP), state_backend="fingerprint"
    )
    assert fingered.masking_effective == graph.masking_effective
    assert (
        fingered.second_classification.to_json()
        == graph.second_classification.to_json()
    )


def test_campaign_rejects_unknown_backend():
    with pytest.raises(ValueError, match="unknown state backend"):
        InjectionCampaign(state_backend="merkle")
    with pytest.raises(ValueError, match="unknown state backend"):
        run_app_campaign(
            program_by_name(APP), workers=2, state_backend="merkle"
        )


# -- telemetry ------------------------------------------------------------


def test_sequential_telemetry_reports_backend(fingerprint_outcome):
    telemetry = fingerprint_outcome.detection.telemetry
    assert telemetry.state_backend == "fingerprint"
    assert telemetry.state_fingerprints > 0
    assert telemetry.state_compares > 0
    assert telemetry.state_seconds > 0.0
    assert "backend=fingerprint" in telemetry.summary()


def test_parallel_telemetry_aggregates_worker_state_stats():
    outcome = run_app_campaign(
        program_by_name(APP), workers=2, state_backend="fingerprint"
    )
    telemetry = outcome.detection.telemetry
    assert telemetry.state_backend == "fingerprint"
    assert telemetry.state_fingerprints > 0
    # refinement of non-atomic points runs graph captures inside workers
    assert telemetry.state_captures > 0


def test_telemetry_state_fields_roundtrip(fingerprint_outcome):
    from repro.core import CampaignTelemetry

    original = fingerprint_outcome.detection.telemetry
    revived = CampaignTelemetry.from_dict(original.to_dict())
    assert revived.state_backend == original.state_backend
    assert revived.state_captures == original.state_captures
    assert revived.state_fingerprints == original.state_fingerprints
    assert revived.state_compares == original.state_compares
    # pre-state-layer dicts load with defaults instead of failing
    legacy = {
        key: value
        for key, value in original.to_dict().items()
        if not key.startswith("state_")
    }
    assert CampaignTelemetry.from_dict(legacy).state_backend == "graph"


# -- journal carries the backend choice -----------------------------------


def test_journal_resume_under_fingerprint(tmp_path, graph_outcome):
    journal = tmp_path / "fp.jsonl"
    first = run_app_campaign(
        program_by_name(APP),
        workers=2,
        journal=str(journal),
        state_backend="fingerprint",
    )
    _same_result(graph_outcome, first)
    resumed = run_app_campaign(
        program_by_name(APP),
        workers=2,
        journal=str(journal),
        resume=True,
        state_backend="fingerprint",
    )
    _same_result(graph_outcome, resumed)
    assert resumed.detection.telemetry.runs_resumed > 0


def _fragments(journal) -> list:
    return sorted(glob.glob(os.path.join(str(journal), "shard-*.jsonl")))


def test_resume_rejects_backend_mismatch(tmp_path):
    journal = tmp_path / "fp"
    run_app_campaign(
        program_by_name(APP),
        workers=2,
        journal=str(journal),
        state_backend="fingerprint",
    )
    for path in _fragments(journal):
        header = json.loads(open(path, encoding="utf-8").readline())
        assert header["state_backend"] == "fingerprint"
    with pytest.raises(JournalError, match="state_backend"):
        run_app_campaign(
            program_by_name(APP),
            workers=2,
            journal=str(journal),
            resume=True,
            state_backend="graph",
        )


def test_resume_accepts_pre_backend_journal(tmp_path):
    """A header key that is missing (rather than different) counts as
    matching: such fragments resume fine."""
    journal = tmp_path / "old"
    run_app_campaign(
        program_by_name(APP), workers=2, journal=str(journal)
    )
    for path in _fragments(journal):
        lines = open(path, encoding="utf-8").read().splitlines()
        header = json.loads(lines[0])
        del header["state_backend"]
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    resumed = run_app_campaign(
        program_by_name(APP), workers=2, journal=str(journal), resume=True
    )
    assert resumed.detection.telemetry.runs_resumed > 0
