"""End-to-end equivalence of trace derivation on the synthetic suite.

The acceptance contract of the one-trace-many-points pass: under
``trace_derive=True`` the campaign must reproduce the ground-truth
classification of :data:`repro.experiments.synthetic.GROUND_TRUTH`
**bit-identically** — on both engines (sequential, and the shard engine
with 1 and 4 workers) and under both state backends — while actually deriving
injection runs from the one instrumented reference execution instead of
executing them.  Only the
per-run ``provenance`` tags and the telemetry may reveal that
derivation happened.
"""

import glob
import json
import os
import pathlib

import pytest

from repro.core.runlog import log_json_without_provenance
from repro.experiments import (
    GROUND_TRUTH,
    load_outcome,
    run_app_campaign,
    save_outcome,
    synthetic_program,
)

BACKENDS = ["graph", "fingerprint"]


@pytest.fixture(scope="module")
def reference():
    """The fully dynamic sequential campaign (the trusted oracle)."""
    return run_app_campaign(synthetic_program())


def _parallel_derived(workers, backend, **kwargs):
    outcome = run_app_campaign(
        synthetic_program(),
        workers=workers,
        state_backend=backend,
        trace_derive=True,
        **kwargs,
    )
    return outcome.detection, outcome.classification


def _assert_equivalent(reference, detection, classification):
    assert detection.telemetry.runs_derived > 0
    assert detection.telemetry.runs_executed < (
        reference.detection.telemetry.runs_executed
    )
    assert log_json_without_provenance(detection.log) == (
        log_json_without_provenance(reference.detection.log)
    )
    assert classification.to_json() == reference.classification.to_json()
    for method, expected in GROUND_TRUTH.items():
        assert classification.category_of(method) == expected


@pytest.mark.parametrize("backend", BACKENDS)
def test_sequential_derive_matches_ground_truth(reference, backend):
    outcome = run_app_campaign(
        synthetic_program(), state_backend=backend, trace_derive=True
    )
    _assert_equivalent(reference, outcome.detection, outcome.classification)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("workers", [1, 4])
def test_parallel_derive_matches_ground_truth(reference, workers, backend):
    detection, classification = _parallel_derived(workers, backend)
    _assert_equivalent(reference, detection, classification)


def test_derived_and_dynamic_provenance_coexist(reference):
    outcome = run_app_campaign(synthetic_program(), trace_derive=True)
    tags = {run.provenance for run in outcome.detection.log.runs}
    assert "trace" in tags
    derived_count = sum(
        1 for run in outcome.detection.log.runs if run.provenance == "trace"
    )
    assert derived_count == outcome.detection.telemetry.runs_derived
    # the fully dynamic oracle never carries a trace tag
    assert all(
        run.provenance == "dynamic" for run in reference.detection.log.runs
    )


def test_resume_rederives_decided_points(reference, tmp_path):
    # Derived records are journaled like executed ones.  A resumed
    # campaign keeps what its fragments still hold, re-derives the lost
    # decided points from a fresh reference trace, and executes only the
    # lost dynamic remainder — with the identical final log.
    journal = str(tmp_path / "campaign")
    first_detection, _ = _parallel_derived(2, "graph", journal=journal)
    kept = kept_derived = 0
    for path in sorted(glob.glob(os.path.join(journal, "shard-*.jsonl"))):
        lines = pathlib.Path(path).read_text(encoding="utf-8").splitlines()
        runs = lines[2:3]  # header + profile + at most one run
        kept += len(runs)
        kept_derived += sum(json.loads(l)["attempts"] == 0 for l in runs)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines[:2] + runs) + "\n")
    detection, classification = _parallel_derived(
        2, "graph", journal=journal, resume=True
    )
    assert detection.log.to_json() == first_detection.log.to_json()
    assert detection.telemetry.runs_resumed == kept
    assert detection.telemetry.runs_derived == (
        first_detection.telemetry.runs_derived - kept_derived
    )
    _assert_equivalent(reference, detection, classification)


def test_resume_rejects_trace_derive_mismatch(tmp_path):
    from repro.experiments import JournalError

    journal = str(tmp_path / "campaign")
    _parallel_derived(2, "graph", journal=journal)
    with pytest.raises(JournalError, match="different campaign"):
        run_app_campaign(
            synthetic_program(),
            workers=2,
            journal=journal,
            resume=True,
        )


def test_provenance_roundtrips_through_persistence(tmp_path):
    outcome = run_app_campaign(synthetic_program(), trace_derive=True)
    save_outcome(outcome, str(tmp_path))
    meta, log, classification = load_outcome(str(tmp_path))
    assert log.to_json() == outcome.detection.log.to_json()
    revived = {run.injection_point: run.provenance for run in log.runs}
    original = {
        run.injection_point: run.provenance
        for run in outcome.detection.log.runs
    }
    assert revived == original
    assert "trace" in set(revived.values())
    assert classification.to_json() == outcome.classification.to_json()
    assert (
        meta["telemetry"].runs_derived
        == outcome.detection.telemetry.runs_derived
    )
