"""``RunRecord.to_dict`` builds each mark's dict by hand; it must encode
exactly what the ``dataclasses.asdict`` version did.

The oracle below is that version, kept verbatim.  Every journal line,
``RunLog.to_json`` and the service's result payloads go through
``to_dict``, so the check runs over real logs (a sequential campaign, a
trace-derived one whose records carry ``provenance="trace"``, and a
crashed record) and over whole journal fragments: a fragment written
with the hand-built dicts must equal, line for line, the fragment the
``asdict`` encoding writes for the same campaign.
"""

import json
from dataclasses import asdict

import pytest

from repro.core.runlog import RunRecord
from repro.experiments import (
    CampaignConfig,
    program_by_name,
    run_app_campaign,
    run_shard,
)


def asdict_to_dict(record):
    """``RunRecord.to_dict`` as it was, marks through ``asdict``."""
    return {
        "injection_point": record.injection_point,
        "injected_method": record.injected_method,
        "injected_exception": record.injected_exception,
        "completed": record.completed,
        "escaped": record.escaped,
        "crashed": record.crashed,
        "provenance": record.provenance,
        "marks": [asdict(mark) for mark in record.marks],
    }


def _assert_same_encoding(records):
    for record in records:
        new, old = record.to_dict(), asdict_to_dict(record)
        assert new == old
        assert json.dumps(new, sort_keys=True) == json.dumps(old, sort_keys=True)
        assert json.dumps(new) == json.dumps(old)  # same key order too


@pytest.fixture(scope="module")
def sequential_log():
    return run_app_campaign(program_by_name("LLMap")).detection.log


@pytest.fixture(scope="module")
def derived_log():
    return run_app_campaign(
        program_by_name("RegExp"), trace_derive=True
    ).detection.log


def test_sequential_records_encode_as_before(sequential_log):
    assert any(run.marks for run in sequential_log.runs)
    assert any(m.difference for run in sequential_log.runs for m in run.marks)
    _assert_same_encoding(sequential_log.runs)


def test_trace_derived_records_encode_as_before(derived_log):
    provenances = {run.provenance for run in derived_log.runs}
    assert provenances == {"dynamic", "trace"}
    _assert_same_encoding(derived_log.runs)


def test_crashed_record_encodes_as_before():
    crashed = RunRecord(injection_point=17, crashed=True)
    marked = RunRecord(injection_point=3, injected_method="A.f", crashed=True)
    marked.add_mark("A.f", "nonatomic", "list len 2 != 3")
    _assert_same_encoding([crashed, marked])


def test_log_json_is_byte_identical(
    sequential_log, derived_log, monkeypatch
):
    new = [sequential_log.to_json(), derived_log.to_json()]
    monkeypatch.setattr(RunRecord, "to_dict", asdict_to_dict)
    assert new == [sequential_log.to_json(), derived_log.to_json()]


@pytest.mark.parametrize(
    "app, config",
    [("LLMap", {}), ("RegExp", {"trace_derive": True})],
)
def test_fragment_matches_the_asdict_encoding_line_for_line(
    app, config, tmp_path, monkeypatch
):
    def fragment(name):
        path = tmp_path / name
        run_shard(
            program_by_name(app), 0, 1, str(path), CampaignConfig(**config)
        )
        return path.read_text(encoding="utf-8").splitlines()

    new = fragment("new.jsonl")
    monkeypatch.setattr(RunRecord, "to_dict", asdict_to_dict)
    old = fragment("old.jsonl")
    assert len(new) > 2
    assert new == old
