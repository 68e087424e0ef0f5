"""Tests for run logs and their offline (JSON) format."""

import json

from repro.core.runlog import (
    ATOMIC,
    NONATOMIC,
    Mark,
    RunLog,
    RunRecord,
    log_json_without_provenance,
)


def test_record_call_counts_and_order():
    log = RunLog()
    log.record_call("A.m")
    log.record_call("B.n")
    log.record_call("A.m")
    assert log.call_counts == {"A.m": 2, "B.n": 1}
    assert log.methods_seen == ["A.m", "B.n"]


def test_marks_sequence_numbers():
    record = RunRecord(injection_point=3)
    record.add_mark("A.m", ATOMIC)
    record.add_mark("B.n", NONATOMIC, "at /attr='x': value 1 != 2")
    assert [m.sequence for m in record.marks] == [0, 1]
    assert record.marks[1].difference.startswith("at ")


def test_first_nonatomic():
    record = RunRecord(injection_point=1)
    record.add_mark("A.m", ATOMIC)
    assert record.first_nonatomic() is None
    record.add_mark("B.n", NONATOMIC)
    record.add_mark("C.o", NONATOMIC)
    assert record.first_nonatomic().method == "B.n"
    assert record.nonatomic_methods() == ["B.n", "C.o"]


def test_marks_for_and_marked_methods():
    log = RunLog()
    run1 = log.begin_run(1)
    run1.add_mark("A.m", NONATOMIC)
    run2 = log.begin_run(2)
    run2.add_mark("A.m", ATOMIC)
    run2.add_mark("B.n", ATOMIC)
    assert len(log.marks_for("A.m")) == 2
    assert log.marked_methods() == ["A.m", "B.n"]


def test_total_injections_counts_only_fired_runs():
    log = RunLog()
    run1 = log.begin_run(1)
    run1.injected_method = "A.m"
    log.begin_run(2)  # baseline run: nothing injected
    assert log.total_injections() == 1


def test_json_roundtrip():
    log = RunLog()
    log.record_call("A.m")
    run = log.begin_run(5)
    run.injected_method = "A.m"
    run.injected_exception = "ValueError"
    run.escaped = True
    run.add_mark("A.m", NONATOMIC, "difference text")
    restored = RunLog.from_json(log.to_json())
    assert restored.call_counts == {"A.m": 1}
    assert restored.methods_seen == ["A.m"]
    assert len(restored.runs) == 1
    loaded = restored.runs[0]
    assert loaded.injection_point == 5
    assert loaded.injected_method == "A.m"
    assert loaded.injected_exception == "ValueError"
    assert loaded.escaped and not loaded.completed
    assert loaded.marks[0] == Mark(
        method="A.m", verdict=NONATOMIC, sequence=0, difference="difference text"
    )


def test_save_and_load_file(tmp_path):
    log = RunLog()
    log.record_call("X.y")
    run = log.begin_run(1)
    run.completed = True
    path = tmp_path / "runlog.json"
    log.save(str(path))
    loaded = RunLog.load(str(path))
    assert loaded.call_counts == {"X.y": 1}
    assert loaded.runs[0].completed


def test_mark_is_nonatomic_property():
    assert Mark("A.m", NONATOMIC, 0).is_nonatomic
    assert not Mark("A.m", ATOMIC, 0).is_nonatomic


def test_log_json_without_provenance_strips_only_provenance():
    log = RunLog()
    log.record_call("A.m")
    derived = RunRecord(injection_point=1, escaped=True, provenance="trace")
    derived.add_mark("A.m", ATOMIC)
    log.runs.append(derived)
    log.runs.append(RunRecord(injection_point=2, completed=True))
    stripped = json.loads(log_json_without_provenance(log))
    assert all("provenance" not in run for run in stripped["runs"])
    full = json.loads(log.to_json())
    for run in full["runs"]:
        run.pop("provenance")
    assert stripped == full
