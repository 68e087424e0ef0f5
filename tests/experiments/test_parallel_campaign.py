"""Tests for the shard engine behind ``run_app_campaign(workers=N)``.

The contract under test (see ``docs/GUIDE.md`` §"Campaign engines"):

* the engine's merged result is **identical** to the sequential
  engine's — same run log bytes, same classification;
* an interrupted campaign resumes from its journal directory without
  re-running finished points, and still converges to the identical
  result;
* a run that exceeds its time budget is retried a bounded number of
  times and then marked ``crashed`` instead of wedging the campaign,
  and a shard process that dies is retried instead of wedging it.
"""

import dataclasses
import glob
import json
import os
import pathlib
import signal
import threading
import time

import pytest

from repro.core import (
    Analyzer,
    CampaignTelemetry,
    InjectionCampaign,
    Weaver,
    make_injection_wrapper,
    plan_points,
)
from repro.core.runlog import RunLog, RunRecord
from repro.experiments.parallel import run_point_with_timeout
from repro.experiments import (
    AppProgram,
    JournalError,
    ShardError,
    ShardFragment,
    load_outcome,
    merge_fragments,
    program_by_name,
    run_app_campaign,
    save_outcome,
)
from repro.experiments.shard import FRAGMENT_VERSION

APP = "LLMap"  # small, fast campaign with real marks and an error path


@pytest.fixture(scope="module")
def sequential():
    return run_app_campaign(program_by_name(APP))


def _fragments(journal) -> list:
    return sorted(glob.glob(os.path.join(str(journal), "shard-*.jsonl")))


def _same_result(a, b) -> None:
    assert a.detection.total_points == b.detection.total_points
    assert a.detection.runs_executed == b.detection.runs_executed
    assert a.detection.genuine_failures == b.detection.genuine_failures
    assert a.detection.log.to_json() == b.detection.log.to_json()
    assert a.classification.to_json() == b.classification.to_json()


# ---------------------------------------------------------------------------
# determinism: parallel == sequential
# ---------------------------------------------------------------------------


def test_parallel_matches_sequential(sequential):
    parallel = run_app_campaign(program_by_name(APP), workers=2)
    _same_result(sequential, parallel)


def test_parallel_matches_sequential_with_stride(tmp_path):
    program = program_by_name("Dynarray")
    seq = run_app_campaign(program, stride=3)
    par = run_app_campaign(program, stride=3, workers=3)
    _same_result(seq, par)


def test_single_worker_pool_is_equivalent(sequential):
    parallel = run_app_campaign(program_by_name(APP), workers=1)
    _same_result(sequential, parallel)


def test_parallel_telemetry_populated(sequential):
    parallel = run_app_campaign(program_by_name(APP), workers=2)
    telemetry = parallel.detection.telemetry
    assert telemetry is not None
    assert telemetry.engine == "parallel"
    assert telemetry.workers == 2
    assert telemetry.runs_total == sequential.detection.runs_executed
    assert telemetry.runs_executed == telemetry.runs_total
    assert telemetry.runs_resumed == 0
    assert telemetry.runs_per_second > 0
    assert set(telemetry.phase_seconds) == {"profile", "execute", "merge"}
    assert telemetry.worker_busy_seconds  # at least one worker reported
    # the sequential engine reports telemetry too
    assert sequential.detection.telemetry.engine == "sequential"


def test_plan_points_shared_helper():
    assert plan_points(5) == [1, 2, 3, 4, 5, 6]
    assert plan_points(6, stride=2) == [1, 3, 5, 7]
    with pytest.raises(ValueError):
        plan_points(5, stride=0)


# ---------------------------------------------------------------------------
# journal + resume
# ---------------------------------------------------------------------------


def test_resume_after_interrupt_is_equivalent(sequential, tmp_path):
    journal = str(tmp_path / "campaign")
    full = run_app_campaign(program_by_name(APP), workers=2, journal=journal)
    _same_result(sequential, full)

    # simulate an interrupt: every fragment keeps its header, its profile
    # line and its first 5 run lines
    for path in _fragments(journal):
        lines = pathlib.Path(path).read_text(encoding="utf-8").splitlines()
        assert len(lines) > 7
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines[:7]) + "\n")

    resumed = run_app_campaign(
        program_by_name(APP), workers=2, journal=journal, resume=True
    )
    _same_result(sequential, resumed)
    telemetry = resumed.detection.telemetry
    assert telemetry.runs_resumed == 10
    assert telemetry.runs_executed == telemetry.runs_total - 10


def test_resume_with_complete_journal_executes_nothing(sequential, tmp_path):
    journal = str(tmp_path / "campaign.jsonl")
    run_app_campaign(program_by_name(APP), workers=2, journal=journal)
    resumed = run_app_campaign(
        program_by_name(APP), workers=2, journal=journal, resume=True
    )
    _same_result(sequential, resumed)
    assert resumed.detection.telemetry.runs_executed == 0
    assert (
        resumed.detection.telemetry.runs_resumed
        == resumed.detection.telemetry.runs_total
    )


def test_resume_rejects_mismatched_journal(tmp_path):
    journal = str(tmp_path / "campaign.jsonl")
    run_app_campaign(program_by_name(APP), workers=2, journal=journal)
    with pytest.raises(JournalError, match="different campaign"):
        run_app_campaign(
            program_by_name(APP),
            workers=2,
            journal=journal,
            resume=True,
            stride=2,
        )


def test_resume_requires_journal_path():
    with pytest.raises(ValueError, match="journal"):
        run_app_campaign(program_by_name(APP), resume=True)


def test_journal_tolerates_old_headers_and_corrupt_tail(tmp_path):
    """A fragment whose header lacks plan keys and whose last write was
    torn must load, not raise."""
    fragment = ShardFragment(str(tmp_path / "shard-00.jsonl"))
    fragment.start({"program": "X"}, {"total_points": 7, "log": {}})
    record = RunRecord(injection_point=1, completed=False, escaped=True)
    fragment.append_run(1, record, None, 1)
    fragment.close()
    with open(fragment.path, "a", encoding="utf-8") as handle:
        handle.write('{"kind": "run", "point": 2, "rec')  # torn write
    done = fragment.load_done(
        {"program": "X", "stride": 1, "total_points": 7}
    )
    assert list(done) == [1]
    rebuilt = RunRecord.from_dict(done[1]["record"])
    assert rebuilt.escaped and not rebuilt.crashed


def test_resume_takes_shard_count_from_disk(sequential, tmp_path):
    """A resume keeps the fragments' shard count whatever ``workers``
    says; a fresh run removes stale fragments before it starts."""
    journal = str(tmp_path / "campaign")
    run_app_campaign(program_by_name(APP), workers=3, journal=journal)
    resumed = run_app_campaign(
        program_by_name(APP), workers=2, journal=journal, resume=True
    )
    _same_result(sequential, resumed)
    assert resumed.detection.telemetry.runs_executed == 0
    assert len(_fragments(journal)) == 3
    fresh = run_app_campaign(program_by_name(APP), workers=2, journal=journal)
    _same_result(sequential, fresh)
    assert len(_fragments(journal)) == 2


def test_pre_interleaving_journals_are_rejected(tmp_path):
    """Fragments of the older, contiguous format are rejected loudly on
    resume and merge, and so is a single-file journal."""
    journal = tmp_path / "campaign"
    run_app_campaign(program_by_name(APP), workers=2, journal=str(journal))
    paths = _fragments(journal)
    for path in paths:
        header, *rest = pathlib.Path(path).read_text(encoding="utf-8").splitlines()
        old = dict(json.loads(header), version=1)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join([json.dumps(old)] + rest) + "\n")
    with pytest.raises(JournalError, match="version 1"):
        run_app_campaign(
            program_by_name(APP), workers=2, journal=str(journal), resume=True
        )
    with pytest.raises(ShardError, match="version 1"):
        merge_fragments(paths)
    single = tmp_path / "campaign.jsonl"
    single.write_text('{"kind": "header", "program": "LLMap"}\n')
    with pytest.raises(JournalError, match="campaign.jsonl"):
        run_app_campaign(
            program_by_name(APP), workers=2, journal=str(single), resume=True
        )


def test_resume_reattempts_crashed_tail_record(sequential, tmp_path):
    """A fragment whose *last* record is crashed (the worker died mid-run
    and the crash marker was the final write) must not be treated as
    done: resume re-attempts exactly that point and converges to the
    sequential result."""
    journal = str(tmp_path / "campaign")
    run_app_campaign(program_by_name(APP), workers=2, journal=journal)

    path = _fragments(journal)[-1]
    lines = pathlib.Path(path).read_text(encoding="utf-8").splitlines()
    tail = json.loads(lines[-1])
    assert tail["kind"] == "run"
    tail["record"]["crashed"] = True
    tail["record"]["marks"] = []
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines[:-1] + [json.dumps(tail)]) + "\n")

    resumed = run_app_campaign(
        program_by_name(APP), workers=2, journal=journal, resume=True
    )
    _same_result(sequential, resumed)
    telemetry = resumed.detection.telemetry
    assert telemetry.runs_executed == 1  # only the crashed point re-ran
    assert telemetry.runs_resumed == telemetry.runs_total - 1
    assert not any(run.crashed for run in resumed.detection.log.runs)


class _Tiny:
    """Two injection points total: ``__init__`` and ``poke``."""

    def __init__(self):
        self.count = 0

    def poke(self):
        self.count += 1


def _tiny_body():
    _Tiny().poke()


def _tiny_program() -> AppProgram:
    return AppProgram(
        name="tinybox",
        language="Java",
        classes=[_Tiny],
        body=_tiny_body,
    )


def test_more_workers_than_injection_points():
    """More shards than points must neither wedge nor duplicate runs —
    the surplus shards simply hold no point."""
    seq = run_app_campaign(_tiny_program())
    par = run_app_campaign(_tiny_program(), workers=8).detection
    assert par.total_points < 8
    assert par.runs_executed == seq.detection.runs_executed
    assert par.log.to_json() == seq.detection.log.to_json()
    assert par.genuine_failures == seq.detection.genuine_failures
    assert par.telemetry.workers == 8


# ---------------------------------------------------------------------------
# timeouts and crashed points
# ---------------------------------------------------------------------------


class _Sleeper:
    """Subject whose workload stalls long enough to trip a tiny budget."""

    def __init__(self):
        self.poked = 0

    def poke(self):
        self.poked += 1


def _slow_body():
    time.sleep(0.25)
    _Sleeper().poke()


def _slow_program() -> AppProgram:
    return AppProgram(
        name="slowpoke",
        language="Java",
        classes=[_Sleeper],
        body=_slow_body,
    )


def test_timeout_marks_points_crashed(tmp_path):
    journal = str(tmp_path / "slow")
    result = run_app_campaign(
        _slow_program(),
        workers=2,
        timeout=0.05,
        retries=1,
        journal=journal,
    ).detection
    assert result.runs_executed == result.total_points + 1
    assert all(run.crashed for run in result.log.runs)
    assert not result.genuine_failures  # timeouts are not genuine failures
    telemetry = result.telemetry
    assert telemetry.runs_crashed == result.runs_executed
    # every point: 1 attempt + 1 retry before crashing
    assert telemetry.retries == result.runs_executed

    # crashed points are not treated as done: a resume re-attempts them
    retry = run_app_campaign(
        _slow_program(),
        workers=2,
        timeout=30.0,
        journal=journal,
        resume=True,
    ).detection
    assert retry.telemetry.runs_resumed == 0
    assert retry.telemetry.runs_crashed == 0
    assert not any(run.crashed for run in retry.log.runs)


def test_generous_timeout_preserves_equivalence(sequential):
    parallel = run_app_campaign(
        program_by_name(APP), workers=2, timeout=60.0, retries=2
    )
    _same_result(sequential, parallel)
    assert parallel.detection.telemetry.runs_crashed == 0


# ---------------------------------------------------------------------------
# telemetry persistence + compatibility
# ---------------------------------------------------------------------------


def test_save_load_roundtrips_telemetry(tmp_path):
    outcome = run_app_campaign(program_by_name("Dynarray"), stride=4, workers=2)
    directory = str(tmp_path / "campaign")
    save_outcome(outcome, directory)
    meta, _, _ = load_outcome(directory)
    telemetry = meta["telemetry"]
    assert isinstance(telemetry, CampaignTelemetry)
    assert telemetry.engine == "parallel"
    assert telemetry.workers == 2
    assert telemetry.runs_total == outcome.detection.runs_executed
    assert telemetry.phase_seconds == outcome.detection.telemetry.phase_seconds


def test_load_outcome_tolerates_pre_telemetry_meta(tmp_path):
    """meta.json written before telemetry existed must still load."""
    outcome = run_app_campaign(program_by_name("Dynarray"), stride=4)
    directory = str(tmp_path / "campaign")
    save_outcome(outcome, directory)
    meta_path = tmp_path / "campaign" / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta.pop("telemetry", None)
    meta_path.write_text(json.dumps(meta))
    loaded_meta, log, classification = load_outcome(directory)
    assert "telemetry" not in loaded_meta
    assert len(log.runs) == len(outcome.detection.log.runs)


def test_telemetry_from_dict_defaults_missing_keys():
    telemetry = CampaignTelemetry.from_dict({"engine": "parallel", "workers": 4})
    assert telemetry.engine == "parallel"
    assert telemetry.workers == 4
    assert telemetry.runs_total == 0
    assert telemetry.phase_seconds == {}
    assert CampaignTelemetry.from_dict(None).engine == "sequential"
    assert "engine=sequential" in CampaignTelemetry.from_dict({}).summary()


def test_telemetry_roundtrips_every_field():
    """Every field survives to_dict/from_dict, even a non-default value."""
    changed = {}
    for f in dataclasses.fields(CampaignTelemetry):
        default = getattr(CampaignTelemetry(), f.name)
        if isinstance(default, dict):
            changed[f.name] = {"profile": 1.5, "7": 2.25}
        elif isinstance(default, str):
            changed[f.name] = default + "-changed"
        else:
            changed[f.name] = type(default)(default + 3)
    telemetry = CampaignTelemetry(**changed)
    payload = json.loads(json.dumps(telemetry.to_dict()))
    assert payload == changed
    assert CampaignTelemetry.from_dict(payload) == telemetry


def test_telemetry_loads_legacy_dict_with_retired_keys(tmp_path):
    """meta.json written when telemetry still carried the static-pass,
    instrumentor and write-trace fields loads: retired keys are ignored,
    the rest are coerced to their field types."""
    legacy = {
        "engine": "sequential",
        "workers": "1",
        "runs_total": 12,
        "runs_executed": 5,
        "runs_pruned": 4,
        "runs_derived": "3",
        "static_pure_methods": 2,
        "static_seconds": 0.01,
        "instrumentor": "weave",
        "trace_writes": 8260,
        "wall_seconds": 1,
        "phase_seconds": {"profile": "0.5", "execute": 1},
    }
    telemetry = CampaignTelemetry.from_dict(legacy)
    assert telemetry.workers == 1
    assert telemetry.runs_derived == 3
    assert telemetry.wall_seconds == 1.0
    assert isinstance(telemetry.wall_seconds, float)
    assert telemetry.phase_seconds == {"profile": 0.5, "execute": 1.0}
    assert "runs_pruned" not in telemetry.to_dict()
    assert "trace_writes" not in telemetry.to_dict()
    outcome = run_app_campaign(program_by_name("Dynarray"), stride=4)
    directory = str(tmp_path / "campaign")
    save_outcome(outcome, directory)
    meta_path = tmp_path / "campaign" / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta["telemetry"] = legacy
    meta_path.write_text(json.dumps(meta))
    loaded_meta, _, _ = load_outcome(directory)
    assert loaded_meta["telemetry"] == telemetry


def test_crashed_flag_roundtrips_and_defaults():
    log = RunLog()
    log.runs.append(RunRecord(injection_point=3, crashed=True))
    reloaded = RunLog.from_json(log.to_json())
    assert reloaded.runs[0].crashed
    # logs written before the flag existed default to crashed=False
    payload = json.loads(log.to_json())
    del payload["runs"][0]["crashed"]
    legacy = RunLog.from_json(json.dumps(payload))
    assert not legacy.runs[0].crashed


def test_unregistered_program_runs_on_the_shard_engine():
    """Shard processes inherit the parent's subject through the fork, so
    a program outside the registry needs no recipe to rebuild it."""
    sequential = run_app_campaign(_tiny_program())
    sharded = run_app_campaign(_tiny_program(), workers=2).detection
    assert sharded.log.to_json() == sequential.detection.log.to_json()
    assert sharded.genuine_failures == sequential.detection.genuine_failures


def test_timeout_without_the_shard_engine_is_refused():
    with pytest.raises(ValueError, match="workers"):
        run_app_campaign(_tiny_program(), timeout=1.0)


# ---------------------------------------------------------------------------
# crash-safe journal loading (torn tails, header diagnostics)
# ---------------------------------------------------------------------------


def _journal_bytes() -> tuple:
    """A fragment with two completed runs whose lines carry real multibyte
    UTF-8 (so a torn write can split a character, not just a brace).
    Returns ``(prefix bytes, last line bytes incl. newline)``."""
    header = json.dumps(
        {
            "kind": "header",
            "version": FRAGMENT_VERSION,
            "program": "X",
            "stride": 1,
            "total_points": 7,
        }
    )
    first = json.dumps(
        {
            "kind": "run",
            "point": 1,
            "record": RunRecord(injection_point=1, escaped=True).to_dict(),
            "genuine_failure": None,
            "attempts": 1,
        },
        ensure_ascii=False,
    )
    last = json.dumps(
        {
            "kind": "run",
            "point": 2,
            "record": RunRecord(injection_point=2, completed=True).to_dict(),
            "genuine_failure": "naïve Σtate ☃ diverged",
            "attempts": 1,
        },
        ensure_ascii=False,
    )
    prefix = (header + "\n" + first + "\n").encode("utf-8")
    return prefix, (last + "\n").encode("utf-8")


def test_journal_load_tolerates_truncation_at_every_byte(tmp_path):
    """A worker killed mid-``write`` leaves the fragment truncated at an
    arbitrary byte of its final line — possibly inside a multibyte
    character.  ``load_done`` must never raise: every byte prefix yields
    the fully-written records, and the torn tail is simply dropped."""
    expected_header = {"program": "X", "stride": 1, "total_points": 7}
    prefix, last = _journal_bytes()
    path = tmp_path / "torn.jsonl"
    # the last line parses once its closing brace is present — with or
    # without the trailing newline
    complete_from = len(prefix) + len(last) - 1
    for cut in range(len(prefix), len(prefix) + len(last) + 1):
        path.write_bytes((prefix + last)[:cut])
        done = ShardFragment(str(path)).load_done(expected_header)
        if cut >= complete_from:
            assert sorted(done) == [1, 2], f"cut at byte {cut}"
            assert done[2]["genuine_failure"] == "naïve Σtate ☃ diverged"
        else:
            assert sorted(done) == [1], f"cut at byte {cut}"


def test_journal_load_tolerates_truncated_header(tmp_path):
    """Truncation inside the *header* line means nothing was durably
    recorded: the fragment loads as empty rather than raising."""
    prefix, last = _journal_bytes()
    header_line = prefix.split(b"\n", 1)[0] + b"\n"
    path = tmp_path / "torn-header.jsonl"
    for cut in (1, len(header_line) // 2, len(header_line) - 2):
        path.write_bytes(header_line[:cut])
        done = ShardFragment(str(path)).load_done({"program": "X"})
        assert done == {}


def test_parallel_resume_after_torn_tail_write(sequential, tmp_path):
    """End-to-end: a campaign whose fragment ends in a torn write resumes
    cleanly — the partial line is dropped *and* the records appended by
    the resumed campaign do not concatenate onto the torn bytes (the
    fragment must replay completely afterwards)."""
    journal = str(tmp_path / "campaign")
    run_app_campaign(program_by_name(APP), workers=2, journal=journal)
    path = _fragments(journal)[-1]
    data = pathlib.Path(path).read_bytes()
    with open(path, "wb") as handle:
        handle.write(data[:-7])  # tear the final record mid-line

    resumed = run_app_campaign(
        program_by_name(APP), workers=2, journal=journal, resume=True
    )
    _same_result(sequential, resumed)
    assert resumed.detection.telemetry.runs_executed == 1

    # the repaired + appended fragment now holds every point: a second
    # resume replays it fully and executes nothing
    again = run_app_campaign(
        program_by_name(APP), workers=2, journal=journal, resume=True
    )
    _same_result(sequential, again)
    assert again.detection.telemetry.runs_executed == 0


def test_journal_header_mismatch_reports_differing_keys(tmp_path):
    """The resume error must say *which* header keys differ, not just
    that the fragment belongs to a different campaign."""
    prefix, last = _journal_bytes()
    path = tmp_path / "other.jsonl"
    path.write_bytes(prefix + last)
    with pytest.raises(JournalError) as excinfo:
        ShardFragment(str(path)).load_done(
            {"program": "X", "stride": 2, "total_points": 9}
        )
    message = str(excinfo.value)
    assert "stride=1 (expected 2)" in message
    assert "total_points=7 (expected 9)" in message
    assert "program" not in message.split("campaign:")[1]


# ---------------------------------------------------------------------------
# timeout enforcement on and off the main thread
# ---------------------------------------------------------------------------


def _run_slow_point(timeout, retries):
    """Weave the slow subject and execute its first injection point
    under a budget, via the shared single-point kernel."""
    program = _slow_program()
    campaign = InjectionCampaign()
    with Weaver(
        lambda spec: make_injection_wrapper(spec, campaign),
        Analyzer(exclude=program.exclude),
    ) as weaver:
        weaver.weave_classes(program.classes)
        campaign.begin_profile()
        program()
        campaign.end_profile()
        return run_point_with_timeout(
            program, campaign, 1, timeout=timeout, retries=retries
        )


def test_timeout_on_main_thread_uses_sigalrm_path():
    assert threading.current_thread() is threading.main_thread()
    record, failure, attempts, crashed = _run_slow_point(0.05, retries=1)
    assert crashed and record.crashed
    assert failure is None
    assert attempts == 2  # one attempt + one retry


def test_timeout_off_the_main_thread_is_refused():
    """The per-run budget is SIGALRM, which only a process's main thread
    receives; a timed run from any other thread is refused, saying why."""
    errors = {}

    def drive():
        try:
            _run_slow_point(0.05, retries=1)
        except ValueError as exc:
            errors["message"] = str(exc)

    thread = threading.Thread(target=drive)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert "main thread" in errors["message"]
    assert "SIGALRM" in errors["message"]


def test_timed_campaign_from_a_worker_thread():
    """Driven from a thread — as under ``repro serve`` — the engine still
    enforces the budget: a shard process forked from any thread is its
    own main thread, where SIGALRM interrupts the run."""
    results = {}

    def drive():
        results["value"] = run_app_campaign(
            _slow_program(),
            workers=2,
            timeout=0.05,
            retries=0,
        ).detection

    thread = threading.Thread(target=drive)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert all(run.crashed for run in results["value"].log.runs)


# ---------------------------------------------------------------------------
# a shard process that dies
# ---------------------------------------------------------------------------


class _Mortal:
    def __init__(self):
        self.items = []

    def add(self, item):
        self.items.append(item)


#: Where a shard process leaves its death certificate, and the pid of
#: the process that must not die (the parent, which also profiles).
_DEATH = {"flag": None, "parent": None}


def _mortal_body():
    box = _Mortal()
    box.add(1)
    flag = _DEATH["flag"]
    if flag is not None and os.getpid() != _DEATH["parent"]:
        try:
            os.close(os.open(flag, os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            pass  # some shard process already died once
        else:
            os._exit(137)
    box.add(2)


def _mortal_program() -> AppProgram:
    return AppProgram(
        name="mortal", language="Java", classes=[_Mortal], body=_mortal_body
    )


def test_dead_shard_process_is_retried(tmp_path):
    """A shard process that exits mid-shard is noticed and retried from
    its fragment: the campaign neither wedges nor changes its result."""
    sequential = run_app_campaign(_mortal_program())

    def overdue(signum, frame):
        raise TimeoutError("campaign wedged after a shard process died")

    flag = str(tmp_path / "died")
    _DEATH.update(flag=flag, parent=os.getpid())
    previous = signal.signal(signal.SIGALRM, overdue)
    signal.setitimer(signal.ITIMER_REAL, 30.0)
    try:
        outcome = run_app_campaign(_mortal_program(), workers=2)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
        _DEATH.update(flag=None, parent=None)
    assert os.path.exists(flag)
    _same_result(sequential, outcome)
    assert outcome.detection.telemetry.shard_retries == 1
