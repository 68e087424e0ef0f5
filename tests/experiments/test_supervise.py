"""Tests for shard supervision (``repro.experiments.supervise``).

The contract under test:

* a supervised sharded campaign with no faults armed is just the shard
  layer with bookkeeping — merged bit-identical to the sequential
  engine, zero retries;
* under an armed fault plan (worker kills at a line boundary, torn
  journal tails, injected IO errors, hung runs) the supervisor retries
  with resume until every fragment is complete — and the merged result
  is **still** bit-identical to the fault-free engine;
* a worker stuck in a step that is not a run is killed
  (``Process.kill()``, a SIGKILL) within one poll of outliving
  ``heartbeat_timeout``, measured from the step's own start in its
  progress slot, without losing a line it wrote, and the retry
  converges;
* shards run at once by default, each process sends exactly one pipe
  message (its result or its error), and the last ``progress`` call,
  read from the progress slots, still reads ``(total, total)``;
* the attempt budget is enforced (:class:`SupervisorError` carries
  every attempt's failure reason), backoff is capped exponential with
  seeded, reproducible jitter, and retries start in a fixed order,
  whatever their backoffs.
"""

import collections
import os
import time

import pytest

from repro.experiments import (
    CampaignConfig,
    program_by_name,
    run_app_campaign,
    run_chaos_campaign,
)
from repro.experiments import parallel
from repro.experiments import supervise
from repro.experiments.supervise import ShardSupervisor, SupervisorError
from repro.resilience import FaultPlan, FaultSpec, arm

APP = "LLMap"


def _factory():
    return program_by_name(APP)


def _assert_identical(merged, sequential):
    assert merged.detection.log.to_json() == sequential.detection.log.to_json()
    assert merged.classify().to_json() == sequential.classification.to_json()


@pytest.fixture(scope="module")
def sequential():
    return run_app_campaign(program_by_name(APP))


@pytest.fixture
def messages(tmp_path, monkeypatch):
    """The pipe messages of every shard process, as a list of
    ``(pid, kind)``: each child appends one line per message it sends
    to a file, since the parent cannot see what a child sent but never
    delivered."""
    log = tmp_path / "messages"
    chunk = parallel._run_chunk

    def logged_chunk(conn, *args):
        send = conn.send

        def logged(message):
            with open(log, "a", encoding="utf-8") as handle:
                handle.write(f"{os.getpid()} {message[0]}\n")
            send(message)

        conn.send = logged
        chunk(conn, *args)

    monkeypatch.setattr(parallel, "_run_chunk", logged_chunk)

    def read():
        if not log.exists():
            return []
        lines = log.read_text(encoding="utf-8").splitlines()
        return [tuple(line.split()) for line in lines]

    return read


def _one_message_per_process(sent):
    per_process = collections.Counter(pid for pid, _ in sent)
    return set(per_process.values()) == {1}


def test_supervised_run_without_faults_matches_sequential(
    sequential, tmp_path, messages
):
    supervisor = ShardSupervisor(seed=1)
    supervised = supervisor.run(_factory, 3, str(tmp_path))
    _assert_identical(supervised.merged, sequential)
    assert supervised.shard_retries == 0
    assert [o.attempts for o in supervised.outcomes] == [1, 1, 1]
    telemetry = supervised.merged.detection.telemetry
    assert telemetry.engine == "supervised"
    assert telemetry.workers == min(3, os.cpu_count())
    assert telemetry.shard_retries == 0
    assert telemetry.faults_injected == 0
    # Progress travels through the slots: each shard process sends one
    # message, its result, however many points it ran.
    sent = messages()
    assert len(sent) == 3 and {kind for _, kind in sent} == {"done"}
    assert _one_message_per_process(sent)


def test_a_slow_healthy_shard_is_never_declared_hung(
    sequential, tmp_path, messages
):
    """Every point sleeps ~20 ms, so each shard runs for several
    heartbeat timeouts; each of its steps is far shorter than that, and
    a run has no limit without a run budget, so every shard stays
    alive."""
    plan = FaultPlan(
        faults=[FaultSpec("run.exec", "hang", count=200, seconds=0.02)]
    )
    supervisor = ShardSupervisor(heartbeat_timeout=0.3)
    with arm(plan):
        supervised = supervisor.run(_factory, 2, str(tmp_path))
    _assert_identical(supervised.merged, sequential)
    assert supervised.shard_retries == 0
    for outcome in supervised.outcomes:
        assert outcome.result.wall_seconds > 2 * supervisor.heartbeat_timeout
    assert _one_message_per_process(messages())


def test_last_progress_call_reads_total_also_after_a_resume(
    sequential, tmp_path
):
    """The parent reads a shard's progress slot once more after the
    process ends, so its last ``progress`` call reads ``(total, total)``
    on a fresh campaign, on a resume with nothing left to run and on one
    that re-runs a lost tail."""
    journal = tmp_path / "journal"
    total = len(sequential.detection.log.runs)

    def last_progress(**kwargs):
        calls = []
        run_app_campaign(
            program_by_name(APP),
            workers=2,
            journal=str(journal),
            progress=lambda done, of: calls.append((done, of)),
            **kwargs,
        )
        return calls[-1]

    assert last_progress() == (total, total)
    assert last_progress(resume=True) == (total, total)
    fragment = journal / "shard-00.jsonl"
    lines = fragment.read_text(encoding="utf-8").splitlines(keepends=True)
    fragment.write_text("".join(lines[:-3]), encoding="utf-8")
    assert last_progress(resume=True) == (total, total)


def test_supervisor_builds_the_subject_once(sequential, tmp_path):
    """Shard processes inherit the parent's subject through the fork, so
    the factory runs once per campaign, not once per shard attempt.
    The calls are counted in a file because every process sees it."""
    calls = tmp_path / "calls"

    def factory():
        with open(calls, "a", encoding="utf-8") as handle:
            handle.write("x")
        return program_by_name(APP)

    supervised = ShardSupervisor().run(factory, 2, str(tmp_path / "journal"))
    _assert_identical(supervised.merged, sequential)
    assert calls.read_text(encoding="utf-8") == "x"


def test_supervisor_retries_through_kill_and_torn_faults(
    sequential, tmp_path
):
    plan = FaultPlan(
        faults=[
            FaultSpec("journal.appended", "kill", after=1),
            FaultSpec("journal.appended", "torn", after=4, torn_bytes=9),
            FaultSpec("journal.append", "ioerror", after=7),
        ]
    )
    supervisor = ShardSupervisor(seed=2, backoff_base=0.01)
    with arm(plan) as injector:
        supervised = supervisor.run(_factory, 2, str(tmp_path))
    _assert_identical(supervised.merged, sequential)
    assert injector.faults_injected == 3
    assert supervised.shard_retries == 3
    assert supervised.merged.detection.telemetry.faults_injected == 3
    reasons = " ".join(f for o in supervised.outcomes for f in o.failures)
    assert "WorkerKilled" in reasons
    assert "OSError" in reasons


def test_hung_run_is_crashed_then_rescued_on_resume(sequential, tmp_path):
    # Two consecutive hangs + one per-point retry => the point is
    # journaled crashed; the supervisor must notice and re-run it.  One
    # shard at a time: concurrent shards could split the two hangs
    # between two points, and each would pass on its retry.
    plan = FaultPlan(
        faults=[FaultSpec("run.exec", "hang", after=1, count=2, seconds=5.0)]
    )
    supervisor = ShardSupervisor(seed=3, backoff_base=0.01)
    with arm(plan):
        supervised = supervisor.run(
            _factory,
            2,
            str(tmp_path),
            CampaignConfig(workers=1, timeout=0.2, retries=1),
        )
    _assert_identical(supervised.merged, sequential)
    assert supervised.shard_retries == 1
    assert any(
        "crashed point" in f
        for o in supervised.outcomes
        for f in o.failures
    )


def test_stale_heartbeat_kills_worker_and_retry_converges(
    sequential, tmp_path, monkeypatch
):
    # The hang fires *outside* a run (at the journal seam), so only the
    # heartbeat, which covers every other step, can catch it.  One shard
    # at a time, so the hang lands on shard 0's third line.
    kills = []
    stop = supervise._ShardProcess.stop

    def timed_stop(self, grace):
        # CLOCK_MONOTONIC is one clock for every process of the machine:
        # the kill and the start of the step the child was in compare.
        kills.append((time.monotonic(), self.slot[parallel.SLOT_STARTED]))
        stop(self, grace)

    monkeypatch.setattr(supervise._ShardProcess, "stop", timed_stop)
    plan = FaultPlan(
        faults=[FaultSpec("journal.appended", "hang", after=2, seconds=30.0)]
    )
    supervisor = ShardSupervisor(
        seed=4, backoff_base=0.01, heartbeat_timeout=0.3, kill_grace=5.0
    )
    with arm(plan):
        supervised = supervisor.run(
            _factory, 2, str(tmp_path / "journal"), CampaignConfig(workers=1)
        )
    _assert_identical(supervised.merged, sequential)
    # The step outlived the heartbeat timeout and the parent looks once
    # per poll interval, so the kill comes within one interval after
    # (the upper bound allows the parent's wake-up).
    killed_at, step_started = kills[0]
    waited = killed_at - step_started
    poll = supervisor.poll_interval()
    assert 0.3 < waited <= 0.3 + poll + 0.1
    assert supervised.shard_retries == 1
    assert any(
        "hung" in f for o in supervised.outcomes for f in o.failures
    )
    # The hang came after the shard's third line was written, and the
    # kill is a SIGKILL: group commit had handed all three lines to the
    # operating system, so the retry resumes them.
    killed = [o for o in supervised.outcomes if o.retries]
    assert [o.result.resumed for o in killed] == [3]


def test_retries_start_in_a_fixed_order_whatever_their_backoffs(
    sequential, tmp_path, monkeypatch
):
    """Both shards die at their first line; shard 0's retry then waits
    longer than shard 1's.  The next attempt still belongs to the
    waiting shard with the fewest attempts, lowest index first, so the
    order attempts start in does not depend on the backoffs (or on how
    long each attempt took), and a fault plan counted across processes
    fires the same way on every run."""
    started = []

    class Recorded(supervise._ShardProcess):
        def __init__(self, ctx, program, index, *args):
            started.append(index)
            super().__init__(ctx, program, index, *args)

    monkeypatch.setattr(supervise, "_ShardProcess", Recorded)
    plan = FaultPlan(
        faults=[
            FaultSpec("journal.appended", "kill", after=0),
            FaultSpec("journal.appended", "kill", after=1),
        ]
    )
    supervisor = ShardSupervisor(seed=6)
    delays = iter([0.6, 0.05])  # shard 0's retry is due well after 1's
    monkeypatch.setattr(supervisor, "backoff", lambda attempt: next(delays))
    with arm(plan):
        supervised = supervisor.run(
            _factory, 2, str(tmp_path), CampaignConfig(workers=1)
        )
    _assert_identical(supervised.merged, sequential)
    assert [o.attempts for o in supervised.outcomes] == [2, 2]
    assert started == [0, 1, 0, 1]


def test_attempt_budget_enforced_with_reasons(tmp_path):
    # More kills than the budget allows: the supervisor must give up
    # and its error must narrate every attempt.
    plan = FaultPlan(
        faults=[FaultSpec("journal.appended", "kill", after=0, count=99)]
    )
    supervisor = ShardSupervisor(seed=5, max_attempts=2, backoff_base=0.01)
    with arm(plan):
        with pytest.raises(SupervisorError) as excinfo:
            supervisor.run(_factory, 1, str(tmp_path))
    message = str(excinfo.value)
    assert "after 2 attempt(s)" in message
    assert "attempt 1" in message and "attempt 2" in message
    assert "WorkerKilled" in message


def test_backoff_is_capped_exponential_with_seeded_jitter():
    a = ShardSupervisor(seed=9, backoff_base=0.1, backoff_cap=0.5)
    b = ShardSupervisor(seed=9, backoff_base=0.1, backoff_cap=0.5)
    delays_a = [a.backoff(attempt) for attempt in range(1, 6)]
    delays_b = [b.backoff(attempt) for attempt in range(1, 6)]
    assert delays_a == delays_b  # same seed, same jitter
    for attempt, delay in enumerate(delays_a, start=1):
        nominal = min(0.5, 0.1 * (2 ** (attempt - 1)))
        assert 0.5 * nominal <= delay < 1.5 * nominal
    assert ShardSupervisor(seed=10).backoff(1) != delays_a[0]


def test_supervisor_validates_arguments():
    with pytest.raises(ValueError, match="max_attempts"):
        ShardSupervisor(max_attempts=0)
    with pytest.raises(ValueError, match="backoff"):
        ShardSupervisor(backoff_base=0.5, backoff_cap=0.1)
    with pytest.raises(ValueError, match="heartbeat"):
        ShardSupervisor(heartbeat_timeout=0.0)
    with pytest.raises(ValueError, match="shard_count"):
        ShardSupervisor().run(_factory, 0, "/tmp/unused")


def test_chaos_harness_converges_and_reports(tmp_path):
    report = run_chaos_campaign(
        _factory,
        str(tmp_path),
        seed=11,
        shard_count=3,
        hang_seconds=0.5,
        supervisor=ShardSupervisor(seed=11, backoff_base=0.01),
    )
    assert report.converged and report.identical
    assert not report.missing_kinds
    assert report.faults_injected >= 4
    assert sorted(report.faults_by_kind) == ["hang", "ioerror", "kill", "torn"]
    assert report.shard_retries >= 1
    # the report round-trips (it is the CI reproducer artifact)
    data = report.to_dict()
    assert data["converged"] is True
    assert data["plan"]["seed"] == 11
    assert data["fault_log"]
    assert "CONVERGED" in report.summary()


def test_chaos_harness_with_passes_and_fingerprint_backend(tmp_path):
    report = run_chaos_campaign(
        _factory,
        str(tmp_path),
        CampaignConfig(
            timeout=0.25, state_backend="fingerprint", trace_derive=True
        ),
        seed=12,
        shard_count=2,
        hang_seconds=0.5,
        supervisor=ShardSupervisor(seed=12, backoff_base=0.01),
    )
    assert report.converged, report.summary()


def test_chaos_plan_coverage_is_asserted(tmp_path):
    # A plan aimed at a site that never fires must not "converge": the
    # harness demands every scheduled kind actually landed.
    plan = FaultPlan(
        seed=0, faults=[FaultSpec("no.such.site", "kill", after=0)]
    )
    report = run_chaos_campaign(
        _factory,
        str(tmp_path),
        seed=0,
        shard_count=2,
        plan=plan,
        supervisor=ShardSupervisor(seed=0, backoff_base=0.01),
    )
    assert report.identical  # nothing fired, so of course it matches
    assert report.missing_kinds == ["kill"]
    assert not report.converged
