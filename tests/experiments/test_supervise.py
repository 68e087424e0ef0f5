"""Tests for shard supervision (``repro.experiments.supervise``).

The contract under test:

* a supervised sharded campaign with no faults armed is just the shard
  layer with bookkeeping — merged bit-identical to the sequential
  engine, zero retries;
* under an armed fault plan (worker kills at a line boundary, torn
  journal tails, injected IO errors, hung runs) the supervisor retries
  with resume until every fragment is complete — and the merged result
  is **still** bit-identical to the fault-free engine;
* a worker whose heartbeat goes stale is killed (async exception) and
  the retry converges;
* the attempt budget is enforced (:class:`SupervisorError` carries
  every attempt's failure reason), and backoff is capped exponential
  with seeded, reproducible jitter.
"""

import pytest

from repro.experiments import (
    program_by_name,
    run_app_campaign,
    run_chaos_campaign,
)
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


def test_supervised_run_without_faults_matches_sequential(
    sequential, tmp_path
):
    supervisor = ShardSupervisor(seed=1)
    supervised = supervisor.run(_factory, 3, str(tmp_path))
    _assert_identical(supervised.merged, sequential)
    assert supervised.shard_retries == 0
    assert [o.attempts for o in supervised.outcomes] == [1, 1, 1]
    telemetry = supervised.merged.detection.telemetry
    assert telemetry.engine == "supervised"
    assert telemetry.shard_retries == 0
    assert telemetry.faults_injected == 0


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
    # journaled crashed; the supervisor must notice and re-run it.
    plan = FaultPlan(
        faults=[FaultSpec("run.exec", "hang", after=1, count=2, seconds=5.0)]
    )
    supervisor = ShardSupervisor(seed=3, backoff_base=0.01)
    with arm(plan):
        supervised = supervisor.run(
            _factory, 2, str(tmp_path), timeout=0.2, retries=1
        )
    _assert_identical(supervised.merged, sequential)
    assert supervised.shard_retries == 1
    assert any(
        "crashed point" in f
        for o in supervised.outcomes
        for f in o.failures
    )


def test_stale_heartbeat_kills_worker_and_retry_converges(
    sequential, tmp_path
):
    # The hang fires *outside* the per-run watchdog (at the journal
    # seam), so only the supervisor's heartbeat can catch it.
    plan = FaultPlan(
        faults=[FaultSpec("journal.appended", "hang", after=2, seconds=30.0)]
    )
    supervisor = ShardSupervisor(
        seed=4, backoff_base=0.01, heartbeat_timeout=0.3, kill_grace=5.0
    )
    with arm(plan):
        supervised = supervisor.run(_factory, 2, str(tmp_path))
    _assert_identical(supervised.merged, sequential)
    assert supervised.shard_retries == 1
    assert any(
        "hung" in f for o in supervised.outcomes for f in o.failures
    )


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
        seed=12,
        shard_count=2,
        hang_seconds=0.5,
        state_backend="fingerprint",
        trace_derive=True,
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
