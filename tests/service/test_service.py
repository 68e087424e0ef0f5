"""Tests for the campaign service (``repro.service``).

The contract under test (see ``docs/GUIDE.md`` §"Campaign service"):

* campaign configs are canonicalized — defaults filled, values coerced,
  unknown keys rejected — before they reach the digest, so equivalent
  submissions share a cache entry;
* a repeat submission of the same source + config is answered from the
  result cache with **zero** subject executions (telemetry-verified);
* the queue is bounded: when it is full, submissions get an immediate
  503 instead of unbounded buffering;
* the HTTP front end speaks plain HTTP/1.1 with NDJSON progress
  streams, and the service's campaign result is bit-identical to
  running the same subject through ``run_app_campaign`` directly.
"""

import asyncio
import json
import linecache
import time

import pytest

from repro.core.virtualsource import unregister_virtual_source
from repro.experiments import run_app_campaign
from repro.resilience import FaultPlan, FaultSpec, arm
from repro.service import (
    CampaignService,
    ResultCache,
    ServiceServer,
    SubmissionError,
    build_subject,
    canonical_config,
    estimate_cost,
    submission_config,
    submission_digest,
)
from repro.service import server as server_module
from repro.service.subjects import subject_filename

SOURCE = """
class Box:
    def __init__(self):
        self.count = 0
        self.items = []

    def bump(self):
        self.count = self.count + 1
        self.items = self.items + [self.count]

    def drain(self):
        self.items = []
        self.count = 0


def workload():
    box = Box()
    for _ in range(3):
        box.bump()
    box.drain()
"""


# ---------------------------------------------------------------------------
# config canonicalization + digests
# ---------------------------------------------------------------------------


def test_canonical_config_fills_defaults():
    cfg = canonical_config(None)
    assert cfg["stride"] == 1
    assert cfg["state_backend"] == "graph"
    assert cfg["workers"] is None
    assert canonical_config({}) == cfg


def test_canonical_config_coerces_and_validates():
    cfg = canonical_config(
        {"stride": "2", "trace_derive": 1, "timeout": "5", "workers": 2}
    )
    assert cfg["stride"] == 2
    assert cfg["trace_derive"] is True
    assert cfg["timeout"] == 5.0
    for unknown in ({"bogus": 1}, {"static_prune": True},
                    {"instrumentor": "weave"}):
        with pytest.raises(SubmissionError, match="unknown config keys"):
            canonical_config(unknown)
    with pytest.raises(SubmissionError, match="stride"):
        canonical_config({"stride": 0})
    with pytest.raises(SubmissionError, match="workers"):
        canonical_config({"workers": 0})
    with pytest.raises(SubmissionError, match="bad config value"):
        canonical_config({"stride": "many"})
    with pytest.raises(SubmissionError):
        canonical_config({"state_backend": "quantum"})


def test_canonical_config_accepts_timeout_without_workers():
    # the supervisor enforces the per-run budget, so a timeout alone
    # runs the campaign on the shard engine
    cfg = canonical_config({"timeout": 5})
    assert cfg["timeout"] == 5.0
    assert cfg["workers"] is None


#: Canonical configs and cache keys of submissions the service accepted
#: before the run budget moved to the supervisor: a persisted result
#: cache keyed by them must stay valid.
PINNED_CONFIGS = [
    (
        None,
        '{"retries":1,"rounds":1,"state_backend":"graph","stride":1,'
        '"timeout":null,"trace_derive":false,"workers":null}',
        "c0ab50f2d325971b6f3a8794b4a4293b",
    ),
    (
        {"stride": "2", "trace_derive": 1, "timeout": "5", "workers": 2},
        '{"retries":1,"rounds":1,"state_backend":"graph","stride":2,'
        '"timeout":5.0,"trace_derive":true,"workers":2}',
        "25e871f7bee2d57ec18f477b1acb1d0f",
    ),
]


@pytest.mark.parametrize("config, canonical, digest", PINNED_CONFIGS)
def test_canonical_config_and_digest_are_pinned(config, canonical, digest):
    cfg = canonical_config(config)
    assert json.dumps(cfg, sort_keys=True, separators=(",", ":")) == canonical
    assert submission_digest(SOURCE, cfg) == digest


def test_canonical_config_refuses_the_undolog_backend():
    # undolog is a masking checkpoint strategy, not a detection backend
    with pytest.raises(SubmissionError, match=r"\(known: fingerprint, graph\)"):
        canonical_config({"state_backend": "undolog"})


def test_digest_is_canonical_and_content_sensitive():
    a = submission_digest(SOURCE, canonical_config({"stride": 2}))
    b = submission_digest(SOURCE, canonical_config({"stride": "2"}))
    assert a == b
    assert a != submission_digest(SOURCE, canonical_config({}))
    assert a != submission_digest(SOURCE + "#", canonical_config({"stride": 2}))
    assert len(a) == 32  # blake2b-128 hex


def test_result_cache_lru_and_counters():
    cache = ResultCache(capacity=2)
    assert cache.get("a") is None
    cache.put("a", {"v": 1})
    cache.put("b", {"v": 2})
    assert cache.get("a") == {"v": 1}  # refreshes a
    cache.put("c", {"v": 3})  # evicts b (least recently used)
    assert cache.peek("b") is None
    assert cache.peek("a") == {"v": 1}
    assert cache.stats() == {
        "entries": 2, "capacity": 2, "hits": 1, "misses": 1,
    }
    with pytest.raises(ValueError):
        ResultCache(capacity=0)


# ---------------------------------------------------------------------------
# subject compilation
# ---------------------------------------------------------------------------


@pytest.fixture
def build_box():
    """Builds ``SOURCE`` as "box" when called; its source is unregistered
    after the test, as the service's worker does once a campaign ends."""
    yield lambda: build_subject(SOURCE, "box")
    unregister_virtual_source(subject_filename(SOURCE, "box"))


def _service_sources():
    return {name for name in linecache.cache if name.startswith("<service:")}


def test_build_subject_compiles_classes_and_workload(build_box):
    program = build_box()
    assert program.name == "box"
    assert [cls.__name__ for cls in program.classes] == ["Box"]
    assert program.classes[0].__module__ == "repro_service_subject"
    assert subject_filename(SOURCE, "box") in _service_sources()
    program()  # the workload runs


def test_build_subject_rejects_bad_submissions():
    before = _service_sources()
    with pytest.raises(SubmissionError, match="does not compile"):
        build_subject("def workload(:\n", "x")
    with pytest.raises(SubmissionError, match="definition time"):
        build_subject("raise RuntimeError('boom')", "x")
    with pytest.raises(SubmissionError, match="workload"):
        build_subject("class A:\n    pass\n", "x")
    with pytest.raises(SubmissionError, match="no classes"):
        build_subject("def workload():\n    pass\n", "x")
    assert _service_sources() == before  # a failed build registers nothing


# ---------------------------------------------------------------------------
# the service core: queue, worker, cache
# ---------------------------------------------------------------------------


def test_submit_run_and_cache_hit_with_zero_executions():
    service = CampaignService(queue_size=4)
    payload, status = service.submit(SOURCE, {"stride": 1}, name="box")
    assert status == 202 and payload["status"] == "queued"

    record = service.process_one()
    assert record.status == "done"
    result = record.result
    assert result["runs_executed"] > 0
    assert result["telemetry"]["result_cache_misses"] == 1
    assert result["telemetry"]["result_cache_hits"] == 0
    executed_before = service.runs_executed_total
    assert executed_before == result["runs_executed"]

    # repeat submission: served from cache, zero subject executions
    hit, status = service.submit(SOURCE, {"stride": 1}, name="box")
    assert status == 200
    assert hit["cached"] is True
    assert hit["telemetry"]["result_cache_hits"] == 1
    assert hit["telemetry"]["result_cache_misses"] == 0
    assert service.runs_executed_total == executed_before
    assert service.process_one() is None  # nothing was enqueued
    assert hit["log"] == result["log"]
    assert service.cache.stats()["hits"] == 1

    # a different canonical config is a different campaign
    other, status = service.submit(SOURCE, {"stride": 2}, name="box")
    assert status == 202


def test_service_result_matches_direct_campaign(build_box):
    service = CampaignService()
    service.submit(SOURCE, {"state_backend": "fingerprint"}, name="box")
    record = service.process_one()
    direct = run_app_campaign(build_box(), state_backend="fingerprint")
    assert record.result["log"] == json.loads(direct.detection.log.to_json())
    assert record.result["classification"] == json.loads(
        direct.classification.to_json()
    )


def test_backpressure_returns_503():
    service = CampaignService(queue_size=1)
    _, status = service.submit(SOURCE, {}, name="a")
    assert status == 202
    payload, status = service.submit(SOURCE, {"stride": 2}, name="b")
    assert status == 503
    assert "queue" in payload["error"]
    # draining frees the slot
    service.process_one()
    _, status = service.submit(SOURCE, {"stride": 2}, name="b")
    assert status == 202


def test_invalid_submissions_raise_before_enqueueing():
    service = CampaignService(queue_size=1)
    with pytest.raises(SubmissionError):
        service.submit("", {}, name="empty")
    with pytest.raises(SubmissionError):
        service.submit(SOURCE, {"bogus": True}, name="box")
    with pytest.raises(SubmissionError, match="does not compile"):
        service.submit("def workload(:\n", {}, name="broken")
    assert service.queue.qsize() == 0


@pytest.mark.parametrize(
    "source, message",
    [
        ("class A:\n    pass\n", "workload"),
        ("raise RuntimeError('boom')\n", "definition time"),
        ("def workload():\n    pass\n", "no classes"),
    ],
    ids=["no-workload", "raises", "no-classes"],
)
def test_definition_time_errors_fail_the_campaign_uncached(source, message):
    """Submission only compiles the source; executing it is the
    campaign's job, so a subject that breaks there is a failed
    campaign, not a 400, and the failure is not cached."""
    service = CampaignService()
    _, status = service.submit(source, {}, name="broken")
    assert status == 202
    record = service.process_one()
    assert record.status == "failed"
    assert message in record.error
    assert record.events[-1] == {
        "id": record.id, "event": "failed", "error": record.error,
    }
    assert service.cache.stats()["entries"] == 0
    _, status = service.submit(source, {}, name="broken")
    assert status == 202


def test_subject_is_built_once_per_miss_and_never_on_a_hit(monkeypatch):
    builds = []

    def counting_build(source, name):
        builds.append(name)
        return build_subject(source, name)

    monkeypatch.setattr(server_module, "build_subject", counting_build)
    service = CampaignService()
    service.submit(SOURCE, {"workers": 2}, name="box")
    assert builds == []  # submission compiles, it does not execute
    assert service.process_one().status == "done"
    assert builds == ["box"]  # shard processes inherit the one build
    _, status = service.submit(SOURCE, {"workers": 2}, name="box")
    assert status == 200
    assert builds == ["box"]


def test_campaigns_leave_no_subject_source_behind():
    """The worker builds each missed subject in the server process; its
    registered source goes when the campaign ends, done or failed, so a
    long-running server keeps none of the sources it has run."""
    before = _service_sources()
    service = CampaignService(queue_size=8)
    submissions = [
        (SOURCE, {}, "box"),
        (SOURCE.replace("range(3)", "range(2)"), {}, "box"),
        (SOURCE, {"workers": 2}, "pooled"),
        ("raise RuntimeError('boom')\n", {}, "broken"),
    ]
    for source, config, name in submissions:
        _, status = service.submit(source, config, name=name)
        assert status == 202
    records = [service.process_one() for _ in submissions]
    assert [record.status for record in records] == [
        "done", "done", "done", "failed",
    ]
    assert _service_sources() == before


def test_failed_campaign_is_reported_not_cached():
    source = (
        "class Flaky:\n"
        "    def __init__(self):\n"
        "        self.x = 0\n"
        "\n"
        "def workload():\n"
        "    raise RuntimeError('workload exploded')\n"
    )
    service = CampaignService()
    _, status = service.submit(source, {}, name="flaky")
    assert status == 202
    record = service.process_one()
    assert record.status == "failed"
    assert "workload exploded" in record.error
    assert record.events[-1]["event"] == "failed"
    # a failure is not cached: resubmission queues a fresh attempt
    _, status = service.submit(source, {}, name="flaky")
    assert status == 202


#: A subject whose fault-free run returns, but whose ``except`` handler
#: spins forever once an injected exception reaches it.
SPINNER = """
class Spinner:
    def __init__(self):
        self.turns = 0

    def turn(self):
        self.turns = self.turns + 1


def workload():
    spinner = Spinner()
    try:
        spinner.turn()
    except Exception:
        while True:
            pass
"""


def test_run_budget_without_workers_ends_a_spinning_campaign():
    """With only a ``timeout``, the campaign runs on the shard engine,
    whose supervisor kills every run that spins: the campaign ends
    ``done`` with those runs crashed, and the service takes the next
    submission."""
    service = CampaignService()
    _, status = service.submit(SPINNER, {"timeout": 0.2}, name="spinner")
    assert status == 202
    started = time.monotonic()
    record = service.process_one()
    assert time.monotonic() - started < 30.0
    assert record.status == "done", record.error
    crashed = [run["crashed"] for run in record.result["log"]["runs"]]
    assert any(crashed) and not all(crashed)
    assert record.result["telemetry"]["runs_crashed"] == sum(crashed)
    service.submit(SOURCE, {}, name="box")
    assert service.process_one().status == "done"


def test_events_trace_the_campaign_lifecycle():
    service = CampaignService()
    service.submit(SOURCE, {}, name="box")
    record = service.process_one()
    kinds = [event["event"] for event in record.events]
    assert kinds[0] == "queued"
    assert kinds[1] == "started"
    assert kinds[-1] == "completed"
    progress = [e for e in record.events if e["event"] == "progress"]
    assert progress
    assert progress[-1]["runs_done"] == progress[-1]["runs_total"]


# ---------------------------------------------------------------------------
# the HTTP layer
# ---------------------------------------------------------------------------


async def _request(port, method, path, body=None):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    data = b"" if body is None else json.dumps(body).encode("utf-8")
    writer.write(
        (
            f"{method} {path} HTTP/1.1\r\nHost: test\r\n"
            f"Content-Length: {len(data)}\r\n\r\n"
        ).encode("latin-1")
        + data
    )
    await writer.drain()
    raw = await reader.read()
    writer.close()
    head, _, payload = raw.partition(b"\r\n\r\n")
    return int(head.split()[1]), payload


def test_http_end_to_end():
    async def scenario():
        server = ServiceServer(queue_size=4)
        port = await server.start()
        try:
            body = {"source": SOURCE, "config": {}, "name": "box"}
            status, payload = await _request(port, "POST", "/campaigns", body)
            assert status == 202
            submitted = json.loads(payload)

            # the NDJSON stream runs to the terminal event and closes
            status, stream = await _request(
                port, "GET", f"/campaigns/{submitted['id']}/events"
            )
            assert status == 200
            events = [
                json.loads(line)
                for line in stream.splitlines()
                if line.strip()
            ]
            assert events[0]["event"] == "queued"
            assert events[-1]["event"] == "completed"

            status, payload = await _request(
                port, "GET", f"/campaigns/{submitted['id']}"
            )
            done = json.loads(payload)
            assert status == 200 and done["status"] == "done"
            assert done["result"]["runs_executed"] > 0

            status, payload = await _request(port, "GET", "/stats")
            stats = json.loads(payload)
            executed = stats["runs_executed_total"]
            assert executed == done["result"]["runs_executed"]

            # repeat submission: 200 from cache, counter unchanged
            status, payload = await _request(port, "POST", "/campaigns", body)
            hit = json.loads(payload)
            assert status == 200 and hit["cached"] is True
            status, payload = await _request(port, "GET", "/stats")
            assert json.loads(payload)["runs_executed_total"] == executed

            # error paths
            status, _ = await _request(
                port, "POST", "/campaigns",
                {"source": SOURCE, "config": {"bogus": 1}},
            )
            assert status == 400
            status, _ = await _request(port, "GET", "/campaigns/ghost")
            assert status == 404
            status, _ = await _request(port, "GET", "/nothing")
            assert status == 404
            status, _ = await _request(port, "DELETE", "/stats")
            assert status == 405
        finally:
            await server.stop()

    asyncio.run(scenario())


# ---------------------------------------------------------------------------
# cost estimation + load shedding
# ---------------------------------------------------------------------------


def test_estimate_cost_scales_with_statements_rounds_and_stride():
    base = estimate_cost(SOURCE, submission_config({}))
    assert base == 6  # two statements in each of __init__/bump/drain
    assert estimate_cost(SOURCE, submission_config({"rounds": 2})) == 2 * base
    assert estimate_cost(SOURCE, submission_config({"stride": 4})) == base // 4
    assert estimate_cost("def broken(:\n", submission_config({})) == 1
    assert estimate_cost("def workload():\n    pass\n", submission_config({})) == 1


def test_service_validates_shedding_configuration():
    with pytest.raises(ValueError, match="policy"):
        CampaignService(policy="coin-flip")
    with pytest.raises(ValueError, match="max_pending_cost"):
        CampaignService(policy="cost-aware")
    with pytest.raises(ValueError, match="max_pending_cost"):
        CampaignService(policy="cost-aware", max_pending_cost=0)


def test_shed_oldest_policy_drops_the_oldest_queued_campaign():
    service = CampaignService(queue_size=1, policy="shed-oldest")
    old, status = service.submit(SOURCE, {}, name="old")
    assert status == 202
    new, status = service.submit(SOURCE, {"stride": 2}, name="new")
    assert status == 202  # admitted by evicting the older submission

    victim = service.campaigns[old["id"]]
    assert victim.status == "shed"
    assert victim.events[-1]["event"] == "shed"
    assert "shed" in victim.error
    assert service.shed_total == 1

    record = service.process_one()
    assert record.id == new["id"] and record.status == "done"
    assert service.process_one() is None  # the victim never runs


def test_cost_aware_policy_bounds_pending_work():
    cost = estimate_cost(SOURCE, submission_config({}))
    service = CampaignService(
        queue_size=8, policy="cost-aware", max_pending_cost=cost + 1
    )
    _, status = service.submit(SOURCE, {}, name="first")
    assert status == 202  # an idle service admits any single campaign
    payload, status = service.submit(SOURCE, {"stride": 2}, name="second")
    assert status == 503
    assert "budget" in payload["error"]
    assert payload["retry_after"] >= 1
    assert service.stats()["pending_cost"] == cost

    service.process_one()  # draining releases the budget
    assert service.stats()["pending_cost"] == 0
    _, status = service.submit(SOURCE, {"stride": 2}, name="second")
    assert status == 202


@pytest.mark.parametrize("policy", ["reject", "shed-oldest"])
def test_only_cost_aware_admission_estimates_cost(policy, monkeypatch):
    def no_estimate(source, config):
        raise AssertionError("estimate_cost ran under " + policy)

    monkeypatch.setattr(server_module, "estimate_cost", no_estimate)
    service = CampaignService(policy=policy)
    _, status = service.submit(SOURCE, {}, name="box")
    assert status == 202
    assert "pending_cost" not in service.stats()
    assert service.process_one().status == "done"


def test_drain_stops_admission_but_serves_cache_hits():
    service = CampaignService()
    service.submit(SOURCE, {}, name="box")
    service.process_one()
    service.begin_drain()
    payload, status = service.submit(SOURCE, {"stride": 2}, name="box")
    assert status == 503 and payload["draining"] is True
    hit, status = service.submit(SOURCE, {}, name="box")
    assert status == 200 and hit["cached"] is True
    assert service.stats()["draining"] is True


# ---------------------------------------------------------------------------
# persistent result cache
# ---------------------------------------------------------------------------


def test_result_cache_persists_across_instances(tmp_path):
    path = str(tmp_path / "results.jsonl")
    first = ResultCache(capacity=4, path=path)
    first.put("aa", {"v": 1})
    first.put("bb", {"v": 2})
    first.put("aa", {"v": 3})  # re-put: the later journal line wins
    assert not first.is_persisted("aa")  # computed here, not replayed

    second = ResultCache(capacity=4, path=path)
    assert second.peek("aa") == {"v": 3}
    assert second.peek("bb") == {"v": 2}
    assert second.is_persisted("aa") and second.is_persisted("bb")
    assert second.get("aa") == {"v": 3}
    stats = second.stats()
    assert stats["persisted_entries"] == 2
    assert stats["persist_hits"] == 1
    assert stats["persist_errors"] == 0

    # capacity applies to the replay too (oldest journal entries fall out)
    tiny = ResultCache(capacity=1, path=path)
    assert tiny.peek("bb") is None and tiny.peek("aa") == {"v": 3}


def test_result_cache_repairs_torn_journal_tail(tmp_path):
    path = str(tmp_path / "results.jsonl")
    cache = ResultCache(path=path)
    cache.put("aa", {"v": 1})
    cache.put("bb", {"v": 2})
    intact = (tmp_path / "results.jsonl").stat().st_size
    with open(path, "ab") as handle:  # a crash mid-append: torn tail
        handle.write(b'{"kind": "entry", "digest": "cc", "payl')

    replayed = ResultCache(path=path)
    assert replayed.peek("aa") == {"v": 1}
    assert replayed.peek("bb") == {"v": 2}
    assert replayed.peek("cc") is None  # the torn line is dropped...
    assert (tmp_path / "results.jsonl").stat().st_size == intact  # ...durably

    replayed.put("cc", {"v": 3})  # and the next append starts cleanly
    third = ResultCache(path=path)
    assert third.peek("cc") == {"v": 3}
    assert len(third) == 3


def test_result_cache_degrades_to_memory_on_persist_failure(tmp_path):
    path = str(tmp_path / "no-such-dir" / "results.jsonl")
    cache = ResultCache(path=path)
    cache.put("aa", {"v": 1})  # the append fails; the entry survives
    assert cache.get("aa") == {"v": 1}
    assert cache.stats()["persist_errors"] == 1

    # same degradation under an injected chaos fault
    good = ResultCache(path=str(tmp_path / "results.jsonl"))
    plan = FaultPlan(faults=[FaultSpec("cache.persist", "ioerror")])
    with arm(plan):
        good.put("bb", {"v": 2})
    assert good.get("bb") == {"v": 2}
    assert good.stats()["persist_errors"] == 1
    good.put("cc", {"v": 3})  # fault exhausted: persistence resumes
    assert ResultCache(path=good.path).peek("cc") == {"v": 3}
    assert ResultCache(path=good.path).peek("bb") is None  # never journaled


def test_http_backpressure_503():
    async def scenario():
        # no worker: the queue cannot drain, so it fills deterministically
        service = CampaignService(queue_size=1)
        server = ServiceServer(service)
        server._server = await asyncio.start_server(
            server._handle, "127.0.0.1", 0
        )
        port = server._server.sockets[0].getsockname()[1]
        try:
            body = {"source": SOURCE, "config": {}, "name": "box"}
            status, _ = await _request(port, "POST", "/campaigns", body)
            assert status == 202
            body["config"] = {"stride": 2}
            status, payload = await _request(port, "POST", "/campaigns", body)
            assert status == 503
            assert "queue" in json.loads(payload)["error"]
        finally:
            server._server.close()
            await server._server.wait_closed()

    asyncio.run(scenario())


async def _raw_request(port, raw):
    """Send raw bytes; return ``(status, headers dict, body bytes)``."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(raw)
    await writer.drain()
    response = await reader.read()
    writer.close()
    head, _, body = response.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return int(lines[0].split()[1]), headers, body


async def _listener_only(server):
    """Bind the HTTP layer without the worker (the queue never drains)."""
    server._server = await asyncio.start_server(
        server._handle, "127.0.0.1", 0
    )
    return server._server.sockets[0].getsockname()[1]


def test_http_body_bounds_411_413_400():
    async def scenario():
        server = ServiceServer(CampaignService(), max_body_bytes=64)
        port = await _listener_only(server)
        try:
            # POST without Content-Length: 411
            status, _, body = await _raw_request(
                port, b"POST /campaigns HTTP/1.1\r\nHost: t\r\n\r\n"
            )
            assert status == 411
            assert b"Content-Length" in body

            # declared length over the bound: 413 before any body is read
            status, _, body = await _raw_request(
                port,
                b"POST /campaigns HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: 100000\r\n\r\n",
            )
            assert status == 413
            assert b"64-byte limit" in body

            # unparseable / negative lengths: 400
            for bogus in (b"abc", b"-5"):
                status, _, _ = await _raw_request(
                    port,
                    b"POST /campaigns HTTP/1.1\r\nHost: t\r\n"
                    b"Content-Length: " + bogus + b"\r\n\r\n",
                )
                assert status == 400

            # GET needs no Content-Length
            status, _, _ = await _raw_request(
                port, b"GET /stats HTTP/1.1\r\nHost: t\r\n\r\n"
            )
            assert status == 200
        finally:
            server._server.close()
            await server._server.wait_closed()

    asyncio.run(scenario())


def test_http_undolog_backend_is_400():
    async def scenario():
        server = ServiceServer(CampaignService())
        port = await _listener_only(server)
        try:
            status, payload = await _request(
                port, "POST", "/campaigns",
                {"source": SOURCE, "config": {"state_backend": "undolog"}},
            )
            assert status == 400
            assert b"known: fingerprint, graph" in payload
        finally:
            server._server.close()
            await server._server.wait_closed()

    asyncio.run(scenario())


#: Config values the service used to mis-coerce: a flag spelled
#: ``"false"`` read as true, a NaN budget (JSON's ``NaN`` or the string)
#: that got every polled run killed, a fractional stride truncated.
MISCOERCED_CONFIGS = [
    ({"trace_derive": "false"}, b"trace_derive must be a boolean"),
    ({"timeout": float("nan")}, b"timeout must be > 0 and finite"),
    ({"timeout": "nan"}, b"timeout must be > 0 and finite"),
    ({"stride": 2.9}, b"stride must be an integer"),
]


@pytest.mark.parametrize(
    "config, message",
    MISCOERCED_CONFIGS,
    ids=["flag-string", "nan-timeout", "nan-string-timeout", "fractional-stride"],
)
def test_http_miscoerced_config_is_400(config, message):
    async def scenario():
        server = ServiceServer(CampaignService())
        port = await _listener_only(server)
        try:
            status, payload = await _request(
                port, "POST", "/campaigns", {"source": SOURCE, "config": config}
            )
            assert status == 400
            assert message in payload
        finally:
            server._server.close()
            await server._server.wait_closed()

    asyncio.run(scenario())


@pytest.mark.parametrize(
    "config",
    [[1, 2], "stride", {"timeout": 10**400}],
    ids=["list", "string", "timeout-beyond-float"],
)
def test_http_config_that_is_no_object_or_overflows_is_400(config):
    async def scenario():
        server = ServiceServer(CampaignService())
        port = await _listener_only(server)
        try:
            status, _ = await _request(
                port, "POST", "/campaigns", {"source": SOURCE, "config": config}
            )
            assert status == 400
        finally:
            server._server.close()
            await server._server.wait_closed()

    asyncio.run(scenario())


def test_http_503_carries_retry_after_header():
    async def scenario():
        server = ServiceServer(CampaignService(queue_size=1))
        port = await _listener_only(server)
        try:
            body = json.dumps(
                {"source": SOURCE, "config": {}, "name": "box"}
            ).encode("utf-8")
            request = (
                b"POST /campaigns HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: %d\r\n\r\n" % len(body) + body
            )
            status, _, _ = await _raw_request(port, request)
            assert status == 202
            body2 = json.dumps(
                {"source": SOURCE, "config": {"stride": 2}, "name": "box"}
            ).encode("utf-8")
            status, headers, payload = await _raw_request(
                port,
                b"POST /campaigns HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: %d\r\n\r\n" % len(body2) + body2,
            )
            assert status == 503
            assert int(headers["retry-after"]) >= 1
            assert json.loads(payload)["retry_after"] == int(
                headers["retry-after"]
            )
        finally:
            server._server.close()
            await server._server.wait_closed()

    asyncio.run(scenario())


def test_http_graceful_shutdown_drains_in_flight_campaigns():
    async def scenario():
        server = ServiceServer(queue_size=4)
        port = await server.start()
        body = {"source": SOURCE, "config": {}, "name": "box"}
        status, payload = await _request(port, "POST", "/campaigns", body)
        assert status == 202
        submitted = json.loads(payload)

        shutdown = asyncio.ensure_future(server.shutdown())
        await asyncio.sleep(0)  # let the drain flag land
        assert server.service.draining

        # new work is refused while draining (if the listener is still
        # up — the in-flight campaign may finish, and the listener
        # close, at any moment; a connection caught in that teardown
        # gets no response at all, hence the timeout guard)
        try:
            status, payload = await asyncio.wait_for(
                _request(
                    port, "POST", "/campaigns",
                    {"source": SOURCE, "config": {"stride": 2}, "name": "box"},
                ),
                timeout=5.0,
            )
            assert status == 503
            assert json.loads(payload)["draining"] is True
        except (ConnectionError, asyncio.TimeoutError, OSError):
            pass
        await shutdown

        # the queued campaign ran to its terminal event before the stop
        record = server.service.campaigns[submitted["id"]]
        assert record.status == "done"
        assert record.events[-1]["event"] == "completed"
        # cache hits are still served during (and after) a drain
        hit, status = server.service.submit(SOURCE, {}, name="box")
        assert status == 200 and hit["cached"] is True

    asyncio.run(scenario())


def test_http_client_disconnect_mid_stream_leaves_service_healthy():
    async def scenario():
        server = ServiceServer(queue_size=4)
        port = await server.start()
        try:
            body = {"source": SOURCE, "config": {}, "name": "box"}
            status, payload = await _request(port, "POST", "/campaigns", body)
            assert status == 202
            cid = json.loads(payload)["id"]

            # subscribe, read the head + first event, vanish mid-stream
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(
                f"GET /campaigns/{cid}/events HTTP/1.1\r\n"
                f"Host: t\r\n\r\n".encode("latin-1")
            )
            await writer.drain()
            while (await reader.readline()).strip():
                pass  # response head
            first = await reader.readline()
            assert json.loads(first)["event"] == "queued"
            writer.transport.abort()  # RST, not a polite FIN

            # the campaign still completes and the server still serves
            status, payload = await _request(port, "GET", f"/campaigns/{cid}")
            done = json.loads(payload)
            while done["status"] not in ("done", "failed"):
                await asyncio.sleep(0.05)
                status, payload = await _request(
                    port, "GET", f"/campaigns/{cid}"
                )
                done = json.loads(payload)
            assert done["status"] == "done"

            # same story with the *injected* disconnect: the chaos fault
            # severs the first stream write server-side
            plan = FaultPlan(
                faults=[FaultSpec("stream.write", "disconnect")]
            )
            with arm(plan) as injector:
                status, payload = await _request(
                    port, "GET", f"/campaigns/{cid}/events"
                )
                assert injector.faults_injected == 1
            assert status == 200  # head was sent before the fault
            assert payload == b""  # then the connection died

            # fault exhausted: the next subscriber gets the full stream
            status, stream = await _request(
                port, "GET", f"/campaigns/{cid}/events"
            )
            events = [
                json.loads(line)
                for line in stream.splitlines()
                if line.strip()
            ]
            assert events[-1]["event"] == "completed"
        finally:
            await server.stop()

    asyncio.run(scenario())


def test_http_persistent_cache_survives_server_recreation(tmp_path):
    cache_path = str(tmp_path / "results.jsonl")
    body = {"source": SOURCE, "config": {}, "name": "box"}

    async def first_life():
        server = ServiceServer(queue_size=4, cache_path=cache_path)
        port = await server.start()
        try:
            status, payload = await _request(port, "POST", "/campaigns", body)
            assert status == 202
            cid = json.loads(payload)["id"]
            # stream to the terminal event => the result is journaled
            status, stream = await _request(
                port, "GET", f"/campaigns/{cid}/events"
            )
            assert stream.splitlines()
            status, payload = await _request(port, "GET", f"/campaigns/{cid}")
            done = json.loads(payload)
            assert done["status"] == "done"
            return done["result"]
        finally:
            await server.stop()

    async def second_life():
        # a brand-new server process state: only the journal survives
        server = ServiceServer(queue_size=4, cache_path=cache_path)
        port = await server.start()
        try:
            status, payload = await _request(port, "POST", "/campaigns", body)
            hit = json.loads(payload)
            assert status == 200 and hit["cached"] is True
            assert hit["telemetry"]["result_cache_hits"] == 1
            assert hit["telemetry"]["cache_persist_hits"] == 1
            status, payload = await _request(port, "GET", "/stats")
            stats = json.loads(payload)
            assert stats["runs_executed_total"] == 0
            assert stats["result_cache"]["persisted_entries"] == 1
            assert stats["result_cache"]["persist_hits"] == 1
            return hit
        finally:
            await server.stop()

    result = asyncio.run(first_life())
    assert result["runs_executed"] > 0
    hit = asyncio.run(second_life())
    assert hit["log"] == result["log"]
    assert hit["classification"] == result["classification"]
