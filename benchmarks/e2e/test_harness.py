"""Self-tests of the benchmark harness (not of the program it measures).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import asyncio
import copy
import json
import multiprocessing
import os
import re
import signal
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import compare  # noqa: E402
import golden  # noqa: E402
import metrics  # noqa: E402
import serve_mixed  # noqa: E402
import stats  # noqa: E402
import trace  # noqa: E402
import yardstick  # noqa: E402
from loadgen import HttpClient, open_loop  # noqa: E402


def _busy(cpu_seconds: float) -> None:
    until = time.process_time() + cpu_seconds
    while time.process_time() < until:
        pass


def test_percentile_with_too_few_samples_beyond_is_insufficient():
    hundred = [float(x) for x in range(1, 101)]
    p95 = stats.percentile(hundred, 95)
    assert (p95.value, p95.beyond) == (95.0, 5)
    assert not p95.sufficient
    assert p95.describe("ms").startswith("insufficient (p95 of n=100, 5 beyond)")
    p90 = stats.percentile(hundred, 90)
    assert p90.sufficient and p90.describe("ms").startswith("90.0000 ms")
    assert stats.percentile([float(x) for x in range(200)], 95).sufficient


def test_latency_is_timed_from_when_the_request_was_due():
    """A stall on the first request delays the second, which was due
    50 ms later and waited for the only connection: its latency counts
    that wait although the server answered it at once."""
    stall = 0.3

    async def scenario():
        served = []

        async def handle(reader, writer):
            while (await reader.readline()) not in (b"\r\n", b""):
                pass
            if not served:
                await asyncio.sleep(stall)
            served.append(writer)
            body = b'{"ok": true}'
            writer.write(b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n"
                         b"Connection: close\r\n\r\n%s" % (len(body), body))
            await writer.drain()
            writer.close()

        server = await asyncio.start_server(handle, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        client = HttpClient("127.0.0.1", port, connections=1)
        try:
            return await open_loop(
                [(0.0, "first"), (0.05, "second")],
                lambda item: client.request("GET", "/"),
            )
        finally:
            server.close()
            await server.wait_closed()

    first, second = asyncio.run(scenario())
    assert first.result == (200, {"ok": True})
    assert first.latency >= stall
    assert second.lateness < 0.03  # the generator itself was on time
    assert second.latency >= stall - 0.05 - 0.01  # waited behind the stall


def test_planted_wrong_golden_digest_is_caught():
    from repro.experiments import program_by_name, run_app_campaign

    outcome = run_app_campaign(program_by_name("LLMap"))
    expected = golden.load()
    kwargs = dict(points=outcome.detection.total_points,
                  classification=outcome.classification, log=outcome.detection.log)
    assert golden.check(expected, "LLMap", 1, **kwargs) == []

    planted = copy.deepcopy(expected)
    planted["campaigns"]["LLMap@1"]["classification"] = "0" * 32
    problems = golden.check(planted, "LLMap", 1, **kwargs)
    assert len(problems) == 1 and "classification" in problems[0]

    planted = copy.deepcopy(expected)
    planted["campaigns"]["LLMap@1"]["log"] = "f" * 32
    assert any("log" in p for p in golden.check(planted, "LLMap", 1, **kwargs))


def test_traced_spans_carry_their_parent_ids():
    tracer = trace.Tracer()
    inner = tracer.wrap(lambda: None, trace.Patch("m", "f", "inner"))
    with tracer.span("outer"):
        inner()
        inner()
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
    (outer,) = by_name["outer"]
    assert outer.parent is None
    assert [s.parent for s in by_name["inner"]] == [outer.id, outer.id]

    exported = trace.chrome_trace(tracer.spans, {os.getpid(): "test"})
    events = [e for e in exported["traceEvents"] if e["ph"] == "X"]
    assert {e["args"].get("parent") for e in events if e["name"] == "inner"} == {
        f"{outer.pid}:{outer.id}"
    }
    json.dumps(exported)  # plain JSON, as Perfetto reads it


def test_patches_install_where_looked_up_and_uninstall_cleanly():
    original = stats.quartiles
    tracer = trace.Tracer()
    applied = tracer.install([trace.Patch("stats", "quartiles", "quartiles"),
                              trace.Patch("stats", "no_such_function", "x")])
    assert applied == 1 and tracer.missing == ["stats.no_such_function"]
    assert stats.quartiles([3.0, 1.0, 2.0])[1] == 2.0
    tracer.uninstall()
    assert stats.quartiles is original
    assert [s.name for s in tracer.spans] == ["quartiles"]


def test_thread_spans_are_adopted_by_the_span_that_spawned_them():
    tracer = trace.Tracer()

    def shard():
        with tracer.span("shard.run"):
            pass

    with tracer.span("supervise.run"):
        worker = threading.Thread(target=shard)
        worker.start()
        worker.join(timeout=10)
    assert not worker.is_alive()
    spans = {s.name: s for s in tracer.spans}
    assert spans["shard.run"].parent is None
    trace.adopt_orphans(tracer.spans)
    assert spans["shard.run"].parent == spans["supervise.run"].id


def test_speed_averages_the_samples_inside_an_interval_or_the_nearest():
    ref = yardstick.REFERENCE_S
    samples = [(1.0, ref), (2.0, 2 * ref), (3.0, 2 * ref), (4.0, 2 * ref), (10.0, ref)]
    assert yardstick.speed(samples, 1.5, 4.5) == 0.5
    # only one sample inside: the three nearest the middle count
    assert yardstick.speed(samples, 9.0, 11.0) == (1.0 + 0.5 + 0.5) / 3


def test_sampler_samples_while_busy_and_goes_quiet_when_stopped():
    sampler = yardstick.Sampler(interval=0.01)
    sampler.start()
    try:
        _busy(0.1)
    finally:
        sampler.stop()
    taken = len(sampler.samples)
    assert taken >= 3 and all(y > 0 for _, y in sampler.samples)
    assert signal.getsignal(signal.SIGPROF) == signal.SIG_IGN
    _busy(0.05)
    assert len(sampler.samples) == taken


def test_forked_worker_spools_its_speed_samples(tmp_path):
    """A pool worker's samples reach the parent like its spans do."""
    sampler = yardstick.Sampler(interval=0.01)
    tracer = trace.Tracer(spool_dir=str(tmp_path), sampler=sampler)
    work = tracer.wrap(_busy, trace.Patch("m", "f", "chunk", worker_entry=True))
    sampler.start()
    try:
        child = multiprocessing.get_context("fork").Process(target=work, args=(0.1,))
        child.start()
        child.join(timeout=30)
    finally:
        sampler.stop()
    assert child.exitcode == 0
    own = len(sampler.samples)
    tracer.collect_spool()
    (span,) = tracer.spans
    assert span.pid == child.pid
    spooled = sampler.samples[own:]
    assert len(spooled) >= 3 and all(span.start <= t <= span.end for t, _ in spooled)


def test_stratified_point_count_matches_the_oracle():
    from repro.fuzz import ProgramSpec, generate_program, simulate

    for index in range(40):
        base = generate_program(11, index)
        for k in (1, 3):
            spec = ProgramSpec(base.name, base.classes, base.workload * k)
            assert serve_mixed.count_points(spec) == simulate(spec).total_points


def test_submitted_subject_matches_the_oracle():
    """The serve-mixed source rendering keeps the fuzz oracle's verdicts."""
    from repro.experiments import run_app_campaign
    from repro.service.subjects import build_subject

    stream = serve_mixed.SubjectStream(serve_mixed.CORPUS_SEED)
    for k, points in ((1, 5), (4, 13)):
        subject = stream.draw(k, points)
        outcome = run_app_campaign(build_subject(subject.source, subject.name))
        got = {key: mc.category for key, mc in outcome.classification.methods.items()}
        assert outcome.detection.total_points == points
        assert got == subject.expected


def test_paired_rule_verdicts():
    flat = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0]
    faster = [x * 0.8 for x in flat]
    slower = [x * 1.3 for x in flat]
    assert compare.verdict("campaign_wall_s", flat, faster)["verdict"] == "gain"
    assert compare.verdict("campaign_wall_s", flat, slower)["verdict"] == "REGRESSION"
    assert compare.verdict("campaign_wall_s", flat, flat)["verdict"] == "within bound"
    noisy = [5.0, 15.0, 8.0, 12.0, 6.0, 14.0, 9.0, 11.0, 7.0, 13.0]
    assert compare.verdict("campaign_wall_s", noisy, flat)["verdict"] == "unresolved"


def test_benchmark_json_is_generated_from_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        committed = json.load(handle)
    assert committed == metrics.benchmark_json()
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
    names = [w["name"] for w in committed["workloads"]]
    names += [m["name"] for m in committed["end_to_end"] + committed["per_layer"]]
    assert len(names) == len(set(names)) and all(name.match(n) for n in names)
    assert all(len(w["why"]) <= 200 for w in committed["workloads"])
    bounds = {m["name"]: m["bound"] for m in committed["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    for m in committed["end_to_end"] + committed["per_layer"]:
        assert unit.match(m["unit"]) and m["better"] in ("lower", "higher")
