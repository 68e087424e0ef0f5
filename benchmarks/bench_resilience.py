"""Benchmark — chaos resilience: supervised convergence + cache restarts.

The robustness layer's acceptance contract, enforced end to end:

* under a seeded :func:`~repro.resilience.chaos.standard_plan` (at
  least one worker kill mid-fragment, one torn journal append, one
  injected IO error, one hung run, all fired inside the shard
  processes), the supervised campaign — interleaved shards, one killable
  child process each (:class:`~repro.experiments.supervise.ShardSupervisor`) — converges
  within its bounded retry budget to a result **bit-identical** to the
  fault-free sequential engine's — run log and classification JSON —
  across state backends and the trace-derive pass;
* every scheduled fault kind actually fired (a chaos harness whose
  faults never land tests nothing);
* a :class:`~repro.service.server.CampaignService` built on a
  *persistent* result cache answers a repeat submission after a full
  service teardown/recreate with ``result_cache_hits == 1``,
  ``cache_persist_hits == 1`` and **zero** subject executions.

Measurements (per-config convergence wall/retries/faults, cache restart
counters) go to ``BENCH_resilience.json``; a diverged config also dumps
its full chaos report next to it as a reproducer.

Modes:

* full (default): LinkedList campaigns across four configs, two seeds.
* smoke (``REPRO_BENCH_SMOKE=1``, used by ``make bench-resilience``):
  LLMap across two configs, one seed; same assertions, seconds.
"""

from __future__ import annotations

import json
import os
import time

from repro.experiments import program_by_name, run_chaos_campaign
from repro.experiments.supervise import ShardSupervisor
from repro.service import CampaignService

from conftest import emit

#: Smoke mode: tiny budget for CI sanity runs (make bench-resilience).
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

REPORT_PATH = os.environ.get(
    "REPRO_BENCH_RESILIENCE_OUT", "BENCH_resilience.json"
)

#: Subject for the persistent-cache restart leg (exec'd-source path).
SERVICE_SOURCE = """
class Meter:
    def __init__(self):
        self.total = 0
        self.samples = []

    def record(self, value=2):
        self.samples = self.samples + [value]
        self.total = self.total + value

    def reset(self):
        self.samples = []
        self.total = 0


def workload():
    meter = Meter()
    for _ in range(3):
        meter.record()
    meter.reset()
"""

#: The backend x pass grid the convergence oracle sweeps.
CONFIGS = [
    {},
    {"state_backend": "fingerprint"},
    {"trace_derive": True},
    {"state_backend": "fingerprint", "trace_derive": True},
]


def bench_resilience(benchmark, tmp_path_factory):
    if SMOKE:
        program_name, seeds, configs = "LLMap", (20260808,), CONFIGS[:2]
    else:
        program_name, seeds, configs = "LinkedList", (20260808, 7), CONFIGS

    report = {
        "mode": "smoke" if SMOKE else "full",
        "program": program_name,
        "convergence": [],
    }

    # -- chaos convergence across the config grid -----------------------
    for seed in seeds:
        for config in configs:
            workdir = str(
                tmp_path_factory.mktemp(f"chaos-{seed}-{len(report['convergence'])}")
            )
            chaos = run_chaos_campaign(
                lambda: program_by_name(program_name),
                workdir,
                seed=seed,
                shard_count=3,
                supervisor=ShardSupervisor(seed=seed),
                hang_seconds=0.6,
                **config,
            )
            row = {
                "seed": seed,
                "config": config,
                "converged": chaos.converged,
                "identical": chaos.identical,
                "faults_injected": chaos.faults_injected,
                "faults_by_kind": chaos.faults_by_kind,
                "shard_retries": chaos.shard_retries,
                "attempts_per_shard": chaos.attempts_per_shard,
                "wall_seconds": chaos.wall_seconds,
            }
            report["convergence"].append(row)
            if not chaos.converged:
                # Leave the reproducer (seeded plan + fault log) behind
                # for the CI artifact upload before failing the gate.
                reproducer = REPORT_PATH.replace(
                    ".json", f"_reproducer_seed{seed}.json"
                )
                with open(reproducer, "w", encoding="utf-8") as handle:
                    json.dump(
                        chaos.to_dict(), handle, indent=2, sort_keys=True
                    )
            assert chaos.identical, (
                f"seed={seed} config={config}: supervised merged result "
                f"diverged from the fault-free sequential engine "
                f"({chaos.error or chaos.failures})"
            )
            assert not chaos.missing_kinds, (
                f"seed={seed} config={config}: scheduled fault kind(s) "
                f"never fired: {chaos.missing_kinds}"
            )
            assert chaos.converged
            assert chaos.faults_injected >= 4  # kill, torn, ioerror, hang
            assert chaos.shard_retries >= 1, (
                "no shard ever retried — the faults were not disruptive"
            )

    # -- persistent cache: a *restarted* service answers from disk ------
    cache_dir = tmp_path_factory.mktemp("cache")
    cache_path = str(cache_dir / "results.jsonl")

    first = CampaignService(cache_path=cache_path)
    payload, status = first.submit(SERVICE_SOURCE, {"stride": 1}, name="meter")
    assert status == 202
    record = first.process_one()
    assert record.status == "done"
    executed_first = first.runs_executed_total
    assert executed_first > 0
    del first  # the only state that survives is the journal on disk

    restarted = CampaignService(cache_path=cache_path)
    hit, status = restarted.submit(
        SERVICE_SOURCE, {"stride": 1}, name="meter"
    )
    assert status == 200 and hit["cached"] is True
    assert hit["telemetry"]["result_cache_hits"] == 1
    assert hit["telemetry"]["cache_persist_hits"] == 1
    assert restarted.runs_executed_total == 0, (
        "restarted service re-executed a cached campaign"
    )
    assert hit["log"] == record.result["log"]
    report["cache_restart"] = {
        "first_runs_executed": executed_first,
        "restarted_runs_executed": restarted.runs_executed_total,
        "restarted_cache": restarted.cache.stats(),
    }

    with open(REPORT_PATH, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)

    total_faults = sum(r["faults_injected"] for r in report["convergence"])
    total_retries = sum(r["shard_retries"] for r in report["convergence"])
    emit(
        "Chaos resilience",
        f"program={program_name}: {len(report['convergence'])} seeded "
        f"chaos campaign(s), {total_faults} fault(s) injected, "
        f"{total_retries} shard retr{'y' if total_retries == 1 else 'ies'} "
        f"— every merged result bit-identical to the fault-free engine\n"
        f"persistent cache: restarted service served the repeat with "
        f"0 executions ({restarted.cache.stats()})",
    )
    benchmark.extra_info["report_path"] = REPORT_PATH
    benchmark.extra_info["faults_injected"] = total_faults
    benchmark.extra_info["shard_retries"] = total_retries

    # the benchmarked unit: one fault-free supervised campaign, end to
    # end (supervision overhead, not chaos, is what this times)
    def supervised_unit():
        workdir = str(
            tmp_path_factory.mktemp(f"unit-{time.monotonic_ns()}")
        )
        supervisor = ShardSupervisor(seed=0)
        return supervisor.run(
            lambda: program_by_name("Dynarray"), 2, workdir, stride=8
        )

    benchmark.pedantic(supervised_unit, rounds=3, iterations=1)
