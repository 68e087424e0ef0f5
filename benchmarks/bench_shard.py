"""Benchmark — shard-able campaign service: merge bit-identity + cache.

The shard layer (:mod:`repro.experiments.shard`) splits a campaign's
injection plan into deterministic interleaved shards (shard *i* of *n*
holds every *n*-th point from *i*); independent workers each write a
journal fragment and a coordinator merges them.  The whole
scheme is only useful if it is *invisible* in the output, so this
benchmark enforces the acceptance contract:

* running every shard independently and merging the fragments yields a
  run log and classification **bit-identical** to the sequential
  engine's — checked for 2 shards and for a wider split;
* shard work is balanced: executed runs split across shards to within
  one point (the near-linear-scaling precondition — a coordinator-free
  partition cannot speed anything up if one shard holds the sweep);
* the service result cache answers a repeat submission of the same
  program + config with **zero** additional subject executions
  (``runs_executed_total`` telemetry-verified).

Measurements (per-shard wall/runs, merge time, cache counters) go to
``BENCH_shard.json``.

Modes:

* full (default): LinkedList's full sweep, 4 shards.
* smoke (``REPRO_BENCH_SMOKE=1``, used by ``make bench-shard``): a
  strided Dynarray sweep, 2 shards; same assertions, seconds not
  minutes.
"""

from __future__ import annotations

import json
import os
import time

from repro.experiments import (
    merge_fragments,
    program_by_name,
    run_app_campaign,
    run_shard,
)
from repro.service import CampaignService

from conftest import emit

#: Smoke mode: tiny budget for CI sanity runs (make bench-shard).
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

REPORT_PATH = os.environ.get("REPRO_BENCH_SHARD_OUT", "BENCH_shard.json")

#: Subject the service-cache leg submits (the bit-identity leg uses a
#: registry application; this one exercises the exec'd-source path).
SERVICE_SOURCE = """
class Ledger:
    def __init__(self):
        self.balance = 0
        self.entries = []

    def credit(self, amount=1):
        self.balance = self.balance + amount
        self.entries = self.entries + [amount]

    def settle(self):
        self.entries = []
        self.balance = 0


def workload():
    ledger = Ledger()
    for _ in range(3):
        ledger.credit()
    ledger.settle()
"""


def _run_shards(program_name, count, directory, **config):
    paths, shard_rows = [], []
    for index in range(count):
        path = os.path.join(directory, f"shard-{index}.jsonl")
        result = run_shard(
            program_by_name(program_name), index, count, path, **config
        )
        paths.append(path)
        shard_rows.append(
            {
                "shard": index,
                "points": len(result.points),
                "executed": result.executed,
                "wall_seconds": result.wall_seconds,
            }
        )
    return paths, shard_rows


def bench_shard(benchmark, tmp_path_factory):
    if SMOKE:
        program_name, stride, wide = "Dynarray", 4, 3
    else:
        program_name, stride, wide = "LinkedList", 1, 4
    directory = str(tmp_path_factory.mktemp("fragments"))

    started = time.perf_counter()
    sequential = run_app_campaign(program_by_name(program_name), stride=stride)
    sequential_seconds = time.perf_counter() - started

    report = {
        "mode": "smoke" if SMOKE else "full",
        "program": program_name,
        "stride": stride,
        "sequential_seconds": sequential_seconds,
        "splits": [],
    }

    # -- merge bit-identity at 2 shards and at a wider split ------------
    for count in (2, wide):
        paths, shard_rows = _run_shards(
            program_name, count, directory, stride=stride
        )
        merge_started = time.perf_counter()
        merged = merge_fragments(paths)
        merge_seconds = time.perf_counter() - merge_started

        assert (
            merged.detection.log.to_json()
            == sequential.detection.log.to_json()
        ), f"{count}-shard merge diverged from the sequential sweep"
        assert (
            merged.classify().to_json()
            == sequential.classification.to_json()
        ), f"{count}-shard classification diverged"

        executed = [row["executed"] for row in shard_rows]
        assert sum(executed) == len(sequential.detection.log.runs)
        assert max(executed) - min(executed) <= 1, (
            f"shard work is unbalanced: {executed}"
        )
        report["splits"].append(
            {
                "shards": count,
                "merge_seconds": merge_seconds,
                "per_shard": shard_rows,
                "slowest_shard_seconds": max(
                    row["wall_seconds"] for row in shard_rows
                ),
            }
        )

    # -- result cache: repeat submission costs zero executions ----------
    service = CampaignService()
    service.submit(SERVICE_SOURCE, {"stride": 1}, name="ledger")
    record = service.process_one()
    assert record.status == "done"
    executed_total = service.runs_executed_total
    assert executed_total == record.result["runs_executed"] > 0

    hit, status = service.submit(SERVICE_SOURCE, {"stride": 1}, name="ledger")
    assert status == 200 and hit["cached"] is True
    assert hit["telemetry"]["result_cache_hits"] == 1
    assert service.runs_executed_total == executed_total, (
        "cache hit re-executed the subject"
    )
    assert hit["log"] == record.result["log"]
    report["result_cache"] = service.cache.stats()
    report["runs_executed_total"] = service.runs_executed_total

    with open(REPORT_PATH, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)

    splits = ", ".join(
        f"{s['shards']} shards (merge {s['merge_seconds'] * 1000:.1f}ms, "
        f"slowest shard {s['slowest_shard_seconds']:.2f}s)"
        for s in report["splits"]
    )
    emit(
        "Shard-able campaign service",
        f"program={program_name} stride={stride}: "
        f"{sequential.detection.total_points} injection points, "
        f"sequential {sequential_seconds:.2f}s\n"
        f"merges bit-identical at {splits}\n"
        f"result cache: repeat submission served with 0 extra "
        f"executions ({service.cache.stats()})",
    )
    benchmark.extra_info["report_path"] = REPORT_PATH
    benchmark.extra_info["sequential_seconds"] = sequential_seconds
    benchmark.extra_info["cache_hits"] = service.cache.hits

    # the benchmarked unit: one shard + coordinator merge, end to end
    def shard_and_merge():
        path = os.path.join(directory, "bench-unit.jsonl")
        run_shard(program_by_name("Dynarray"), 0, 1, path, stride=8)
        return merge_fragments([path])

    benchmark.pedantic(shard_and_merge, rounds=3, iterations=1)
