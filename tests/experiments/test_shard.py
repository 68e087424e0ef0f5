"""Tests for the shard-able campaign layer (``repro.experiments.shard``).

The contract under test:

* :func:`shard_points` is a stable, balanced, interleaved partition —
  every worker computes the same assignment from ``(plan,
  shard_count)`` alone;
* for **any** shard count, running every shard independently and
  merging the fragments yields a run log byte-identical to the
  sequential engine's, across state backends and the trace-derive
  pass — including shards that crashed mid-write and resumed from their
  own fragment, and fragments written before the static-prune and
  instrumentor options were retired;
* the coordinator merge validates before it trusts: mismatched
  headers name the differing keys, incomplete coverage names the shard
  to resume, diverged profiles are rejected outright.
"""

import json

import pytest

from repro.core import plan_points
from repro.core.runlog import log_json_without_provenance
from repro.experiments import (
    ShardError,
    merge_fragments,
    program_by_name,
    run_app_campaign,
    run_shard,
    shard_points,
)

APP = "LLMap"  # small, fast campaign with real marks and an error path


@pytest.fixture(scope="module")
def sequential():
    return run_app_campaign(program_by_name(APP))


def _run_all_shards(tmp_path, count, app=APP, **kwargs):
    paths = []
    for index in range(count):
        path = str(tmp_path / f"shard-{index}.jsonl")
        run_shard(program_by_name(app), index, count, path, **kwargs)
        paths.append(path)
    return paths


def _same_as_sequential(merged, sequential) -> None:
    assert merged.detection.total_points == sequential.detection.total_points
    assert (
        merged.detection.genuine_failures
        == sequential.detection.genuine_failures
    )
    assert merged.detection.log.to_json() == sequential.detection.log.to_json()
    assert (
        merged.classify().to_json() == sequential.classification.to_json()
    )


# ---------------------------------------------------------------------------
# the partition
# ---------------------------------------------------------------------------


def test_shard_points_partitions_exactly():
    points = plan_points(20)
    for count in range(1, len(points) + 3):
        shards = shard_points(points, count)
        assert len(shards) == count
        # covers the plan exactly once, each shard interleaved
        assert sorted(p for shard in shards for p in shard) == points
        assert shards == [points[i::count] for i in range(count)]
        # balanced to within one point
        sizes = [len(shard) for shard in shards]
        assert max(sizes) - min(sizes) <= 1
        # stable: recomputing gives the identical assignment
        assert shard_points(points, count) == shards


def test_shard_points_rejects_bad_count():
    with pytest.raises(ValueError, match="shard_count"):
        shard_points([1, 2, 3], 0)


def test_run_shard_validates_arguments(tmp_path):
    program = program_by_name(APP)
    path = str(tmp_path / "f.jsonl")
    with pytest.raises(ValueError, match="shard_index"):
        run_shard(program, 2, 2, path)
    with pytest.raises(ValueError, match="shard_count"):
        run_shard(program, 0, 0, path)
    with pytest.raises(ValueError, match="stride"):
        run_shard(program, 0, 1, path, stride=0)


# ---------------------------------------------------------------------------
# determinism: any shard count merges to the sequential result
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("count", [1, 2, 3, 5])
def test_merge_is_byte_identical_for_any_shard_count(
    sequential, tmp_path, count
):
    paths = _run_all_shards(tmp_path, count)
    merged = merge_fragments(paths)
    _same_as_sequential(merged, sequential)
    telemetry = merged.detection.telemetry
    assert telemetry.engine == "sharded"
    assert telemetry.workers == count
    assert telemetry.runs_executed == len(merged.detection.log.runs)


@pytest.mark.parametrize(
    "config",
    [
        {"state_backend": "fingerprint"},
        {"trace_derive": True},
        {"state_backend": "fingerprint", "trace_derive": True},
    ],
    ids=["fingerprint", "trace", "fingerprint+trace"],
)
def test_merge_identical_across_backends_and_passes(tmp_path, config):
    sequential = run_app_campaign(program_by_name(APP), **config)
    paths = _run_all_shards(tmp_path, 3, **config)
    merged = merge_fragments(paths)
    _same_as_sequential(merged, sequential)
    if config.get("trace_derive"):
        assert merged.detection.telemetry.runs_derived > 0


def test_more_shards_than_points_leaves_empty_fragments(tmp_path):
    """A shard count wider than the plan produces empty (but valid)
    fragments; the merge still reconstructs the sequential result."""
    sequential = run_app_campaign(program_by_name("Dynarray"), stride=5)
    count = len(sequential.detection.log.runs) + 8
    paths = []
    for index in range(count):
        path = str(tmp_path / f"shard-{index}.jsonl")
        result = run_shard(
            program_by_name("Dynarray"), index, count, path, stride=5
        )
        paths.append(path)
        assert result.executed == len(result.points)
    merged = merge_fragments(paths)
    _same_as_sequential(merged, sequential)


def test_classify_matches_policy_merge(tmp_path):
    """``MergedCampaign.classify`` applies the programmer-declared
    exception-free annotations recorded in the fragments, exactly like
    ``run_app_campaign`` does from the live woven specs."""
    sequential = run_app_campaign(program_by_name("LinkedBuffer"), stride=2)
    paths = _run_all_shards(tmp_path, 2, app="LinkedBuffer", stride=2)
    merged = merge_fragments(paths)
    assert (
        merged.classify().to_json() == sequential.classification.to_json()
    )


# ---------------------------------------------------------------------------
# crash + resume from a fragment
# ---------------------------------------------------------------------------


def _truncate_fragment(path: str, keep_runs: int, torn_bytes: int = 10) -> None:
    """Simulate a worker killed mid-write: keep header + profile +
    *keep_runs* complete run lines, then a torn partial line."""
    with open(path, "rb") as handle:
        raw_lines = handle.read().splitlines(keepends=True)
    kept = raw_lines[: 2 + keep_runs]
    torn = raw_lines[2 + keep_runs][:torn_bytes]
    with open(path, "wb") as handle:
        handle.writelines(kept)
        handle.write(torn)


@pytest.mark.parametrize("count", [2, 4])
def test_crashed_shard_resumes_from_fragment(sequential, tmp_path, count):
    paths = _run_all_shards(tmp_path, count)
    # shard 1 "crashed": torn tail after its first 3 completed points
    _truncate_fragment(paths[1], keep_runs=3)
    with pytest.raises(ShardError, match="shard 1 is missing point"):
        merge_fragments(paths)
    # resume re-runs only the lost points, then the merge converges
    result = run_shard(
        program_by_name(APP), 1, count, paths[1], resume=True
    )
    assert result.resumed == 3
    assert result.executed == len(result.points) - 3
    merged = merge_fragments(paths)
    _same_as_sequential(merged, sequential)


def test_fragment_resume_tolerates_truncation_at_every_byte(tmp_path):
    """A worker killed mid-``write`` tears the fragment at an arbitrary
    byte.  For **every** byte prefix, ``load_done`` must return exactly
    the fully-written run records, and must repair the file durably —
    after the load no partial line survives on disk, so the resume's
    appends never concatenate onto torn bytes."""
    from repro.experiments.shard import ShardFragment

    source = str(tmp_path / "full.jsonl")
    run_shard(program_by_name(APP), 0, 2, source, stride=4)
    data = open(source, "rb").read()
    # a run line is durably recorded once its closing brace is on disk
    # (the trailing newline is not needed to parse it)
    complete_at = {}
    offset = 0
    for line in data.splitlines(keepends=True):
        offset += len(line)
        record = json.loads(line)
        if record.get("kind") == "run":
            complete_at[offset - 1] = record["point"]

    torn = tmp_path / "torn.jsonl"
    for cut in range(len(data) + 1):
        torn.write_bytes(data[:cut])
        done = ShardFragment(str(torn)).load_done({"program": APP})
        expected = {p for end, p in complete_at.items() if cut >= end}
        assert set(done) == expected, f"cut at byte {cut}"
        repaired = torn.read_bytes()
        assert data.startswith(repaired)  # repair only ever truncates
        for survivor in repaired.splitlines():
            json.loads(survivor)  # durable: no partial line remains


def test_fragment_torn_mid_byte_resume_repairs_durably(
    sequential, tmp_path
):
    """End-to-end: a fragment torn *inside* its final record (not at a
    line boundary) resumes cleanly — the resume re-runs the lost point
    and appends onto the repaired tail, leaving a fully replayable
    fragment that merges bit-identical to the sequential engine."""
    paths = _run_all_shards(tmp_path, 2)
    data = open(paths[1], "rb").read()
    with open(paths[1], "wb") as handle:
        handle.write(data[:-9])  # mid-record, mid-line
    result = run_shard(
        program_by_name(APP), 1, 2, paths[1], resume=True
    )
    assert result.executed == 1  # exactly the torn record re-ran
    for line in open(paths[1], "rb").read().splitlines():
        json.loads(line)  # no concatenation corruption anywhere
    merged = merge_fragments(paths)
    _same_as_sequential(merged, sequential)


def _as_pre_retirement_fragment(path: str, keep_runs: int) -> int:
    """Rewrite a fresh fragment the way the engine wrote it while the
    static pass, the instrumentor option and the ``capture_args`` option
    existed: the header carries ``static_prune``/``instrumentor``/
    ``capture_args``, and every record the static pass
    could synthesize (escaped, all marks atomic) is journaled with
    ``attempts: 0`` and ``provenance: "static"``.  Only the first
    *keep_runs* run lines survive, as if the shard died there.  Returns
    how many static records were written."""
    with open(path, encoding="utf-8") as handle:
        header, profile, *runs = [json.loads(line) for line in handle]
    header.update(static_prune=True, instrumentor="weave", capture_args=True)
    static = 0
    for entry in runs[:keep_runs]:
        record = entry["record"]
        if record["escaped"] and all(
            mark["verdict"] == "atomic" for mark in record["marks"]
        ):
            entry["attempts"] = 0
            record["provenance"] = "static"
            static += 1
    with open(path, "w", encoding="utf-8") as handle:
        for entry in [header, profile] + runs[:keep_runs]:
            handle.write(json.dumps(entry, sort_keys=True) + "\n")
    return static


def test_pre_retirement_fragment_resumes_and_merges(sequential, tmp_path):
    paths = _run_all_shards(tmp_path, 3)
    static = _as_pre_retirement_fragment(paths[1], keep_runs=4)
    assert static > 0
    result = run_shard(program_by_name(APP), 1, 3, paths[1], resume=True)
    assert result.resumed == 4
    assert result.executed == len(result.points) - 4
    merged = merge_fragments(paths)
    assert log_json_without_provenance(merged.detection.log) == (
        log_json_without_provenance(sequential.detection.log)
    )
    provenance = [run.provenance for run in merged.detection.log.runs]
    assert provenance.count("static") == static
    assert merged.detection.telemetry.runs_derived == static
    assert (
        merged.classify().to_json() == sequential.classification.to_json()
    )


def test_resume_with_complete_fragment_executes_nothing(tmp_path):
    path = str(tmp_path / "frag.jsonl")
    run_shard(program_by_name(APP), 0, 2, path)
    result = run_shard(program_by_name(APP), 0, 2, path, resume=True)
    assert result.executed == 0
    assert result.resumed == len(result.points)


def test_shard_timeout_marks_crashed_and_resume_rescues(tmp_path):
    """A shard whose runs blow their budget journals crashed records;
    merging reports them (like the parallel engine), and a resume with
    a generous budget re-attempts exactly those points."""
    from repro.experiments.programs import AppProgram
    import time as _time

    class _Slow:
        def __init__(self):
            self.poked = 0

        def poke(self):
            self.poked += 1

    def _slow_body():
        _time.sleep(0.25)
        _Slow().poke()

    def make_program():
        return AppProgram(
            name="slowshard", language="Java", classes=[_Slow],
            body=_slow_body,
        )

    path = str(tmp_path / "slow.jsonl")
    result = run_shard(
        make_program(), 0, 1, path, timeout=0.05, retries=1
    )
    assert result.crashed == len(result.points)
    assert result.retries == len(result.points)
    merged = merge_fragments([path])
    assert merged.detection.telemetry.runs_crashed == result.crashed
    rescued = run_shard(
        make_program(), 0, 1, path, timeout=30.0, resume=True
    )
    assert rescued.resumed == 0  # crashed records are not "done"
    assert rescued.crashed == 0
    merged = merge_fragments([path])
    assert not any(run.crashed for run in merged.detection.log.runs)


# ---------------------------------------------------------------------------
# merge validation
# ---------------------------------------------------------------------------


def test_merge_rejects_empty_and_missing_fragments(tmp_path):
    with pytest.raises(ShardError, match="no fragments"):
        merge_fragments([])
    missing = str(tmp_path / "nope.jsonl")
    with pytest.raises(ShardError, match="does not exist"):
        merge_fragments([missing])
    empty = tmp_path / "empty.jsonl"
    empty.write_bytes(b"")
    with pytest.raises(ShardError, match="is empty"):
        merge_fragments([str(empty)])
    corrupt = tmp_path / "corrupt.jsonl"
    corrupt.write_bytes(b'{"kind": "head')
    with pytest.raises(ShardError, match="corrupt header"):
        merge_fragments([str(corrupt)])
    headerless = tmp_path / "headerless.jsonl"
    headerless.write_bytes(b'{"kind": "run", "point": 1}\n')
    with pytest.raises(ShardError, match="does not start with a header"):
        merge_fragments([str(headerless)])


def test_merge_names_differing_header_keys(tmp_path):
    paths = _run_all_shards(tmp_path, 2)
    other = str(tmp_path / "other.jsonl")
    run_shard(program_by_name(APP), 1, 2, other, stride=2)
    with pytest.raises(ShardError) as excinfo:
        merge_fragments([paths[0], other])
    message = str(excinfo.value)
    assert "different campaign" in message
    assert "stride=2 (expected 1)" in message


def test_merge_requires_full_shard_coverage(tmp_path):
    paths = _run_all_shards(tmp_path, 3)
    with pytest.raises(ShardError, match="exactly"):
        merge_fragments(paths[:2])  # missing shard 2
    with pytest.raises(ShardError, match="exactly"):
        merge_fragments(paths + [paths[0]])  # shard 0 twice


def test_merge_rejects_point_outside_assigned_range(tmp_path):
    paths = _run_all_shards(tmp_path, 2)
    lines = open(paths[1], encoding="utf-8").read().splitlines()
    stolen = json.loads(lines[-1])
    stolen["point"] = 1  # belongs to shard 0
    with open(paths[1], "a", encoding="utf-8") as handle:
        handle.write(json.dumps(stolen) + "\n")
    with pytest.raises(ShardError, match="outside its assigned range"):
        merge_fragments(paths)


def test_merge_rejects_diverged_profiles(tmp_path):
    paths = _run_all_shards(tmp_path, 2)
    lines = open(paths[1], encoding="utf-8").read().splitlines()
    profile = json.loads(lines[1])
    assert profile["kind"] == "profile"
    first_method = profile["log"]["methods_seen"][0]
    profile["log"]["call_counts"][first_method] += 1
    lines[1] = json.dumps(profile, sort_keys=True)
    with open(paths[1], "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    with pytest.raises(ShardError, match="not\\s+deterministic"):
        merge_fragments(paths)


def test_merge_rejects_fragment_without_profile(tmp_path):
    paths = _run_all_shards(tmp_path, 2)
    lines = open(paths[1], encoding="utf-8").read().splitlines()
    without = [l for l in lines if '"kind": "profile"' not in l]
    assert len(without) == len(lines) - 1
    with open(paths[1], "w", encoding="utf-8") as handle:
        handle.write("\n".join(without) + "\n")
    with pytest.raises(ShardError, match="missing their profile line"):
        merge_fragments(paths)
