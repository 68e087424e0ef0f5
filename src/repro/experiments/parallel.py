"""The process-side kernel of the shard engine.

The campaign engine (:class:`repro.experiments.supervise.ShardSupervisor`)
profiles once in the parent and runs every shard of the plan in a forked
child process.  This module holds what those children, the shard runner
and the service's result cache share: the progress slot a shard process
writes and the supervisor reads (:func:`enter_step`), one injection run
of a shard (:func:`run_point`), :func:`_run_chunk` (a shard process's
entry point, which weaves the subject it inherited from the parent) and
:func:`scan_jsonl` / :func:`repair_jsonl_tail` (the one torn-tail
tolerant JSONL reader).
"""

from __future__ import annotations

import json
import math
import os
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.core import InjectionCampaign, run_injection_point
from repro.core.runlog import RunRecord
from repro.resilience.chaos import fire as _fault_site

__all__ = [
    "JournalError",
    "enter_step",
    "run_point",
    "scan_jsonl",
    "repair_jsonl_tail",
]


class JournalError(ValueError):
    """Raised when a campaign journal cannot be used for a resume."""


# ---------------------------------------------------------------------------
# Crash-safe JSONL machinery (shard fragments and the persistent result cache)
# ---------------------------------------------------------------------------


def scan_jsonl(data: bytes) -> Tuple[List[Dict[str, Any]], int]:
    """Leniently parse append-only JSONL that may end in a torn write.

    Returns ``(entries, valid_end)``: every fully-written dict line in
    order, and the byte offset :func:`repair_jsonl_tail` truncates the
    file back to.  Scanned as bytes, because a worker killed inside
    ``write(2)`` can tear a line inside a multi-byte UTF-8 sequence.
    """
    entries: List[Dict[str, Any]] = []
    valid_end = 0
    for raw, kept in zip(data.splitlines(), data.splitlines(keepends=True)):
        if not raw.strip():
            valid_end += len(kept)
            continue
        try:
            entry = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            break  # torn tail: everything before it still counts
        if not isinstance(entry, dict):
            break  # a torn tail can decode to a bare JSON scalar
        entries.append(entry)
        valid_end += len(kept)
    return entries, valid_end


def repair_jsonl_tail(path: str, data: bytes, valid_end: int) -> None:
    """Durably drop a torn JSONL tail so subsequent appends stay clean:
    truncate *path* to *valid_end*, or restore a missing final newline,
    and fsync the repair.  A clean file is left untouched."""
    if valid_end < len(data):
        with open(path, "rb+") as handle:
            handle.truncate(valid_end)
            os.fsync(handle.fileno())
    elif data and not data.endswith(b"\n"):
        with open(path, "ab") as handle:
            handle.write(b"\n")
            handle.flush()
            os.fsync(handle.fileno())


# ---------------------------------------------------------------------------
# The progress slot a shard process writes and its parent reads
# ---------------------------------------------------------------------------

#: Indices of a shard process's progress slot: three doubles in shared
#: memory that the child writes with plain stores and the supervisor
#: reads at every poll.
SLOT_DONE, SLOT_STEP, SLOT_STARTED = range(3)

#: Step ids of the slot: setup (weave, resume), the run of point P (P
#: itself, so every run step is > 0), journaling point P (-P), close.
STEP_SETUP = 0.0
STEP_CLOSE = -math.inf


def enter_step(slot, step: float) -> None:
    """Record in *slot* that the process starts *step* now.

    The start time is stored before the step id.  The parent reads the
    id, then the time, then the id again, and trusts the pair only when
    both ids agree: the time is then this step's start or a later one,
    so a read that crosses a step change delays a kill by one poll and
    never causes one.  ``time.monotonic()`` is one clock for every
    process of the machine.
    """
    slot[SLOT_STARTED] = time.monotonic()
    slot[SLOT_STEP] = step


def run_point(
    program, campaign: InjectionCampaign, point: int
) -> Tuple[RunRecord, Optional[str]]:
    """One injection run of a shard: ``(record, genuine_failure)``.

    The chaos seam ``run.exec`` comes first, so an armed hang is a run
    that never returns.  ``run_injection_point`` is looked up here at
    every call, so a wrapper on this module's name sees every shard run.
    """
    _fault_site("run.exec")
    return run_injection_point(program, campaign, point)


# ---------------------------------------------------------------------------
# A shard process's entry point
# ---------------------------------------------------------------------------


def _run_chunk(
    conn, slot, program, shard_index, shard_count, fragment_path, config,
    profile, resume, tries, crashed,
) -> None:
    """Run one shard process in this (forked) process.

    *program* is the parent's, inherited through the fork: its classes
    were unwoven when the parent forked, and this process weaves its own
    copy-on-write copy of them.  The rest is :func:`run_shard`'s.
    Writes its progress to *slot*, and sends one message on *conn*:
    ``("done", ShardResult)`` or ``("error", reason)``.  A process that
    dies or is killed sends neither, and the parent reads its exit.
    """
    from .shard import run_shard

    try:
        result = run_shard(
            program, shard_index, shard_count, fragment_path, config,
            resume=resume, profile=profile, slot=slot, tries=tries,
            crashed=crashed,
        )
    except BaseException as exc:  # WorkerKilled included: report, then exit
        conn.send(("error", f"{type(exc).__name__}: {exc}"))
    else:
        conn.send(("done", result))
    finally:
        conn.close()
