"""The process-side kernel of the shard engine.

The campaign engine (:class:`repro.experiments.supervise.ShardSupervisor`)
profiles once in the parent and runs every shard of the plan in a forked
child process.  This module holds what those children, the shard runner
and the service's result cache share: :func:`run_point_with_timeout`
(one injection point under a ``SIGALRM`` budget, retried, then marked
``crashed``), :func:`_run_chunk` (a shard process's entry point, which
weaves the subject it inherited from the parent and ticks its progress
on the pipe the parent watches) and :func:`scan_jsonl` /
:func:`repair_jsonl_tail` (the one torn-tail tolerant JSONL reader).
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.core import InjectionCampaign, run_injection_point
from repro.core.runlog import RunRecord
from repro.resilience.chaos import fire as _fault_site

__all__ = [
    "JournalError",
    "run_point_with_timeout",
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
# One injection point under a per-run budget
# ---------------------------------------------------------------------------


class _RunTimeout(BaseException):
    """Raised by the SIGALRM handler when a run exceeds its budget.

    Derives from ``BaseException`` so application-level ``except
    Exception`` blocks inside the workload cannot swallow it.
    """


def _alarm_handler(signum, frame):
    raise _RunTimeout()


@contextlib.contextmanager
def _run_budget(seconds: Optional[float]):
    """Arm ``SIGALRM`` to fire after *seconds* for the ``with`` block."""
    if seconds is None:
        yield
        return
    previous = signal.signal(signal.SIGALRM, _alarm_handler)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def run_point_with_timeout(
    program,
    campaign: InjectionCampaign,
    point: int,
    *,
    timeout: Optional[float] = None,
    retries: int = 0,
) -> Tuple[RunRecord, Optional[str], int, bool]:
    """Execute one injection point under an optional wall-clock budget.

    Retries a timed-out run up to *retries* times, then marks the point
    crashed; returns ``(record, genuine_failure, attempts, crashed)``.
    The budget is ``SIGALRM``, which only the main thread of a process
    receives, so a timed call from another thread raises ``ValueError``.
    A shard process is its own main thread, whichever thread forked it.
    """
    if timeout is not None and (
        threading.current_thread() is not threading.main_thread()
    ):
        raise ValueError(
            "run_point_with_timeout(timeout=...) must run on the main "
            "thread of its process: the per-run budget is SIGALRM, which "
            "no other thread receives; run timed campaigns through the "
            "shard engine, whose shard processes run on their own main "
            "thread"
        )
    attempts = 0
    while True:
        attempts += 1
        try:
            with _run_budget(timeout):
                # Chaos seam: an armed hang fault sleeps here, inside
                # the run's budget, so "a run that stopped making
                # progress" exercises the timeout/retry path.
                _fault_site("run.exec")
                record, failure = run_injection_point(
                    program,
                    campaign,
                    point,
                    reraise=(_RunTimeout,),
                )
            return record, failure, attempts, False
        except _RunTimeout:
            # Drop the partial record the aborted run left in the log.
            runs = campaign.log.runs
            if runs and runs[-1].injection_point == point:
                runs.pop()
            if attempts > retries:
                return (
                    RunRecord(injection_point=point, crashed=True),
                    None,
                    attempts,
                    True,
                )


# ---------------------------------------------------------------------------
# A shard process's entry point
# ---------------------------------------------------------------------------


def _run_chunk(
    conn,
    program,
    shard_index: int,
    shard_count: int,
    fragment_path: str,
    profile,
    resume: bool,
    config: Dict[str, Any],
    tick_window: float,
) -> None:
    """Run one shard attempt in this (forked) process.

    *program* is the parent's, inherited through the fork: its classes
    were unwoven when the parent forked, and this process weaves its own
    copy-on-write copy of them.  Sends ``("tick", done)`` on *conn* for
    its first and last finished point, and in between for a finished
    point at least *tick_window* seconds after the last tick; then
    ``("done", ShardResult)`` or ``("error", reason)``.  A process that
    dies or is killed sends neither, and the parent reads its exit.
    """
    from .shard import run_shard

    ticked = float("-inf")

    def tick(done: int, total: int) -> None:
        nonlocal ticked
        now = time.monotonic()
        if done == total or now - ticked >= tick_window:
            conn.send(("tick", done))
            ticked = now

    try:
        result = run_shard(
            program,
            shard_index,
            shard_count,
            fragment_path,
            profile=profile,
            resume=resume,
            progress=tick,
            **config,
        )
    except BaseException as exc:  # WorkerKilled included: report, then exit
        conn.send(("error", f"{type(exc).__name__}: {exc}"))
    else:
        conn.send(("done", result))
    finally:
        conn.close()
