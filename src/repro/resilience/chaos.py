"""Seeded fault injection for the campaign infrastructure itself.

The paper's whole premise is that recovery code is the least-tested
part of a system — and our own distributed campaign layer (shard
fragments, per-run budgets, shard-process kills, the service queue) is
exactly that kind of code.  This module turns the recovery paths into
*tested* paths: production code declares named **fault sites** at its
seams (one :func:`fire` call each), and a test or the ``repro chaos``
harness arms a seeded :class:`FaultPlan` that makes chosen invocations
of those seams fail deterministically.

Design constraints:

* **zero cost unarmed** — :func:`fire` is a module-global ``None``
  check when no plan is armed;
* **deterministic** — a plan is a literal schedule (site, kind, skip
  count, repeat count), counted across forked shard processes in shared
  memory; :func:`standard_plan` derives one from a seed, so ``repro
  chaos --seed N`` reproduces the same fault sequence on every machine;
* **dependency-free** — nothing here imports the rest of ``repro``, so
  the shard journal, the per-run kernel and the service can all declare
  sites without import cycles.

Fault kinds and the seams they are meant for:

========== ===================== =======================================
kind       typical site          effect
========== ===================== =======================================
ioerror    ``journal.append``,   raise ``OSError`` (EIO/ENOSPC) before
           ``cache.persist``     the write happens
kill       ``journal.appended``  raise :class:`WorkerKilled` after a
                                 complete line — worker dies at a line
                                 boundary, mid-fragment
torn       ``journal.appended``  truncate the file mid-line, then raise
                                 :class:`WorkerKilled` — worker died
                                 inside ``write(2)``
hang       ``run.exec``,         sleep past the run's budget (or,
           ``journal.appended``  outside a run, past the heartbeat):
                                 the supervisor kills the process
disconnect ``stream.write``      raise ``ConnectionResetError`` — the
                                 subscriber vanished mid-stream
========== ===================== =======================================
"""

from __future__ import annotations

import collections
import errno
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

__all__ = [
    "FAULT_KINDS",
    "WorkerKilled",
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
    "arm",
    "fire",
    "active_injector",
    "standard_plan",
]

#: Every fault kind a plan may schedule.
FAULT_KINDS = ("ioerror", "kill", "torn", "hang", "disconnect")


class WorkerKilled(BaseException):
    """A simulated worker death (SIGKILL mid-fragment).

    Derives from ``BaseException`` so application-level ``except
    Exception`` blocks — the very handlers this project studies —
    cannot swallow it: it unwinds out of ``run_shard`` exactly like a
    real process death leaves a partial fragment behind.
    """


@dataclass
class FaultSpec:
    """One scheduled fault: fire at a chosen invocation of one site.

    Attributes:
        site: fault-site name the spec matches (e.g. ``journal.append``).
        kind: one of :data:`FAULT_KINDS`.
        after: matching invocations to let pass unharmed first.
        count: consecutive invocations to fail once triggered (1 =
            one-shot; the fault is exhausted afterwards, so a bounded
            retry always converges).
        seconds: total sleep for ``hang`` faults.
        errno_code: the ``errno`` for ``ioerror`` faults (EIO default).
        torn_bytes: bytes to cut from the file tail for ``torn`` faults.
    """

    site: str
    kind: str
    after: int = 0
    count: int = 1
    seconds: float = 1.0
    errno_code: int = errno.EIO
    torn_bytes: int = 7

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r} (known: {FAULT_KINDS})"
            )
        if self.after < 0 or self.count < 1:
            raise ValueError("after must be >= 0 and count >= 1")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "site": self.site,
            "kind": self.kind,
            "after": self.after,
            "count": self.count,
            "seconds": self.seconds,
            "errno": self.errno_code,
            "torn_bytes": self.torn_bytes,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultSpec":
        return cls(
            site=str(data["site"]),
            kind=str(data["kind"]),
            after=int(data.get("after", 0)),
            count=int(data.get("count", 1)),
            seconds=float(data.get("seconds", 1.0)),
            errno_code=int(data.get("errno", errno.EIO)),
            torn_bytes=int(data.get("torn_bytes", 7)),
        )


@dataclass
class FaultPlan:
    """A deterministic schedule of faults (the reproducer artifact)."""

    seed: Optional[int] = None
    faults: List[FaultSpec] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "faults": [spec.to_dict() for spec in self.faults],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultPlan":
        return cls(
            seed=data.get("seed"),
            faults=[FaultSpec.from_dict(f) for f in data.get("faults", ())],
        )

    def kinds(self) -> List[str]:
        return sorted({spec.kind for spec in self.faults})


class FaultInjector:
    """The armed runtime state of one :class:`FaultPlan`.

    Safe across threads *and* forked processes: every claim counter lives
    in shared memory behind one process-shared lock, so the parent sees
    what its shard processes fired and a one-shot fault fires once
    however many processes reach it.  Counters survive disarming, so the
    harness can assert coverage afterwards.
    """

    def __init__(self, plan: FaultPlan) -> None:
        # Imported here, not at module load: every ``import repro`` loads
        # this module, and only an armed plan needs shared memory.
        import multiprocessing

        self.plan = plan
        self._sites = sorted({spec.site for spec in plan.faults})
        capacity = sum(spec.count for spec in plan.faults)
        self._lock = multiprocessing.Lock()
        self._fired = multiprocessing.RawArray("q", len(plan.faults) or 1)
        self._seen = multiprocessing.RawArray("q", len(self._sites) or 1)
        # The fire log: (spec index, site invocation) pairs, in order.
        self._log = multiprocessing.RawArray("q", 2 * capacity or 1)
        self._logged = multiprocessing.RawValue("q", 0)

    # -- counters (read from the shared arrays) -----------------------

    @property
    def faults_injected(self) -> int:
        return self._logged.value

    @property
    def site_invocations(self) -> Dict[str, int]:
        """Invocations so far of every site the plan schedules."""
        return {site: self._seen[i] for i, site in enumerate(self._sites)}

    @property
    def log(self) -> List[Dict[str, Any]]:
        """Every fault fired, in order: site, kind, and invocation."""
        fired = [
            (self.plan.faults[self._log[2 * n]], self._log[2 * n + 1])
            for n in range(self._logged.value)
        ]
        return [
            {"site": spec.site, "kind": spec.kind, "invocation": seen}
            for spec, seen in fired
        ]

    @property
    def injected_by_kind(self) -> Dict[str, int]:
        return dict(collections.Counter(entry["kind"] for entry in self.log))

    # -- bookkeeping -------------------------------------------------

    def _claim(self, site: str) -> Optional[FaultSpec]:
        """Record one invocation of *site*; return the spec to execute,
        if any.  The claim is atomic so concurrent callers never fire
        the same one-shot fault twice."""
        if site not in self._sites:
            return None
        slot = self._sites.index(site)
        with self._lock:
            seen = self._seen[slot]
            self._seen[slot] = seen + 1
            for index, spec in enumerate(self.plan.faults):
                if spec.site != site:
                    continue
                if self._fired[index] >= spec.count:
                    continue  # exhausted: retries run clean
                if seen < spec.after:
                    continue
                self._fired[index] += 1
                n = self._logged.value
                self._log[2 * n] = index
                self._log[2 * n + 1] = seen
                self._logged.value = n + 1
                return spec
            return None

    # -- effects -----------------------------------------------------

    def fire(self, site: str, path: Optional[str] = None) -> None:
        """Fail this invocation of *site* if the plan schedules it."""
        spec = self._claim(site)
        if spec is None:
            return
        if spec.kind == "ioerror":
            raise OSError(
                spec.errno_code,
                f"injected fault at {site}"
                + (f" ({path})" if path else ""),
            )
        if spec.kind == "torn":
            if path is not None:
                self._tear_tail(path, spec.torn_bytes)
            raise WorkerKilled(f"injected torn write at {site}")
        if spec.kind == "kill":
            raise WorkerKilled(f"injected worker kill at {site}")
        if spec.kind == "hang":
            # Short slices, not one long sleep, so an exception raised
            # by a signal handler or posted to the thread ends the hang
            # at the next bytecode boundary.
            deadline = time.monotonic() + spec.seconds
            while time.monotonic() < deadline:
                time.sleep(0.02)
            return
        if spec.kind == "disconnect":
            raise ConnectionResetError(f"injected disconnect at {site}")

    @staticmethod
    def _tear_tail(path: str, torn_bytes: int) -> None:
        """Cut the last *torn_bytes* bytes off *path* — the on-disk
        state a worker killed inside ``write(2)`` leaves behind."""
        try:
            with open(path, "rb+") as handle:
                handle.seek(0, 2)
                size = handle.tell()
                handle.truncate(max(0, size - torn_bytes))
        except OSError:
            pass  # nothing durable to tear

    def coverage(self) -> Dict[str, int]:
        """Faults that actually fired, by kind (for convergence reports)."""
        return self.injected_by_kind


#: The armed injector; ``None`` means every fault site is a no-op.
_INJECTOR: Optional[FaultInjector] = None
_ARM_LOCK = threading.Lock()


def fire(site: str, path: Optional[str] = None) -> None:
    """Production-side fault site: no-op unless a plan is armed."""
    injector = _INJECTOR
    if injector is not None:
        injector.fire(site, path)


def active_injector() -> Optional[FaultInjector]:
    return _INJECTOR


class _Arming:
    """Context manager returned by :func:`arm`."""

    def __init__(self, injector: FaultInjector) -> None:
        self.injector = injector

    def __enter__(self) -> FaultInjector:
        global _INJECTOR
        with _ARM_LOCK:
            if _INJECTOR is not None:
                raise RuntimeError("a fault plan is already armed")
            _INJECTOR = self.injector
        return self.injector

    def __exit__(self, exc_type, exc, tb) -> None:
        global _INJECTOR
        with _ARM_LOCK:
            _INJECTOR = None


def arm(plan: FaultPlan) -> _Arming:
    """Arm *plan* for the duration of a ``with`` block::

        with arm(plan) as injector:
            ... run the campaign under faults ...
        assert injector.faults_injected > 0
    """
    return _Arming(FaultInjector(plan))


def standard_plan(
    seed: int,
    *,
    hang_seconds: float = 1.0,
    run_hangs: int = 2,
) -> FaultPlan:
    """The seeded plan ``repro chaos`` arms: one of each required kind.

    Covers the acceptance envelope — ≥1 worker kill mid-fragment, ≥1
    torn append, ≥1 injected IO error, ≥1 hung run — with offsets drawn
    from ``random.Random(seed)`` so different seeds kill different
    points but the same seed always kills the same ones.  ``run_hangs``
    defaults to 2 consecutive hangs so a single-retry budget marks the
    point crashed (exercising the crashed-record resume path), not just
    retried.
    """
    rng = random.Random(seed)
    return FaultPlan(
        seed=seed,
        faults=[
            FaultSpec("journal.appended", "kill", after=rng.randint(0, 2)),
            FaultSpec(
                "journal.appended",
                "torn",
                after=rng.randint(4, 6),
                torn_bytes=rng.randint(3, 24),
            ),
            FaultSpec(
                "journal.append",
                "ioerror",
                after=rng.randint(8, 10),
                errno_code=rng.choice((errno.EIO, errno.ENOSPC)),
            ),
            FaultSpec(
                "run.exec",
                "hang",
                after=rng.randint(0, 3),
                count=run_hangs,
                seconds=hang_seconds,
            ),
        ],
    )
