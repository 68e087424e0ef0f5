"""Structured logs of injection runs.

The paper's injection wrappers write the results of online atomicity
checks to log files, which are processed offline to classify each method
(Section 5.1, Step 3).  This module is those log files: every execution of
the injector program produces one :class:`RunRecord` holding the ordered
sequence of :class:`Mark` entries emitted while the injected exception
propagated from callee to caller.

Mark order within a run is significant: a *pure* failure non-atomic method
is one that is the **first** to be marked non-atomic in some run
(Definition 3 / Section 4.3), because exceptions propagate from callee to
caller and each wrapper marks its method before re-throwing.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

__all__ = [
    "MethodKey",
    "Mark",
    "RunRecord",
    "RunLog",
    "merge_logs",
    "log_json_without_provenance",
    "ATOMIC",
    "NONATOMIC",
]

#: Verdicts recorded by the injection wrapper for a single call.
ATOMIC = "atomic"
NONATOMIC = "nonatomic"

#: A method is identified by ``"ClassName.method"`` (or ``"module.func"``
#: for free functions), mirroring the paper's per-method bookkeeping.
MethodKey = str


@dataclass(frozen=True)
class Mark:
    """One atomicity verdict emitted by an injection wrapper.

    Attributes:
        method: the wrapped method the verdict is about.
        verdict: :data:`ATOMIC` or :data:`NONATOMIC` for this call.
        sequence: position of the mark within its run (propagation order).
        difference: human-readable description of the first object-graph
            difference (non-atomic marks only).
    """

    method: MethodKey
    verdict: str
    sequence: int
    difference: Optional[str] = None

    @property
    def is_nonatomic(self) -> bool:
        return self.verdict == NONATOMIC


@dataclass
class RunRecord:
    """Everything observed during one execution of the injector program."""

    injection_point: int
    injected_method: Optional[MethodKey] = None
    injected_exception: Optional[str] = None
    marks: List[Mark] = field(default_factory=list)
    completed: bool = False  # True if the program finished without injection
    escaped: bool = False  # True if the injected exception reached the top
    crashed: bool = False  # True if the run never finished (timeout/worker loss)
    #: "dynamic" for executed runs, "trace" for records the trace pass
    #: (repro.core.tracepass) derived instead of running them.
    provenance: str = "dynamic"

    def add_mark(
        self,
        method: MethodKey,
        verdict: str,
        difference: Optional[str] = None,
    ) -> Mark:
        mark = Mark(
            method=method,
            verdict=verdict,
            sequence=len(self.marks),
            difference=difference,
        )
        self.marks.append(mark)
        return mark

    def first_nonatomic(self) -> Optional[Mark]:
        """The first non-atomic mark of the run, if any (purity test)."""
        for mark in self.marks:
            if mark.is_nonatomic:
                return mark
        return None

    def nonatomic_methods(self) -> List[MethodKey]:
        return [m.method for m in self.marks if m.is_nonatomic]

    # -- (de)serialization -------------------------------------------

    def to_dict(self) -> Dict:
        """JSON-ready dict (one ``runs`` entry of the log format)."""
        return {
            "injection_point": self.injection_point,
            "injected_method": self.injected_method,
            "injected_exception": self.injected_exception,
            "completed": self.completed,
            "escaped": self.escaped,
            "crashed": self.crashed,
            "provenance": self.provenance,
            "marks": [asdict(mark) for mark in self.marks],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "RunRecord":
        """Rebuild a record; missing keys (older logs) default sanely."""
        record = cls(
            injection_point=data["injection_point"],
            injected_method=data.get("injected_method"),
            injected_exception=data.get("injected_exception"),
            completed=data.get("completed", False),
            escaped=data.get("escaped", False),
            crashed=data.get("crashed", False),
            provenance=data.get("provenance", "dynamic"),
        )
        for mark_data in data.get("marks", []):
            record.marks.append(Mark(**mark_data))
        return record


def merge_logs(logs: "List[RunLog]") -> "RunLog":
    """Combine several campaigns into one log.

    The paper tests shared classes in several experiments ("because of
    the inheritance relationships between classes and the reuse of
    methods, some classes have been tested in several of the
    experiments").  Merging concatenates the runs and sums the call
    counts, so classification over the merged log gives the worst-case,
    library-wide verdict per method: a single non-atomic mark in any
    campaign makes the method non-atomic overall.
    """
    merged = RunLog()
    for log in logs:
        for method, count in log.call_counts.items():
            if method not in merged.call_counts:
                merged.call_counts[method] = 0
                merged.methods_seen.append(method)
            merged.call_counts[method] += count
        merged.runs.extend(log.runs)
    return merged


class RunLog:
    """The complete log of a detection campaign (all runs).

    Also accumulates per-method call counts from the profiling run, which
    the paper uses to weight classification results by number of calls
    (Figures 2(b) and 3(b)).
    """

    def __init__(self) -> None:
        self.runs: List[RunRecord] = []
        self.call_counts: Dict[MethodKey, int] = {}
        self.methods_seen: List[MethodKey] = []

    # -- recording ---------------------------------------------------

    def begin_run(self, injection_point: int) -> RunRecord:
        record = RunRecord(injection_point=injection_point)
        self.runs.append(record)
        return record

    def record_call(self, method: MethodKey) -> None:
        if method not in self.call_counts:
            self.call_counts[method] = 0
            self.methods_seen.append(method)
        self.call_counts[method] += 1

    # -- queries -----------------------------------------------------

    def marks_for(self, method: MethodKey) -> List[Mark]:
        return [m for run in self.runs for m in run.marks if m.method == method]

    def marked_methods(self) -> List[MethodKey]:
        seen: List[MethodKey] = []
        for run in self.runs:
            for mark in run.marks:
                if mark.method not in seen:
                    seen.append(mark.method)
        return seen

    def total_injections(self) -> int:
        """Number of runs in which an exception was actually injected."""
        return sum(1 for run in self.runs if run.injected_method is not None)

    # -- (de)serialization -------------------------------------------

    def to_json(self) -> str:
        """Serialize the log (the paper's offline-processing format)."""
        payload = {
            "call_counts": self.call_counts,
            "methods_seen": self.methods_seen,
            "runs": [run.to_dict() for run in self.runs],
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunLog":
        payload = json.loads(text)
        log = cls()
        log.call_counts = dict(payload.get("call_counts", {}))
        log.methods_seen = list(payload.get("methods_seen", []))
        for run_data in payload.get("runs", []):
            log.runs.append(RunRecord.from_dict(run_data))
        return log

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())

    @classmethod
    def load(cls, path: str) -> "RunLog":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())


def log_json_without_provenance(log: RunLog) -> str:
    """The log's JSON with per-run provenance erased.

    A derived and a fully dynamic sweep differ *only* in which runs
    carry ``"trace"``; equality of this projection is the differential
    oracles' bit-identicality check.
    """
    payload = json.loads(log.to_json())
    for run in payload.get("runs", []):
        run.pop("provenance", None)
    return json.dumps(payload, indent=2, sort_keys=True)
