"""Classification of methods from detection logs (Definitions 2 and 3).

A method is **failure atomic** iff no injection run ever marked it
non-atomic.  Among the failure non-atomic methods, a method is **pure**
failure non-atomic iff there exists a run in which it was the *first*
method marked non-atomic — exceptions propagate from callee to caller, so
any non-atomic callee would have been marked earlier in the run
(Section 4.3).  Every other failure non-atomic method is **conditional**:
it would be atomic if all the methods it calls were atomic, and therefore
needs no wrapper once its callees are masked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from .runlog import MethodKey, RunLog

__all__ = [
    "CATEGORY_ATOMIC",
    "CATEGORY_CONDITIONAL",
    "CATEGORY_PURE",
    "CATEGORIES",
    "MethodClassification",
    "ClassificationResult",
    "classify",
    "class_of_method",
]

CATEGORY_ATOMIC = "atomic"
CATEGORY_CONDITIONAL = "conditional"
CATEGORY_PURE = "pure"
#: All categories, in the display order used by the paper's figures.
CATEGORIES = (CATEGORY_ATOMIC, CATEGORY_CONDITIONAL, CATEGORY_PURE)


@dataclass
class MethodClassification:
    """Aggregated verdicts for one method across all runs."""

    method: MethodKey
    category: str
    calls: int
    atomic_marks: int = 0
    nonatomic_marks: int = 0
    #: Injection points of runs in which this method was the first
    #: non-atomic mark (evidence of purity).
    pure_evidence: List[int] = field(default_factory=list)
    #: Callees marked non-atomic immediately before this method in some
    #: run — the methods whose non-atomicity propagated into this one.
    #: For conditional methods this is the masking dependency set: once
    #: these are atomic, this method is too.
    blamed_callees: List[MethodKey] = field(default_factory=list)

    @property
    def is_nonatomic(self) -> bool:
        return self.category != CATEGORY_ATOMIC


@dataclass
class ClassificationResult:
    """The per-method classification of one application.

    ``crashed_runs`` and ``run_provenance`` are summary metadata about
    the evidence base — how many runs were discarded as crashed and how
    many of the counted runs were executed (``"dynamic"``) versus
    derived by the trace pass (``"trace"``).  They are
    intentionally not part of the serialized per-method payload: two
    campaigns with the same verdicts are the same classification.
    """

    methods: Dict[MethodKey, MethodClassification]
    #: Runs excluded from the evidence because they never finished
    #: (timeout / worker loss); their marks may be truncated mid-method.
    crashed_runs: int = 0
    #: Counted (non-crashed) runs per provenance tag.
    run_provenance: Dict[str, int] = field(default_factory=dict)

    def category_of(self, method: MethodKey) -> str:
        return self.methods[method].category

    def methods_in(self, category: str) -> List[MethodKey]:
        return sorted(
            key for key, mc in self.methods.items() if mc.category == category
        )

    def explain(self, method: MethodKey) -> str:
        """Human-readable rationale for one method's category."""
        mc = self.methods[method]
        if mc.category == CATEGORY_ATOMIC:
            return (
                f"{method} is failure atomic: "
                f"{mc.atomic_marks} atomic mark(s), no non-atomic mark "
                f"in any run."
            )
        if mc.category == CATEGORY_PURE:
            points = ", ".join(str(p) for p in mc.pure_evidence[:5])
            return (
                f"{method} is pure failure non-atomic: it was the first "
                f"method marked non-atomic in run(s) with injection "
                f"point(s) {points} — its inconsistency is its own "
                f"(Definition 3)."
            )
        culprits = ", ".join(mc.blamed_callees) or "unknown callees"
        return (
            f"{method} is conditional failure non-atomic: it was never "
            f"first-marked; its non-atomicity propagated from {culprits}. "
            f"Masking those makes it atomic without wrapping it."
        )

    # -- (de)serialization --------------------------------------------------

    def to_json(self) -> str:
        """Serialize (for offline processing, like the paper's log files)."""
        payload = {
            key: {
                "category": mc.category,
                "calls": mc.calls,
                "atomic_marks": mc.atomic_marks,
                "nonatomic_marks": mc.nonatomic_marks,
                "pure_evidence": mc.pure_evidence,
                "blamed_callees": mc.blamed_callees,
            }
            for key, mc in self.methods.items()
        }
        import json

        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ClassificationResult":
        import json

        payload = json.loads(text)
        methods = {
            key: MethodClassification(method=key, **data)
            for key, data in payload.items()
        }
        return cls(methods=methods)

    # -- statistics (Figures 2 and 3) -----------------------------------

    def counts_by_methods(self) -> Dict[str, int]:
        """Number of methods (defined and used) per category."""
        counts = {category: 0 for category in CATEGORIES}
        for mc in self.methods.values():
            counts[mc.category] += 1
        return counts

    def counts_by_calls(self) -> Dict[str, int]:
        """Number of calls per category (weighting of Figs. 2(b)/3(b))."""
        counts = {category: 0 for category in CATEGORIES}
        for mc in self.methods.values():
            counts[mc.category] += mc.calls
        return counts

    def fractions_by_methods(self) -> Dict[str, float]:
        return _fractions(self.counts_by_methods())

    def fractions_by_calls(self) -> Dict[str, float]:
        return _fractions(self.counts_by_calls())

    # -- class-level rollup (Figure 4) -----------------------------------

    def class_categories(
        self, class_of: Optional[Callable[[MethodKey], str]] = None
    ) -> Dict[str, str]:
        """Classify classes: atomic (all methods atomic), pure (contains a
        pure method), else conditional."""
        class_of = class_of or class_of_method
        rollup: Dict[str, str] = {}
        for key, mc in self.methods.items():
            cls = class_of(key)
            current = rollup.get(cls, CATEGORY_ATOMIC)
            rollup[cls] = _worse(current, mc.category)
        return rollup

    def class_counts(
        self, class_of: Optional[Callable[[MethodKey], str]] = None
    ) -> Dict[str, int]:
        counts = {category: 0 for category in CATEGORIES}
        for category in self.class_categories(class_of).values():
            counts[category] += 1
        return counts

    def class_fractions(
        self, class_of: Optional[Callable[[MethodKey], str]] = None
    ) -> Dict[str, float]:
        return _fractions(self.class_counts(class_of))


_SEVERITY = {CATEGORY_ATOMIC: 0, CATEGORY_CONDITIONAL: 1, CATEGORY_PURE: 2}


def _worse(a: str, b: str) -> str:
    return a if _SEVERITY[a] >= _SEVERITY[b] else b


def _fractions(counts: Dict[str, int]) -> Dict[str, float]:
    total = sum(counts.values())
    if total == 0:
        return {category: 0.0 for category in counts}
    return {category: count / total for category, count in counts.items()}


def class_of_method(method: MethodKey) -> str:
    """Default ``"Class.method" -> "Class"`` mapping for rollups."""
    head, _, _ = method.rpartition(".")
    return head or method


def classify(log: RunLog) -> ClassificationResult:
    """Classify every method observed in *log*.

    The universe is every method seen during profiling plus every method
    that received a mark; a method with no non-atomic mark in any run is
    failure atomic (Definition 2 quantifies over the executions actually
    explored, exactly as the paper's experiments do).

    Crashed runs (timeout / worker loss) are excluded from the evidence
    entirely: a run killed mid-method may have recorded a spurious
    first-non-atomic mark, or been cut short before the caller marks
    that would have demoted it to conditional.  They are counted in
    ``crashed_runs`` instead.
    """
    counted_runs = [run for run in log.runs if not run.crashed]
    crashed_runs = len(log.runs) - len(counted_runs)

    universe: List[MethodKey] = list(log.methods_seen)
    seen = set(universe)
    for run in counted_runs:
        for mark in run.marks:
            if mark.method not in seen:
                universe.append(mark.method)
                seen.add(mark.method)

    atomic_marks: Dict[MethodKey, int] = {m: 0 for m in universe}
    nonatomic_marks: Dict[MethodKey, int] = {m: 0 for m in universe}
    pure_evidence: Dict[MethodKey, List[int]] = {m: [] for m in universe}
    blamed: Dict[MethodKey, List[MethodKey]] = {m: [] for m in universe}
    run_provenance: Dict[str, int] = {}

    for run in counted_runs:
        run_provenance[run.provenance] = (
            run_provenance.get(run.provenance, 0) + 1
        )
        first = run.first_nonatomic()
        if first is not None:
            pure_evidence[first.method].append(run.injection_point)
        previous_nonatomic: MethodKey = ""
        for mark in run.marks:
            if mark.is_nonatomic:
                nonatomic_marks[mark.method] += 1
                if (
                    previous_nonatomic
                    and previous_nonatomic != mark.method
                    and previous_nonatomic not in blamed[mark.method]
                ):
                    # propagation order: the previous non-atomic mark is
                    # the callee whose inconsistency reached this method
                    blamed[mark.method].append(previous_nonatomic)
                previous_nonatomic = mark.method
            else:
                atomic_marks[mark.method] += 1

    methods: Dict[MethodKey, MethodClassification] = {}
    for method in universe:
        if nonatomic_marks[method] == 0:
            category = CATEGORY_ATOMIC
        elif pure_evidence[method]:
            category = CATEGORY_PURE
        else:
            category = CATEGORY_CONDITIONAL
        methods[method] = MethodClassification(
            method=method,
            category=category,
            calls=log.call_counts.get(method, 0),
            atomic_marks=atomic_marks[method],
            nonatomic_marks=nonatomic_marks[method],
            pure_evidence=pure_evidence[method],
            blamed_callees=blamed[method],
        )
    return ClassificationResult(
        methods=methods,
        crashed_runs=crashed_runs,
        run_provenance=run_provenance,
    )
