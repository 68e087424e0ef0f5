"""Reports: the paper's Table 1 and the data behind Figures 2–4.

The experimental section of the paper reports, per application:

* Table 1 — number of classes, methods (defined and used), and injections.
* Figures 2(a)/3(a) — method classification as a percentage of the
  methods defined and used.
* Figures 2(b)/3(b) — the same classification weighted by method calls.
* Figure 4 — class-level distribution (a class is atomic if all its
  methods are, pure non-atomic if it contains a pure non-atomic method,
  conditional otherwise).

This module turns detection results into those rows and renders them as
plain-text tables and ASCII percentage bars, which is what the benchmark
harness prints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from .classify import (
    CATEGORIES,
    CATEGORY_ATOMIC,
    CATEGORY_CONDITIONAL,
    CATEGORY_PURE,
    ClassificationResult,
    class_of_method,
)
from .detector import DetectionResult
from .runlog import MethodKey

__all__ = [
    "AppReport",
    "build_app_report",
    "format_table1",
    "format_method_classification",
    "format_class_distribution",
    "format_run_provenance",
    "render_bars",
]


@dataclass
class AppReport:
    """Everything the paper reports about one application."""

    name: str
    class_count: int
    method_count: int
    injection_count: int
    classification: ClassificationResult

    # -- Figure 2/3 data -------------------------------------------------

    def fractions_by_methods(self) -> Dict[str, float]:
        return self.classification.fractions_by_methods()

    def fractions_by_calls(self) -> Dict[str, float]:
        return self.classification.fractions_by_calls()

    # -- Figure 4 data ----------------------------------------------------

    def class_fractions(self) -> Dict[str, float]:
        return self.classification.class_fractions()

    def pure_call_fraction(self) -> float:
        """Fraction of calls going to pure failure non-atomic methods.

        The paper highlights this number: < 0.4% for the C++ apps, < 0.2%
        for the Java apps after trivial fixes (Section 6.2).
        """
        return self.fractions_by_calls()[CATEGORY_PURE]


def build_app_report(
    name: str,
    result: DetectionResult,
    classification: ClassificationResult,
    *,
    class_of: Optional[Callable[[MethodKey], str]] = None,
) -> AppReport:
    """Assemble an :class:`AppReport` from a finished campaign."""
    class_of = class_of or class_of_method
    classes = {class_of(key) for key in classification.methods}
    return AppReport(
        name=name,
        class_count=len(classes),
        method_count=len(classification.methods),
        injection_count=result.total_injections,
        classification=classification,
    )


def _render_table(headers: Sequence[str], rows: List[Sequence[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    header_line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(row)))
    return "\n".join(lines)


def format_table1(reports: Iterable[AppReport]) -> str:
    """Render the paper's Table 1 (application statistics)."""
    rows = [
        (
            report.name,
            str(report.class_count),
            str(report.method_count),
            str(report.injection_count),
        )
        for report in reports
    ]
    return _render_table(
        ["Application", "#Classes", "#Methods", "#Injections"], rows
    )


_CATEGORY_LABELS = {
    CATEGORY_ATOMIC: "atomic",
    CATEGORY_CONDITIONAL: "cond non-atomic",
    CATEGORY_PURE: "pure non-atomic",
}


def format_method_classification(
    reports: Iterable[AppReport], *, weighted_by_calls: bool = False
) -> str:
    """Render Figures 2/3 as a table of percentages per application.

    Args:
        weighted_by_calls: False renders the (a) variants (% of methods
            defined and used); True renders the (b) variants (% of calls).
    """
    rows = []
    for report in reports:
        fractions = (
            report.fractions_by_calls()
            if weighted_by_calls
            else report.fractions_by_methods()
        )
        rows.append(
            (report.name,)
            + tuple(f"{100.0 * fractions[c]:.2f}%" for c in CATEGORIES)
        )
    headers = ["Application"] + [_CATEGORY_LABELS[c] for c in CATEGORIES]
    return _render_table(headers, rows)


def format_class_distribution(reports: Iterable[AppReport]) -> str:
    """Render Figure 4 as a table of class-level percentages."""
    rows = []
    for report in reports:
        fractions = report.class_fractions()
        rows.append(
            (report.name,)
            + tuple(f"{100.0 * fractions[c]:.2f}%" for c in CATEGORIES)
        )
    headers = ["Application"] + [
        f"{_CATEGORY_LABELS[c]} classes" for c in CATEGORIES
    ]
    return _render_table(headers, rows)


def format_run_provenance(classification: ClassificationResult) -> str:
    """One-line evidence summary: counted runs by provenance + crashed.

    Example: ``evidence: 23 dynamic + 6 trace run(s), 0 crashed run(s)
    excluded``.  The trace count is how many records the trace pass
    derived from the instrumented reference execution
    (:mod:`repro.core.tracepass`); crashed runs are excluded from
    classification entirely.
    """
    provenance = classification.run_provenance
    dynamic = provenance.get("dynamic", 0)
    trace = provenance.get("trace", 0)
    other = sum(
        count
        for tag, count in provenance.items()
        if tag not in ("dynamic", "trace")
    )
    parts = [f"{dynamic} dynamic"]
    if trace:
        parts.append(f"{trace} trace")
    if other:
        parts.append(f"{other} other")
    return (
        f"evidence: {' + '.join(parts)} run(s), "
        f"{classification.crashed_runs} crashed run(s) excluded"
    )


def render_bars(
    fractions: Dict[str, float], *, width: int = 50, labels: bool = True
) -> str:
    """ASCII stacked-bar rendering of a category-fraction dict."""
    lines = []
    for category in CATEGORIES:
        fraction = fractions.get(category, 0.0)
        filled = int(round(fraction * width))
        bar = "#" * filled + "." * (width - filled)
        label = _CATEGORY_LABELS[category].rjust(16) if labels else ""
        lines.append(f"{label} |{bar}| {100.0 * fraction:6.2f}%")
    return "\n".join(lines)
