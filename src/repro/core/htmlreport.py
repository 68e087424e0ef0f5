"""Static HTML reports of detection campaigns.

The paper's system ships "an easy-to-use web interface that allows the
programmer to indicate which methods ... should not be transformed"
(Section 4.3).  This module renders the read side of that interface: a
self-contained HTML page per campaign with the application summary, the
per-method classification (with call counts and first-difference
evidence), the class rollup, and a pre-filled JSON policy template the
programmer edits and feeds back through
:func:`repro.cli.load_policy`.
"""

from __future__ import annotations

import html
import json
from typing import Dict, List, Optional

from .classify import CATEGORIES, CATEGORY_PURE, ClassificationResult
from .report import AppReport
from .runlog import RunLog

__all__ = ["render_campaign_html", "policy_template"]

_STYLE = """
body { font-family: sans-serif; margin: 2em; color: #222; }
h1, h2 { color: #333; }
table { border-collapse: collapse; margin: 1em 0; }
th, td { border: 1px solid #bbb; padding: 0.3em 0.8em; text-align: left; }
th { background: #eee; }
tr.atomic td.category { color: #2c7a2c; }
tr.conditional td.category { color: #b8860b; }
tr.pure td.category { color: #b03030; font-weight: bold; }
pre { background: #f6f6f6; padding: 1em; overflow-x: auto; }
.bar { display: inline-block; height: 0.8em; }
.bar.atomic { background: #7dbb7d; }
.bar.conditional { background: #e0c36a; }
.bar.pure { background: #d98080; }
"""


def policy_template(classification: ClassificationResult) -> Dict:
    """A policy skeleton listing every non-atomic method for review."""
    return {
        "never_wrap": [],
        "manual_fix": [],
        "exception_free": [],
        "wrap_conditional": False,
        "_candidates": {
            category: classification.methods_in(category)
            for category in CATEGORIES
            if category != "atomic"
        },
    }


def _fraction_bar(fractions: Dict[str, float]) -> str:
    spans = []
    for category in CATEGORIES:
        width = round(300 * fractions.get(category, 0.0))
        spans.append(
            f'<span class="bar {category}" style="width:{width}px" '
            f'title="{category}: {100 * fractions.get(category, 0.0):.1f}%">'
            "</span>"
        )
    return "".join(spans)


def render_campaign_html(
    report: AppReport,
    *,
    log: Optional[RunLog] = None,
    title: Optional[str] = None,
) -> str:
    """Render one campaign as a self-contained HTML page."""
    classification = report.classification
    title = title or f"Failure atomicity report — {report.name}"
    # Evidence provenance of the log's runs, when a log is provided:
    # how many run records the trace pass derived from the reference
    # execution, and how many crashed runs were excluded.
    trace_derived = 0
    crashed = 0
    if log is not None:
        trace_derived = sum(
            1 for run in log.runs if run.provenance == "trace"
        )
        crashed = sum(1 for run in log.runs if run.crashed)
    parts: List[str] = [
        "<!DOCTYPE html>",
        "<html><head><meta charset='utf-8'>",
        f"<title>{html.escape(title)}</title>",
        f"<style>{_STYLE}</style>",
        "</head><body>",
        f"<h1>{html.escape(title)}</h1>",
        "<h2>Summary</h2>",
        "<table><tr><th>classes</th><th>methods</th><th>injections</th>"
        "<th>pure non-atomic calls</th><th>trace-derived runs</th>"
        "<th>crashed runs</th></tr>",
        f"<tr><td>{report.class_count}</td><td>{report.method_count}</td>"
        f"<td>{report.injection_count}</td>"
        f"<td>{100 * report.pure_call_fraction():.2f}%</td>"
        f"<td>{trace_derived}</td>"
        f"<td>{crashed}</td></tr></table>",
        "<p>By methods: "
        + _fraction_bar(report.fractions_by_methods())
        + "</p>",
        "<p>By calls: " + _fraction_bar(report.fractions_by_calls()) + "</p>",
        "<h2>Methods</h2>",
        "<table><tr><th>method</th><th>category</th><th>calls</th>"
        "<th>non-atomic marks</th><th>first difference observed</th></tr>",
    ]
    for key in sorted(classification.methods):
        mc = classification.methods[key]
        difference = ""
        if log is not None and mc.category != "atomic":
            for mark in log.marks_for(key):
                if mark.is_nonatomic and mark.difference:
                    difference = mark.difference
                    break
        parts.append(
            f'<tr class="{mc.category}"><td>{html.escape(key)}</td>'
            f'<td class="category">{mc.category}</td>'
            f"<td>{mc.calls}</td><td>{mc.nonatomic_marks}</td>"
            f"<td>{html.escape(difference)}</td></tr>"
        )
    parts.append("</table>")

    parts.append("<h2>Classes</h2><table><tr><th>class</th><th>category</th></tr>")
    for cls, category in sorted(classification.class_categories().items()):
        parts.append(
            f'<tr class="{category}"><td>{html.escape(cls)}</td>'
            f'<td class="category">{category}</td></tr>'
        )
    parts.append("</table>")

    pure = classification.methods_in(CATEGORY_PURE)
    parts.append("<h2>Masking candidates</h2>")
    if pure:
        parts.append(
            "<p>The masking phase wraps these pure failure non-atomic "
            "methods:</p><ul>"
            + "".join(f"<li><code>{html.escape(m)}</code></li>" for m in pure)
            + "</ul>"
        )
    else:
        parts.append("<p>No pure failure non-atomic methods found.</p>")

    parts.append(
        "<h2>Policy template</h2>"
        "<p>Edit and pass via <code>--policy</code> "
        "(see <code>python -m repro detect --help</code>):</p>"
    )
    parts.append(
        "<pre>"
        + html.escape(json.dumps(policy_template(classification), indent=2))
        + "</pre>"
    )
    parts.append("</body></html>")
    return "\n".join(parts)
