#!/usr/bin/env python
"""Verify that the documentation's links and module paths resolve.

Checked, for every ``docs/*.md`` plus ``README.md``:

* **relative markdown links** — ``[text](target)`` where the target is
  not an external URL or a pure anchor must name a file or directory
  that exists (anchors and query strings are stripped first);
* **repository paths** — every backtick-quoted path starting with
  ``src/``, ``tests/``, ``benchmarks/``, ``tools/``, ``examples/`` or
  ``docs/`` must exist, and so must every one starting with ``repro/``
  under ``src/``;
* **dotted module references** — every backtick-quoted dotted name
  starting with ``repro.`` must resolve under ``src/``: each name is
  resolved to the longest importable prefix (package directory or
  ``.py`` file), and at most one trailing component may remain, which
  must be a top-level ``def``, ``class``, assignment or import of that
  module (read from its syntax tree; nothing is imported).

Exit status 0 when everything resolves; 1 with a per-offence listing
otherwise.  Run via ``make docs-check`` (CI runs it on every push).
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: [text](target) — target captured lazily so ")" in prose stays out.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
#: Backtick-quoted repository paths.
PATH_RE = re.compile(
    r"`((?:src|tests|benchmarks|tools|examples|docs)/[A-Za-z0-9_./\-]+)`"
)
#: Backtick-quoted package paths, relative to ``src/``.
PACKAGE_PATH_RE = re.compile(r"`(repro/[A-Za-z0-9_./\-]+)`")
#: Backtick-quoted dotted module (or module.attribute) references.
MODULE_RE = re.compile(r"`(repro(?:\.[A-Za-z_][A-Za-z0-9_]*)+)`")

EXTERNAL_PREFIXES = ("http://", "https://", "mailto:", "ftp://")

#: Statements that bind the name they define.
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _doc_files():
    docs = sorted((REPO_ROOT / "docs").glob("*.md"))
    readme = REPO_ROOT / "README.md"
    return ([readme] if readme.exists() else []) + docs


def _check_link(doc: Path, target: str):
    if target.startswith(EXTERNAL_PREFIXES) or target.startswith("#"):
        return None
    cleaned = target.split("#", 1)[0].split("?", 1)[0]
    if not cleaned:
        return None
    resolved = (doc.parent / cleaned).resolve()
    if not resolved.exists():
        return f"broken link: ({target})"
    return None


def _check_path(path: str, root: str = ""):
    if not (REPO_ROOT / root / path).exists():
        return f"missing path: `{path}`"
    return None


def _bound_names(statements) -> set:
    """Names bound by *statements* outside any def or class body."""
    names = set()
    for node in statements:
        if isinstance(node, DEFINITIONS):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(
                (alias.asname or alias.name).split(".")[0]
                for alias in node.names
            )
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            names.update(
                name.id
                for target in targets
                for name in ast.walk(target)
                if isinstance(name, ast.Name)
            )
        else:  # if / try / with / for blocks at module level
            for field in ("body", "orelse", "finalbody", "handlers"):
                names |= _bound_names(getattr(node, field, []))
    return names


def _check_module(dotted: str):
    parts = dotted.split(".")
    base = REPO_ROOT / "src"
    resolved = 0
    module = None
    for part in parts:
        if (base / part).is_dir():
            base = base / part
            module = base / "__init__.py"
            resolved += 1
        elif (base / f"{part}.py").is_file():
            module = base / f"{part}.py"
            resolved += 1
            break
        else:
            break
    if resolved == len(parts):
        return None
    if resolved == len(parts) - 1 and module is not None and module.is_file():
        tree = ast.parse(module.read_text(encoding="utf-8"))
        if parts[-1] in _bound_names(tree.body):
            return None
    return f"unresolvable module: `{dotted}`"


def check() -> list:
    offences = []
    for doc in _doc_files():
        text = doc.read_text(encoding="utf-8")
        rel = doc.relative_to(REPO_ROOT)
        for lineno, line in enumerate(text.splitlines(), start=1):
            checks = (
                [(m, _check_link(doc, m)) for m in LINK_RE.findall(line)]
                + [(m, _check_path(m)) for m in PATH_RE.findall(line)]
                + [
                    (m, _check_path(m, "src"))
                    for m in PACKAGE_PATH_RE.findall(line)
                ]
                + [(m, _check_module(m)) for m in MODULE_RE.findall(line)]
            )
            offences.extend(
                f"{rel}:{lineno}: {problem}"
                for _, problem in checks
                if problem is not None
            )
    return offences


def main() -> int:
    offences = check()
    if offences:
        for offence in offences:
            print(offence)
        print(f"docs check FAILED: {len(offences)} offence(s)")
        return 1
    files = len(_doc_files())
    print(f"docs check OK: {files} file(s), every link and path resolves")
    return 0


if __name__ == "__main__":
    sys.exit(main())
