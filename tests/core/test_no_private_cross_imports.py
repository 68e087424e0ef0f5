"""No module may import an underscore-prefixed name from a sibling.

Before the state layer existed, ``snapshot.py`` imported ``_slot_names``
from ``objgraph.py`` — a private helper crossing a module boundary, which
is how the two capture implementations silently drifted apart.  The
introspection helpers are public API now (:mod:`repro.core.state.introspect`),
and this test keeps the tree honest: ``from .sibling import _private`` is
banned everywhere outside ``repro/core/state`` (whose modules share one
package-internal encoding and may use leading-underscore module aliases).

Deliberately a source grep, not an import hook: it catches violations in
modules that are never imported by the test run.
"""

import ast
import os

SRC_ROOT = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "src", "repro"
)

#: The one package whose modules may share underscore-prefixed names.
EXEMPT_PACKAGE = os.path.join("repro", "core", "state")


def _python_files():
    for dirpath, _dirnames, filenames in os.walk(SRC_ROOT):
        for filename in filenames:
            if filename.endswith(".py"):
                yield os.path.join(dirpath, filename)


def _violations():
    found = []
    for path in _python_files():
        rel = os.path.relpath(path, os.path.join(SRC_ROOT, os.pardir))
        if EXEMPT_PACKAGE in path:
            continue
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), filename=path)
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            module = node.module or ""
            private_names = [
                alias.name
                for alias in node.names
                if alias.name.startswith("_") and alias.name != "*"
            ]
            if not private_names:
                continue
            # only intra-repro imports are our business
            if not (node.level > 0 or module.startswith("repro")):
                continue
            found.append(
                f"{rel}:{node.lineno}: from {'.' * node.level}{module} "
                f"import {', '.join(private_names)}"
            )
    return found


def test_no_underscore_imports_between_modules():
    violations = _violations()
    assert not violations, (
        "underscore-prefixed names imported across module boundaries "
        "(make them public in repro.core.state.introspect or the owning "
        "module instead):\n" + "\n".join(violations)
    )


def test_the_historical_offender_is_gone():
    # the snapshot module is gone and the real checkpoint module must
    # not import _slot_names anymore — that was the original violation
    assert not os.path.exists(os.path.join(SRC_ROOT, "core", "snapshot.py"))
    path = os.path.join(SRC_ROOT, "core", "state", "checkpoint.py")
    with open(path, encoding="utf-8") as handle:
        assert "_slot_names" not in handle.read()
