"""The state layer sits below the rest of ``repro.core``.

:mod:`repro.core.state` summarizes, compares and checkpoints object
graphs; detection (injection, the trace pass) and masking (the atomicity
wrappers, the undo log of :mod:`repro.core.cow`) build on it.  An import
the other way — once ``state/backend.py`` imported ``cow.UndoLog`` while
``cow`` imported ``state.introspect`` — makes an import cycle and puts a
masking strategy in the detection registry.  This test keeps every module
under ``src/repro/core/state/`` from importing any other part of
``repro.core``.

A source check, like ``test_no_private_cross_imports.py``: it also sees
imports inside functions and in modules the test run never imports.
"""

import ast
import os

STATE_ROOT = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "src", "repro", "core", "state"
)

_PACKAGE = ("repro", "core", "state")


def _imported_modules(source):
    """``(line, absolute module name)`` for each import in *source*, a
    module of the ``repro.core.state`` package."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parent = _PACKAGE[: len(_PACKAGE) - node.level + 1]
                base = ".".join(parent + ((node.module,) if node.module else ()))
            if node.module is None:
                # ``from .. import cow`` names its modules in the alias list
                for alias in node.names:
                    yield node.lineno, f"{base}.{alias.name}"
            else:
                yield node.lineno, base


def _within(module, package):
    return module == package or module.startswith(package + ".")


def test_import_resolution():
    assert list(_imported_modules("from ..cow import UndoLog")) == [
        (1, "repro.core.cow")
    ]
    assert list(_imported_modules("from .. import cow")) == [(1, "repro.core.cow")]
    assert list(_imported_modules("from . import graph")) == [
        (1, "repro.core.state.graph")
    ]
    assert list(_imported_modules("import repro.core.masking")) == [
        (1, "repro.core.masking")
    ]


def test_state_imports_nothing_else_from_core():
    violations = []
    for filename in sorted(os.listdir(STATE_ROOT)):
        if not filename.endswith(".py"):
            continue
        with open(os.path.join(STATE_ROOT, filename), encoding="utf-8") as handle:
            source = handle.read()
        for lineno, module in _imported_modules(source):
            if _within(module, "repro.core") and not _within(
                module, "repro.core.state"
            ):
                violations.append(f"state/{filename}:{lineno}: imports {module}")
    assert not violations, (
        "repro.core.state must not import the rest of repro.core:\n"
        + "\n".join(violations)
    )
