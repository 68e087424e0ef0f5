"""Build runnable subject programs from transformed sources.

Two subject families, two builders:

* **Fuzz specs** (:func:`build_spec_variant`): the spec renders to
  source, the engine transforms it, and the result is ``exec``'d in the
  same fixed namespace the untransformed fuzz builder uses — so object
  type names, and therefore run-log difference strings, are identical
  across variants.

* **Table-1 applications** (:func:`grafted_variant`): the real classes
  live in real modules with inheritance, decorators, and cross-class
  construction, so variants cannot simply be re-built from scratch —
  the workload bodies close over the *original* class objects.  Instead
  the transformed methods are **grafted** onto the original classes for
  the duration of a context manager and restored afterwards.  Grafted
  functions execute with a copy of the defining module's globals in
  which the class name is re-bound to the original class, so runtime
  constructions and ``isinstance`` checks inside grafted code see the
  very same types as everything else.

Both builders register the transformed source with
:func:`~repro.core.virtualsource.register_virtual_source`, so the
trace pass can read variant method bodies exactly as it reads
originals.  Helper methods minted by try-body extraction
are returned as exclusion keys — they must never be woven, or
injection-point numbering would diverge from the original subject.
"""

from __future__ import annotations

import ast
import inspect
import sys
import textwrap
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.core.virtualsource import (
    register_virtual_source,
    unregister_virtual_source,
)

from .engine import AppliedTransform, VariantModule, transform_source

__all__ = [
    "GraftedVariant",
    "build_spec_variant",
    "grafted_variant",
]


# ---------------------------------------------------------------------------
# Fuzz-spec variants
# ---------------------------------------------------------------------------


def build_spec_variant(spec, recipe: Sequence[str], *, tag: int):
    """A fresh variant :class:`AppProgram` for one fuzz spec.

    Returns ``(program, variant_module)``.  The program's ``exclude``
    set carries the minted helper keys; its workload is the ordinary
    spec workload over the variant root class.  Call again for a fresh
    program (masking rounds need unwoven classes), same-tag calls are
    deterministic.
    """
    # Imported lazily: core must not depend on the fuzz package at
    # module level (fuzz already imports core).
    from repro.experiments.programs import AppProgram
    from repro.fuzz.build import (
        FUZZ_LANGUAGE,
        build_namespace,
        make_workload,
        render_source,
    )

    variant = transform_source(render_source(spec), recipe, tag=tag)
    filename = register_virtual_source(f"<{spec.name}.v{tag}>", variant.source)
    namespace = build_namespace()
    exec(compile(variant.source, filename, "exec"), namespace)
    classes = [namespace[cd.name] for cd in spec.classes]
    program = AppProgram(
        name=spec.name,
        language=FUZZ_LANGUAGE,
        classes=classes,
        body=make_workload(spec, classes[0]),
        exclude=frozenset(variant.helper_keys),
    )
    return program, variant


# ---------------------------------------------------------------------------
# Table-1 grafted variants
# ---------------------------------------------------------------------------


def _uses_class_cell(fn: ast.FunctionDef) -> bool:
    """True for methods that cannot be grafted: zero-arg ``super()``
    and explicit ``__class__`` both read the compiler-provided class
    cell, which a re-exec'd method would bind to the wrong class."""
    return any(
        isinstance(sub, ast.Name) and sub.id in ("super", "__class__")
        for sub in ast.walk(fn)
    )


@dataclass
class GraftedVariant:
    """What :func:`grafted_variant` yields inside the context.

    Attributes:
        program: the variant application — same class objects and
            workload as the original, with transformed methods grafted
            on and helper keys added to the exclusion set.
        modules: per-class transform outcomes (class name → module).
        skipped_classes: classes left untouched (no retrievable source).
        skipped_methods: ``"Class.method"`` left untouched (class-cell
            users that cannot be re-compiled outside their class).
    """

    program: object
    modules: Dict[str, VariantModule] = field(default_factory=dict)
    skipped_classes: Tuple[str, ...] = ()
    skipped_methods: Tuple[str, ...] = ()

    @property
    def applied(self) -> Tuple[AppliedTransform, ...]:
        out: List[AppliedTransform] = []
        for module in self.modules.values():
            out.extend(module.applied)
        return tuple(out)

    @property
    def helper_keys(self) -> Tuple[str, ...]:
        out: List[str] = []
        for module in self.modules.values():
            out.extend(module.helper_keys)
        return tuple(out)


def _class_variant_source(cls: type, recipe, tag: int):
    """Transform one real class; returns (module, skipped_methods) or
    None when the class has no retrievable source."""
    try:
        source = textwrap.dedent(inspect.getsource(cls))
    except (OSError, TypeError):
        return None
    tree = ast.parse(source)
    class_node = next(
        (n for n in tree.body if isinstance(n, ast.ClassDef)), None
    )
    if class_node is None:
        return None
    skipped: List[str] = []
    kept: List[ast.stmt] = []
    for stmt in class_node.body:
        if isinstance(stmt, ast.FunctionDef) and _uses_class_cell(stmt):
            skipped.append(f"{cls.__name__}.{stmt.name}")
            continue
        kept.append(stmt)
    class_node.body = kept or [ast.Pass()]
    variant = transform_source(
        ast.unparse(tree) + "\n", recipe, tag=tag, class_names=[cls.__name__]
    )
    return variant, tuple(skipped)


@contextmanager
def grafted_variant(program, recipe: Sequence[str], *, tag: int) -> Iterator[GraftedVariant]:
    """Temporarily graft recipe-transformed methods onto *program*'s
    classes; yield the variant application; restore on exit.

    Only methods an applied transform actually changed (plus minted
    helpers) are grafted — everything else keeps its original function
    object, decorators included.
    """
    modules: Dict[str, VariantModule] = {}
    skipped_classes: List[str] = []
    skipped_methods: List[str] = []
    # (cls, name, original_or_sentinel) for restoration, innermost last.
    _MISSING = object()
    grafted: List[Tuple[type, str, object]] = []
    filenames: List[str] = []
    try:
        for cls in program.classes:
            outcome = _class_variant_source(cls, recipe, tag)
            if outcome is None:
                skipped_classes.append(cls.__name__)
                continue
            variant, cls_skipped = outcome
            skipped_methods.extend(cls_skipped)
            target_names = {
                a.method
                for a in variant.applied
                if a.class_name == cls.__name__
            } | {key.split(".", 1)[1] for key in variant.helper_keys}
            if not target_names:
                continue
            modules[cls.__name__] = variant
            filename = register_virtual_source(
                f"<variant:{cls.__module__}.{cls.__qualname__}.v{tag}>",
                variant.source,
            )
            filenames.append(filename)
            glb = dict(vars(sys.modules[cls.__module__]))
            exec(compile(variant.source, filename, "exec"), glb)
            shadow = glb[cls.__name__]
            # Grafted code must resolve the class name to the *original*
            # class at runtime — constructions and isinstance checks in
            # transformed methods have to agree with untransformed code.
            glb[cls.__name__] = cls
            for name in sorted(target_names):
                replacement = vars(shadow).get(name)
                if replacement is None:
                    continue
                grafted.append((cls, name, vars(cls).get(name, _MISSING)))
                setattr(cls, name, replacement)
        exclude = frozenset(program.exclude) | {
            key for module in modules.values() for key in module.helper_keys
        }
        variant_program = type(program)(
            name=program.name,
            language=program.language,
            classes=program.classes,
            body=program.body,
            exclude=exclude,
            rounds=program.rounds,
        )
        yield GraftedVariant(
            program=variant_program,
            modules=modules,
            skipped_classes=tuple(skipped_classes),
            skipped_methods=tuple(skipped_methods),
        )
    finally:
        for cls, name, original in reversed(grafted):
            if original is _MISSING:
                if name in vars(cls):
                    delattr(cls, name)
            else:
                setattr(cls, name, original)
        for filename in filenames:
            unregister_virtual_source(filename)
