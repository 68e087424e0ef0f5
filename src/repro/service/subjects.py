"""Submitted subject programs: validation, canonicalization, compilation.

The service accepts a subject as plain Python source that defines one or
more classes and a ``workload()`` callable (the deterministic,
re-runnable workload the detection campaign sweeps — same contract as
:class:`~repro.experiments.programs.AppProgram`).  At submission the
source is only compiled (:func:`compile_source`); the campaign worker
``exec``'s it (:func:`build_subject`) in a fresh namespace whose
``__name__`` is the fixed :data:`SERVICE_MODULE_NAME`, so type names —
which appear in run-log ``difference`` strings and therefore in the
bit-identical engine comparison — are the same in every build; the
rendered source is registered with :mod:`repro.core.virtualsource`
under :func:`subject_filename` so ``inspect`` (and with it the trace
pass's transparency certificates) can read method bodies.  The worker
unregisters it when the campaign ends, so a long-running server keeps
no submitted source.

A submission's config becomes a
:class:`~repro.experiments.config.CampaignConfig` before it reaches the
result cache: defaults filled, values coerced, unknown keys rejected.
The cache key hashes its :meth:`~CampaignConfig.to_dict` form, so two
submissions that mean the same campaign produce the same
:func:`~repro.service.cache.submission_digest` even when they spell the
config differently.
"""

from __future__ import annotations

import ast
import hashlib
from types import CodeType
from typing import Any, Dict, Mapping, Optional

from repro.core.exceptions import exception_free, throws
from repro.core.virtualsource import (
    register_virtual_source,
    unregister_virtual_source,
)
from repro.experiments.config import CampaignConfig
from repro.experiments.programs import AppProgram

__all__ = [
    "SERVICE_MODULE_NAME",
    "SERVICE_LANGUAGE",
    "SubmissionError",
    "submission_config",
    "canonical_config",
    "compile_source",
    "subject_filename",
    "build_subject",
    "estimate_cost",
]

#: ``__module__`` of every submitted class — fixed so graph type names
#: are identical in every build of the subject.
SERVICE_MODULE_NAME = "repro_service_subject"

#: Language tag of submitted programs (the registry uses "C++"/"Java").
SERVICE_LANGUAGE = "Service"


class SubmissionError(ValueError):
    """A submission (source or config) the service must reject."""


def submission_config(config: Optional[Mapping[str, Any]]) -> CampaignConfig:
    """The :class:`CampaignConfig` a submission's config spells.

    Missing knobs take their defaults; an unknown key or a value the
    config's constructor rejects raises :class:`SubmissionError` (the
    service's 400) with the constructor's message.
    """
    try:
        return CampaignConfig.from_mapping(config)
    except ValueError as exc:
        raise SubmissionError(str(exc)) from exc


def canonical_config(config: Optional[Mapping[str, Any]]) -> Dict[str, Any]:
    """A submission's config in cache-key form: every knob present,
    coerced, the backend name normalized (see :func:`submission_config`)."""
    return submission_config(config).to_dict()


def _namespace() -> Dict[str, Any]:
    """The exec namespace every submitted subject runs in.

    The paper's programmer annotations are available without imports —
    a submission can mark ``@exception_free`` accessors and ``@throws``
    declarations exactly like the in-tree evaluation programs do.
    """
    return {
        "__name__": SERVICE_MODULE_NAME,
        "throws": throws,
        "exception_free": exception_free,
    }


def compile_source(source: str, filename: str = "<submission>") -> CodeType:
    """Compile submitted source without running any of it.

    Raises :class:`SubmissionError` when the source does not compile.
    """
    try:
        return compile(source, filename, "exec")
    except (SyntaxError, ValueError) as exc:  # ValueError: a NUL byte
        raise SubmissionError(f"source does not compile: {exc}") from exc


def subject_filename(source: str, name: str = "subject") -> str:
    """The virtual filename :func:`build_subject` registers *source* under.

    Distinct sources get distinct names (inspect reads sources by
    filename, and a long-running service sees many).
    """
    tag = hashlib.blake2b(source.encode("utf-8"), digest_size=6).hexdigest()
    return f"<service:{name}:{tag}>"


def build_subject(source: str, name: str = "subject") -> AppProgram:
    """Execute submitted source into a fresh :class:`AppProgram`.

    The one place a submitted subject is built: the service's campaign
    worker calls it once per campaign it runs, and shard processes
    inherit the result through the fork.  The source stays registered
    under :func:`subject_filename` until the caller unregisters it
    (:func:`~repro.core.virtualsource.unregister_virtual_source`); a
    build that raises unregisters it itself.

    Raises :class:`SubmissionError` when the source does not compile,
    fails at definition time, defines no ``workload`` callable, or
    defines no classes to instrument.
    """
    filename = register_virtual_source(subject_filename(source, name), source)
    try:
        return _define(compile_source(source, filename), name)
    except BaseException:
        unregister_virtual_source(filename)
        raise


def _define(code: CodeType, name: str) -> AppProgram:
    """Run compiled subject code; the :class:`AppProgram` it defines."""
    namespace = _namespace()
    try:
        exec(code, namespace)
    except Exception as exc:
        raise SubmissionError(
            f"source failed at definition time: "
            f"{type(exc).__name__}: {exc}"
        ) from exc
    workload = namespace.get("workload")
    if not callable(workload):
        raise SubmissionError(
            "source must define a callable workload() — the deterministic "
            "workload the campaign sweeps"
        )
    classes = [
        value
        for value in namespace.values()
        if isinstance(value, type)
        and getattr(value, "__module__", None) == SERVICE_MODULE_NAME
    ]
    if not classes:
        raise SubmissionError("source defines no classes to instrument")
    return AppProgram(
        name=name,
        language=SERVICE_LANGUAGE,
        classes=classes,
        body=workload,
    )


def estimate_cost(source: str, config: CampaignConfig) -> int:
    """A static proxy for a submission's compiled-plan point count.

    The true point count needs a profiling run, which is exactly the
    work cost-aware admission must avoid.  Instead, count the statements
    inside method bodies of the submitted classes — every statement in a
    woven method is a potential injection point — scale by ``rounds``
    (the workload repeats) and divide by ``stride`` (the plan skips).
    It over-counts unexecuted branches and under-counts loops, but it is
    monotone in subject size, which is all an admission policy needs.
    A source that does not parse estimates to 1 (``compile_source``
    rejects it with a 400 anyway).
    """
    try:
        tree = ast.parse(source)
    except SyntaxError:
        return 1
    statements = 0
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for method in node.body:
            if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                statements += sum(
                    1
                    for inner in ast.walk(method)
                    if isinstance(inner, ast.stmt)
                ) - 1  # the def node itself is not a point
    return max(1, (statements * config.rounds) // config.stride)
