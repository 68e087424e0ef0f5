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

Campaign configs are canonicalized before they reach the result cache:
defaults filled, values coerced, keys sorted, unknown keys rejected.
Two submissions that mean the same campaign therefore produce the same
:func:`~repro.service.cache.submission_digest` even when they spell the
config differently.
"""

from __future__ import annotations

import ast
import hashlib
from types import CodeType
from typing import Any, Dict, Mapping, Optional

from repro.core.exceptions import exception_free, throws
from repro.core.state import get_backend
from repro.core.virtualsource import (
    register_virtual_source,
    unregister_virtual_source,
)
from repro.experiments.programs import AppProgram

__all__ = [
    "SERVICE_MODULE_NAME",
    "SERVICE_LANGUAGE",
    "SubmissionError",
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

#: Campaign config keys the service accepts, with their defaults.  The
#: canonical form of a config is this dict updated with the submitted
#: values — every key present, every value coerced.
CONFIG_DEFAULTS: Dict[str, Any] = {
    "stride": 1,
    "rounds": 1,
    "state_backend": "graph",
    "trace_derive": False,
    "workers": None,
    "timeout": None,
    "retries": 1,
}


class SubmissionError(ValueError):
    """A submission (source or config) the service must reject."""


def canonical_config(config: Optional[Mapping[str, Any]]) -> Dict[str, Any]:
    """Validate and canonicalize a campaign config.

    Fills defaults, coerces value types, normalizes the backend name
    through its registry, and rejects unknown keys and a ``timeout``
    without ``workers`` — so the config that reaches the cache key is
    exactly the config the campaign will run with.
    """
    config = dict(config or {})
    unknown = set(config) - set(CONFIG_DEFAULTS)
    if unknown:
        raise SubmissionError(
            f"unknown config keys: {sorted(unknown)} "
            f"(known: {sorted(CONFIG_DEFAULTS)})"
        )
    out = dict(CONFIG_DEFAULTS)
    out.update(config)
    try:
        out["stride"] = int(out["stride"])
        out["rounds"] = int(out["rounds"])
        out["retries"] = int(out["retries"])
        out["trace_derive"] = bool(out["trace_derive"])
        if out["workers"] is not None:
            out["workers"] = int(out["workers"])
        if out["timeout"] is not None:
            out["timeout"] = float(out["timeout"])
    except (TypeError, ValueError) as exc:
        raise SubmissionError(f"bad config value: {exc}") from exc
    if out["stride"] < 1:
        raise SubmissionError("stride must be >= 1")
    if out["rounds"] < 1:
        raise SubmissionError("rounds must be >= 1")
    if out["retries"] < 0:
        raise SubmissionError("retries must be >= 0")
    if out["workers"] is not None and out["workers"] < 1:
        raise SubmissionError("workers must be >= 1")
    if out["timeout"] is not None and out["timeout"] <= 0:
        raise SubmissionError("timeout must be > 0")
    if out["timeout"] is not None and out["workers"] is None:
        raise SubmissionError(
            "timeout needs workers: the per-run budget is SIGALRM in a "
            "shard process, and a campaign without workers has none"
        )
    try:
        out["state_backend"] = get_backend(str(out["state_backend"])).name
    except ValueError as exc:
        raise SubmissionError(str(exc)) from exc
    return out


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


def estimate_cost(source: str, config: Mapping[str, Any]) -> int:
    """A static proxy for a submission's compiled-plan point count.

    The true point count needs a profiling run, which is exactly the
    work cost-aware admission must avoid.  Instead, count the statements
    inside method bodies of the submitted classes — every statement in a
    woven method is a potential injection point — scale by ``rounds``
    (the workload repeats) and divide by ``stride`` (the plan skips).
    It over-counts unexecuted branches and under-counts loops, but it is
    monotone in subject size, which is all an admission policy needs.

    *config* should already be canonical; a source that does not parse
    estimates to 1 (``compile_source`` rejects it with a 400 anyway).
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
    rounds = int(config.get("rounds", 1) or 1)
    stride = int(config.get("stride", 1) or 1)
    return max(1, (statements * rounds) // max(1, stride))
