"""Ground-truth atomicity fuzzer: random subject programs + oracle.

Layout:

* :mod:`~repro.fuzz.spec` — picklable/JSON-round-trippable program specs.
* :mod:`~repro.fuzz.generate` — seeded, deterministic spec generation.
* :mod:`~repro.fuzz.build` — spec → rendered source → ``AppProgram``.
* :mod:`~repro.fuzz.oracle` — independent simulation of the campaign
  semantics; the ground truth every check compares against.
* :mod:`~repro.fuzz.harness` — the four differential checks, the batch
  runner, and the classifier-mutation self-check.
* :mod:`~repro.fuzz.shrink` — greedy minimization of failing specs.
"""

from .build import FuzzDeclaredError, build_program, render_source
from .generate import generate_batch, generate_guarded, generate_program
from .harness import (
    DEFECTS,
    FuzzReport,
    Mismatch,
    ProgramVerdict,
    check_program,
    run_fuzz,
    run_self_check,
)
from .oracle import OracleResult, simulate
from .shrink import make_failure_predicate, shrink
from .spec import ClassDef, MethodDef, ProgramSpec

__all__ = [
    "DEFECTS",
    "ClassDef",
    "FuzzDeclaredError",
    "FuzzReport",
    "MethodDef",
    "Mismatch",
    "OracleResult",
    "ProgramSpec",
    "ProgramVerdict",
    "build_program",
    "check_program",
    "generate_batch",
    "generate_guarded",
    "generate_program",
    "make_failure_predicate",
    "render_source",
    "run_fuzz",
    "run_self_check",
    "shrink",
    "simulate",
]
