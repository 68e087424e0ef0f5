"""Differential conformance harness over generated subject programs.

Every generated program is cross-checked four ways:

1. **Oracle conformance** — the real pipeline's campaign (runs, marks,
   point totals, call counts) and classification must equal the
   spec-level simulation of :mod:`repro.fuzz.oracle`.
2. **Engine equivalence** — the sequential engine and the shard engine
   (``run_app_campaign(workers=N)``) must produce bit-identical merged
   run logs and classifications.  Neither may replay a run
   (``capture-replay``): generated programs are deterministic, so a
   replay means the profile disagreed with a run about its wrapper
   entries, which would otherwise show only as a slower campaign.
3. **Masking soundness** — masking the oracle's pure set and re-running
   detection must classify *every* method failure atomic, under every
   checkpoint strategy of :data:`repro.core.masking.STRATEGIES`.
4. **Observable rollback** — a checker layer between the atomicity and
   injection wrappers asserts that whenever an exception leaves a masked
   method, the receiver's post-rollback object graph equals the graph
   captured on entry.
5. **Backend equivalence** (when fuzzing with a non-graph
   ``state_backend``) — the campaign's run log and classification under
   that backend must be byte-identical to a graph-backend campaign on
   the same program.

A **self-check** mode plants a known defect in one of the checked
components and asserts the harness reports mismatches — guarding against
the failure mode where oracle and pipeline agree because the comparison
is vacuous.

Everything here is deterministic: same seed → identical specs →
identical campaigns → byte-identical report JSON.  No timestamps, no
wall-clock, no unseeded randomness.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core import WrapPolicy
from repro.core.classify import (
    CATEGORY_ATOMIC,
    CATEGORIES,
    ClassificationResult,
)
from repro.core.detector import DetectionResult
from repro.core.masking import STRATEGIES, MaskingStats
from repro.core.policy import select_methods_to_wrap
from repro.core.runlog import log_json_without_provenance
from repro.experiments.campaign import run_app_campaign
from repro.experiments.validation import GraphCheck, mask_and_redetect

from .build import build_program
from .generate import generate_batch
from .oracle import OracleResult, simulate
from .spec import ProgramSpec

__all__ = [
    "DEFECTS",
    "ENGINES",
    "FuzzReport",
    "Mismatch",
    "ProgramVerdict",
    "check_program",
    "run_fuzz",
    "run_self_check",
]

ENGINES = ("sequential", "parallel", "both")

#: Plantable defects for the self-check, and what each one corrupts.
DEFECTS = (
    "swap_pure_conditional",  # classifier: pure and conditional swapped
    "merge_reversed",  # parallel engine: merged runs in reverse order
    "mask_no_rollback",  # masking: wrapper that never rolls back
)


@dataclass
class Mismatch:
    """One disagreement between the pipeline and the ground truth."""

    check: str
    program: str
    detail: str

    def to_dict(self) -> Dict[str, str]:
        return {"check": self.check, "program": self.program, "detail": self.detail}


@dataclass
class ProgramVerdict:
    """All differential-check results for one generated program."""

    spec: ProgramSpec
    mismatches: List[Mismatch]
    stats: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.mismatches


@dataclass
class FuzzReport:
    """Deterministic summary of one fuzzing session."""

    seed: int
    programs: int
    max_depth: int
    engine: str
    workers: int
    defect: Optional[str]
    total_points: int
    total_runs: int
    category_counts: Dict[str, int]
    mismatches: List[Mismatch]
    failing_programs: List[str]
    state_backend: str = "graph"
    trace_derive: bool = False
    total_derived: int = 0
    variants: int = 0
    total_variant_applied: int = 0

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_dict(self) -> Dict:
        return {
            "seed": self.seed,
            "programs": self.programs,
            "max_depth": self.max_depth,
            "engine": self.engine,
            "workers": self.workers,
            "defect": self.defect,
            "state_backend": self.state_backend,
            "trace_derive": self.trace_derive,
            "total_derived": self.total_derived,
            "variants": self.variants,
            "total_variant_applied": self.total_variant_applied,
            "total_points": self.total_points,
            "total_runs": self.total_runs,
            "category_counts": self.category_counts,
            "mismatches": [m.to_dict() for m in self.mismatches],
            "failing_programs": self.failing_programs,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# Campaign runners
# ---------------------------------------------------------------------------


def _campaign(
    spec: ProgramSpec,
    state_backend: str = "graph",
    *,
    trace_derive: bool = False,
    workers: Optional[int] = None,
) -> Tuple[DetectionResult, ClassificationResult]:
    """One campaign: the sequential engine, or with *workers* the shard
    engine."""
    outcome = run_app_campaign(
        build_program(spec),
        workers=workers,
        state_backend=state_backend,
        trace_derive=trace_derive,
    )
    return outcome.detection, outcome.classification


def _check_replays(
    spec: ProgramSpec, detection: DetectionResult, engine: str
) -> List[Mismatch]:
    """A ``capture-replay`` mismatch when *detection* replayed runs."""
    replayed = detection.telemetry.runs_replayed if detection.telemetry else 0
    if not replayed:
        return []
    return [
        Mismatch(
            "capture-replay",
            spec.name,
            f"{engine} campaign replayed {replayed} run(s) of a "
            "deterministic program",
        )
    ]


def _swap_pure_conditional(
    classification: ClassificationResult,
) -> ClassificationResult:
    """Planted classifier defect: swap the two non-atomic categories."""
    swap = {"pure": "conditional", "conditional": "pure"}
    for mc in classification.methods.values():
        mc.category = swap.get(mc.category, mc.category)
    return classification


def _no_rollback_factory(spec):
    """Planted masking defect: claims to wrap, never rolls back."""
    original = spec.func

    @functools.wraps(original)
    def fake_atomic(*args, **kwargs):
        return original(*args, **kwargs)

    fake_atomic._repro_wrapped = original  # type: ignore[attr-defined]
    fake_atomic._repro_kind = "atomicity-defective"  # type: ignore[attr-defined]
    return fake_atomic


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def _check_oracle(
    spec: ProgramSpec,
    oracle: OracleResult,
    detection: DetectionResult,
    classification: ClassificationResult,
    check: str,
) -> List[Mismatch]:
    """Check 1: pipeline output equals the spec-level simulation."""
    out: List[Mismatch] = []

    def bad(detail: str) -> None:
        out.append(Mismatch(check, spec.name, detail))

    if detection.total_points != oracle.total_points:
        bad(
            f"total_points: pipeline {detection.total_points}, "
            f"oracle {oracle.total_points}"
        )
    if detection.genuine_failures:
        bad(f"unexpected genuine failures: {detection.genuine_failures}")
    if detection.log.call_counts != oracle.call_counts:
        bad(
            f"call_counts: pipeline {detection.log.call_counts}, "
            f"oracle {oracle.call_counts}"
        )
    if list(detection.log.methods_seen) != oracle.methods_seen:
        bad(
            f"methods_seen: pipeline {list(detection.log.methods_seen)}, "
            f"oracle {oracle.methods_seen}"
        )
    if len(detection.log.runs) != len(oracle.runs):
        bad(
            f"run count: pipeline {len(detection.log.runs)}, "
            f"oracle {len(oracle.runs)}"
        )
    else:
        for record, expected in zip(detection.log.runs, oracle.runs):
            got = (
                record.injection_point,
                record.injected_method,
                record.injected_exception,
                record.completed,
                record.escaped,
                tuple((m.method, m.verdict) for m in record.marks),
            )
            want = (
                expected.injection_point,
                expected.injected_method,
                expected.injected_exception,
                expected.completed,
                expected.escaped,
                expected.marks,
            )
            if got != want:
                bad(
                    f"run at point {expected.injection_point}: "
                    f"pipeline {got}, oracle {want}"
                )
    got_categories = {
        key: mc.category for key, mc in classification.methods.items()
    }
    if got_categories != oracle.categories:
        bad(
            f"categories: pipeline {got_categories}, "
            f"oracle {oracle.categories}"
        )
    got_wrap = select_methods_to_wrap(classification, WrapPolicy())
    if got_wrap != oracle.to_wrap:
        bad(f"to_wrap: pipeline {got_wrap}, oracle {oracle.to_wrap}")
    return out


def _check_masking(
    spec: ProgramSpec,
    oracle: OracleResult,
    strategy: str,
    defect: Optional[str],
    state_backend: str = "graph",
) -> List[Mismatch]:
    """Checks 3+4: iterated mask → re-detect for one strategy.

    Masking the pure set does not always finish in one round: a method
    classified *conditional* can carry inconsistency of its own that was
    never first-marked because some callee's genuine failure always
    marked that callee earlier in every run — once the callee rolls
    back, the caller's own dirt surfaces and it becomes newly pure (the
    fuzzer found this; the paper's §4.3 answer is to re-run the
    detection phase after modifying the program).  So the check is a
    fixpoint iteration: each round, every *wrapped* method must come
    back failure atomic (rollback soundness — check 3) and every
    exception crossing a wrapped method must restore the receiver graph
    (check 4); newly pure methods join the wrapped set until everything
    is atomic.  Progress is guaranteed for a sound pipeline: while any
    non-atomic method remains, some run has a first non-atomic mark.
    """
    check = f"masking-{strategy}"
    out: List[Mismatch] = []

    def bad(detail: str) -> None:
        out.append(Mismatch(check, spec.name, detail))

    wrapped = list(oracle.to_wrap)
    max_rounds = len(oracle.categories) + 2
    rounds = 0
    while not out:
        rounds += 1
        graph_checks: List[GraphCheck] = []
        stats = MaskingStats()
        detection, classification = mask_and_redetect(
            build_program(spec),
            wrapped,
            strategy=strategy,
            stats=stats,
            graph_checks=graph_checks,
            atomic_factory=(
                _no_rollback_factory if defect == "mask_no_rollback" else None
            ),
            state_backend=state_backend,
        )
        # Wrapper layering must not change the campaign's shape: same
        # points, no genuine failures escaping.
        if detection.total_points != oracle.total_points:
            bad(
                f"round {rounds}: masked total_points "
                f"{detection.total_points}, original {oracle.total_points}"
            )
        if detection.genuine_failures:
            bad(
                f"round {rounds}: masked genuine failures: "
                f"{detection.genuine_failures}"
            )
        # Check 3: every wrapped method is observably atomic on re-run.
        still_wrapped = {
            method: classification.category_of(method)
            for method in wrapped
            if method in classification.methods
            and classification.category_of(method) != CATEGORY_ATOMIC
        }
        if still_wrapped:
            bad(
                f"round {rounds}: wrapped methods still non-atomic: "
                f"{still_wrapped}"
            )
        # Check 4: rollback is observable — each exception leaving a
        # masked method leaves the receiver graph exactly as captured on
        # entry.  Every wrapped method is pure under some earlier round's
        # run structure, so each is crossed by at least one exception.
        observed = {record.method for record in graph_checks}
        unexercised = [m for m in wrapped if m not in observed]
        if unexercised:
            bad(
                f"round {rounds}: masked methods never exercised by an "
                f"exception: {unexercised}"
            )
        for record in [r for r in graph_checks if not r.restored][:3]:
            bad(
                f"round {rounds}: rollback of {record.method} did not "
                f"restore the receiver: {record.detail}"
            )
        if out:
            break
        still = {
            key: mc.category
            for key, mc in classification.methods.items()
            if mc.category != CATEGORY_ATOMIC
        }
        if not still:
            break  # fixpoint: the whole program is failure atomic
        fresh = [
            m
            for m in select_methods_to_wrap(classification, WrapPolicy())
            if m not in set(wrapped)
        ]
        if not fresh:
            bad(
                f"round {rounds}: non-atomic methods remain but none is "
                f"pure, so masking cannot make progress: {still}"
            )
            break
        if rounds >= max_rounds:
            bad(f"no masking fixpoint after {rounds} rounds; left: {still}")
            break
        wrapped = sorted(set(wrapped) | set(fresh))
    return out


def _check_variants(
    spec: ProgramSpec,
    variants: int,
    variant_seed: int,
    state_backend: str,
    trace_derive: bool,
) -> Tuple[List[Mismatch], int]:
    """Check 7: detection invariance across semantic-preserving variants.

    Builds ``variants`` transformed editions of the subject (seeded
    recipes over :mod:`repro.core.variants`) and requires every
    campaign observable — run log modulo provenance, classification,
    per-strategy masking fixpoints, and (when ``trace_derive`` is on)
    the derived campaign output — to be identical between
    the original and each variant.  Returns the mismatches plus the
    total number of rule applications (so reports can prove the corpus
    was not vacuously untransformed).
    """
    from repro.core.variants import (
        build_spec_variant,
        check_invariance,
        make_recipes,
    )

    recipes = make_recipes(variant_seed, variants)
    factories = []
    applications = 0
    for index, recipe in enumerate(recipes):
        tag = index + 1
        _program, module = build_spec_variant(spec, recipe, tag=tag)
        applications += len(module.applied)
        factories.append(
            (
                f"v{tag}",
                functools.partial(
                    _build_variant_program, spec, recipe, tag
                ),
            )
        )
    report = check_invariance(
        spec.name,
        functools.partial(build_program, spec),
        factories,
        state_backend=state_backend,
        trace_derive=trace_derive,
    )
    mismatches = [
        Mismatch(
            "variant-invariance",
            spec.name,
            f"{d.variant} diverges on {d.aspect}: {d.detail}",
        )
        for d in report.divergences
    ]
    return mismatches, applications


def _build_variant_program(spec: ProgramSpec, recipe, tag: int):
    """A fresh build of *spec*'s variant *tag* under *recipe*."""
    from repro.core.variants import build_spec_variant

    return build_spec_variant(spec, recipe, tag=tag)[0]


def check_program(
    spec: ProgramSpec,
    *,
    engine: str = "both",
    workers: int = 2,
    defect: Optional[str] = None,
    state_backend: str = "graph",
    trace_derive: bool = False,
    variants: int = 0,
    variant_seed: int = 0,
) -> ProgramVerdict:
    """Run every differential check for one generated program.

    With a non-graph ``state_backend``, every campaign-based check runs
    under that backend *and* an extra **backend-equivalence** check
    compares its sequential run log and classification byte-for-byte
    against a graph-backend campaign — the fuzzer is the equivalence
    oracle proving the fingerprint backend classifies every generated
    program identically to the reference semantics.

    With ``trace_derive``, a sixth **trace-equivalence** check runs the
    sequential campaign again under ``--trace-derive`` and asserts its
    run log (modulo per-run provenance) and its classification are
    byte-identical to the dynamic sweep — the fuzzer is the soundness
    oracle for the trace-derivation pass.

    With ``variants > 0``, a seventh **variant-invariance** check
    generates that many semantic-preserving AST variants of the subject
    (seeded by ``variant_seed``) and asserts the campaign's observable
    outputs — run log modulo provenance, classification, and both
    masking fixpoints — are identical across the original and every
    variant (see :mod:`repro.core.variants`).
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    if defect is not None and defect not in DEFECTS:
        raise ValueError(f"unknown defect {defect!r}; expected one of {DEFECTS}")
    oracle = simulate(spec)
    mismatches: List[Mismatch] = []

    sequential: Optional[Tuple[DetectionResult, ClassificationResult]] = None
    if engine in ("sequential", "both"):
        detection, classification = _campaign(spec, state_backend)
        if defect == "swap_pure_conditional":
            classification = _swap_pure_conditional(classification)
        sequential = (detection, classification)
        mismatches.extend(
            _check_oracle(spec, oracle, detection, classification, "oracle-sequential")
        )
        mismatches.extend(_check_replays(spec, detection, "sequential"))
        if state_backend != "graph":
            # Check 5: backend equivalence against the reference backend.
            ref_detection, ref_classification = _campaign(
                spec, "graph"
            )
            if detection.log.to_json() != ref_detection.log.to_json():
                mismatches.append(
                    Mismatch(
                        "backend-equivalence",
                        spec.name,
                        f"{state_backend} and graph run logs differ",
                    )
                )
            elif classification.to_json() != ref_classification.to_json():
                mismatches.append(
                    Mismatch(
                        "backend-equivalence",
                        spec.name,
                        f"{state_backend} and graph classifications differ",
                    )
                )
    if engine in ("parallel", "both"):
        detection, classification = _campaign(
            spec, state_backend, workers=workers
        )
        if defect == "merge_reversed":
            detection.log.runs.reverse()
        mismatches.extend(_check_replays(spec, detection, "parallel"))
        if sequential is not None:
            # Check 2: merged parallel output is bit-identical to the
            # sequential engine's (same plan, deterministic merge).
            if sequential[0].log.to_json() != detection.log.to_json():
                mismatches.append(
                    Mismatch(
                        "engine-equivalence",
                        spec.name,
                        "sequential and parallel run logs differ",
                    )
                )
            elif sequential[1].to_json() != classification.to_json():
                mismatches.append(
                    Mismatch(
                        "engine-equivalence",
                        spec.name,
                        "sequential and parallel classifications differ",
                    )
                )
        else:
            mismatches.extend(
                _check_oracle(
                    spec, oracle, detection, classification, "oracle-parallel"
                )
            )

    runs_derived = 0
    if trace_derive:
        # Check 6: trace equivalence against the fully dynamic sweep.
        reference = sequential
        if reference is None:
            reference = _campaign(spec, state_backend)
        derived_detection, derived_classification = _campaign(
            spec, state_backend, trace_derive=True
        )
        if derived_detection.telemetry is not None:
            runs_derived = derived_detection.telemetry.runs_derived
        if log_json_without_provenance(
            derived_detection.log
        ) != log_json_without_provenance(reference[0].log):
            mismatches.append(
                Mismatch(
                    "trace-equivalence",
                    spec.name,
                    "derived and dynamic run logs differ (modulo provenance)",
                )
            )
        elif derived_classification.to_json() != reference[1].to_json():
            mismatches.append(
                Mismatch(
                    "trace-equivalence",
                    spec.name,
                    "derived and dynamic classifications differ",
                )
            )

    for strategy in STRATEGIES:
        mismatches.extend(
            _check_masking(spec, oracle, strategy, defect, state_backend)
        )

    variant_applied = 0
    if variants > 0:
        # Check 7: variant invariance (see _check_variants).
        variant_mismatches, variant_applied = _check_variants(
            spec,
            variants,
            variant_seed,
            state_backend,
            trace_derive,
        )
        mismatches.extend(variant_mismatches)

    stats = {
        "total_points": oracle.total_points,
        "runs": len(oracle.runs),
        "runs_derived": runs_derived,
        "variant_applied": variant_applied,
    }
    for category in CATEGORIES:
        stats[f"methods_{category}"] = sum(
            1 for c in oracle.categories.values() if c == category
        )
    return ProgramVerdict(spec=spec, mismatches=mismatches, stats=stats)


def run_fuzz(
    seed: int,
    programs: int,
    *,
    max_depth: int = 3,
    engine: str = "both",
    workers: int = 2,
    defect: Optional[str] = None,
    state_backend: str = "graph",
    trace_derive: bool = False,
    variants: int = 0,
    progress: Optional[Callable[[int, int, ProgramVerdict], None]] = None,
) -> FuzzReport:
    """Fuzz ``programs`` generated subjects; return the aggregate report.

    Args:
        state_backend: backend the checked campaigns compare state with;
            a non-graph value additionally enables the per-program
            backend-equivalence check (see :func:`check_program`).
        trace_derive: additionally run each program's sequential campaign
            under the trace-derivation pass and assert trace equivalence
            (see :func:`check_program`).
        variants: when positive, additionally check detection invariance
            across this many semantic-preserving AST variants of every
            program — Check 7 (recipes seeded by the fuzz seed).
        progress: optional ``(done, total, verdict)`` callback after each
            program (the CLI prints a line per failure).
    """
    specs = generate_batch(seed, programs, max_depth=max_depth)
    mismatches: List[Mismatch] = []
    failing: List[str] = []
    total_points = 0
    total_runs = 0
    total_derived = 0
    total_variant_applied = 0
    category_counts = {category: 0 for category in CATEGORIES}
    for index, spec in enumerate(specs):
        verdict = check_program(
            spec,
            engine=engine,
            workers=workers,
            defect=defect,
            state_backend=state_backend,
            trace_derive=trace_derive,
            variants=variants,
            variant_seed=seed,
        )
        total_points += verdict.stats["total_points"]
        total_runs += verdict.stats["runs"]
        total_derived += verdict.stats.get("runs_derived", 0)
        total_variant_applied += verdict.stats.get("variant_applied", 0)
        for category in CATEGORIES:
            category_counts[category] += verdict.stats[f"methods_{category}"]
        if not verdict.ok:
            mismatches.extend(verdict.mismatches)
            failing.append(spec.name)
        if progress is not None:
            progress(index + 1, len(specs), verdict)
    return FuzzReport(
        seed=seed,
        programs=programs,
        max_depth=max_depth,
        engine=engine,
        workers=workers,
        defect=defect,
        total_points=total_points,
        total_runs=total_runs,
        category_counts=category_counts,
        mismatches=mismatches,
        failing_programs=failing,
        state_backend=state_backend,
        trace_derive=trace_derive,
        total_derived=total_derived,
        variants=variants,
        total_variant_applied=total_variant_applied,
    )


def run_self_check(
    seed: int,
    *,
    programs_per_defect: int = 8,
    max_depth: int = 3,
    workers: int = 2,
) -> Dict[str, bool]:
    """Plant each known defect; return whether the fuzzer caught it.

    A defect is *caught* when at least one generated program yields a
    mismatch that a defect-free run of the same batch does not.  The
    clean batch is checked first — a dirty baseline would make the
    defect runs meaningless.
    """
    clean = run_fuzz(
        seed,
        programs_per_defect,
        max_depth=max_depth,
        engine="both",
        workers=workers,
    )
    if not clean.ok:
        raise AssertionError(
            "self-check baseline is dirty — fix these real mismatches "
            f"first: {[m.to_dict() for m in clean.mismatches[:3]]}"
        )
    results: Dict[str, bool] = {}
    for defect in DEFECTS:
        report = run_fuzz(
            seed,
            programs_per_defect,
            max_depth=max_depth,
            engine="both",
            workers=workers,
            defect=defect,
        )
        results[defect] = not report.ok
    return results
