"""Validate the masking phase with the detector itself.

The paper closes its loop in two places: Section 4.3 ("the programmer
... can re-run the detection phase to test the modifications") and the
masking phase's whole premise that the corrected program ``P_C`` is
failure atomic.  This module re-runs the injection campaign *on the
masked program*: atomicity wrappers are woven first (innermost), then
injection wrappers on top, so every injected or genuine exception passes
through the rollback before the detector compares object graphs.

Either checkpoint strategy of :mod:`repro.core.masking` can back the
atomicity wrappers; it covers every program class for the duration of
the masked campaign.  The ``undolog`` strategy is only sound for
programs whose state changes through attribute (re)assignment; in-place
container mutation bypasses its write barrier, so such an application
honestly reports INEFFECTIVE.

The expected verdict — asserted by tests and reported by the harness —
is that every method that was wrapped is classified failure atomic in
the second campaign.
"""

from __future__ import annotations

import contextlib
import functools
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core import (
    Analyzer,
    InjectionCampaign,
    MaskingStats,
    WrapPolicy,
    make_injection_wrapper,
    reclassify,
)
from repro.core.classify import CATEGORY_ATOMIC, ClassificationResult
from repro.core.detector import DetectionResult, Detector
from repro.core.exceptions import InjectionAbort
from repro.core.masking import get_strategy, make_atomicity_wrapper
from repro.core.policy import select_methods_to_wrap
from repro.core.state import capture_frame, graph_diff_live
from repro.core.runlog import MethodKey
from repro.core.weaver import Weaver

from .campaign import CampaignOutcome, run_app_campaign
from .programs import AppProgram

__all__ = [
    "GraphCheck",
    "MaskingValidation",
    "mask_and_redetect",
    "validate_masking",
]


@dataclass
class GraphCheck:
    """One rollback observation from the checker layer.

    Recorded every time an exception propagates out of a masked method:
    ``restored`` says whether the receiver's post-rollback object graph
    equals the graph captured on entry (the observable definition of
    failure atomicity), ``detail`` carries the first difference when not.
    """

    method: MethodKey
    restored: bool
    detail: Optional[str] = None


@dataclass
class MaskingValidation:
    """Outcome of the detect → mask → re-detect loop for one app."""

    program_name: str
    first: CampaignOutcome
    wrapped: List[MethodKey]
    second_classification: ClassificationResult
    masking_stats: MaskingStats
    strategy: str = "snapshot"

    @property
    def still_nonatomic(self) -> List[MethodKey]:
        """Wrapped methods the second campaign still flags (must be [])."""
        return [
            method
            for method in self.wrapped
            if method in self.second_classification.methods
            and self.second_classification.category_of(method)
            != CATEGORY_ATOMIC
        ]

    @property
    def masking_effective(self) -> bool:
        return not self.still_nonatomic

    def summary(self) -> str:
        verdict = "EFFECTIVE" if self.masking_effective else "INEFFECTIVE"
        return (
            f"{self.program_name}: masked {len(self.wrapped)} methods "
            f"({self.strategy}), "
            f"{self.masking_stats.rollbacks} rollbacks during re-detection, "
            f"masking {verdict}"
            + (
                f" (still non-atomic: {self.still_nonatomic})"
                if self.still_nonatomic
                else ""
            )
        )


def _make_graph_checker(spec, records: List[GraphCheck]):
    """Wrapper layer observing whether rollback actually restored state.

    Woven *between* the atomicity wrapper (inner) and the injection
    wrapper (outer), it captures the receiver's graph on entry and, when
    an exception unwinds through it — i.e. after the atomicity wrapper's
    rollback ran — compares that graph with the live receiver and records
    whether they match.  It adds no injection points and never swallows
    the exception.
    """
    original = spec.func
    has_receiver = spec.has_receiver

    @functools.wraps(original)
    def check_m(*args, **kwargs):
        receiver = args[0] if has_receiver and args else None
        if receiver is None:
            return original(*args, **kwargs)
        roots = [("self", receiver)]
        before = capture_frame(roots)
        try:
            return original(*args, **kwargs)
        except InjectionAbort:
            raise
        except BaseException:
            difference = graph_diff_live(before, roots)
            if difference is None:
                records.append(GraphCheck(spec.key, True))
            else:
                records.append(GraphCheck(spec.key, False, str(difference)))
            raise

    check_m._repro_wrapped = original  # type: ignore[attr-defined]
    check_m._repro_spec = spec  # type: ignore[attr-defined]
    check_m._repro_kind = "graph-checker"  # type: ignore[attr-defined]
    return check_m


def mask_and_redetect(
    program: AppProgram,
    to_wrap: List[MethodKey],
    *,
    strategy: str = "snapshot",
    stride: int = 1,
    policy: Optional[WrapPolicy] = None,
    stats: Optional[MaskingStats] = None,
    graph_checks: Optional[List[GraphCheck]] = None,
    atomic_factory=None,
    state_backend: str = "graph",
) -> Tuple[DetectionResult, ClassificationResult]:
    """Weave atomicity wrappers for *to_wrap*, re-run the campaign.

    Layering, innermost first: original method → atomicity wrapper
    (masked methods only) → graph checker (masked methods, when
    ``graph_checks`` is given — observations are appended to that list)
    → injection wrapper (every method).  All wrappers preserve the
    method's declared-exception metadata, so the masked campaign has the
    same injection points, in the same order, as the original one.

    Args:
        strategy: a :data:`repro.core.masking.STRATEGIES` name.
        policy: merged into the woven specs' exception-free policy before
            the final classification.
        atomic_factory: override the strategy's wrapper factory (a
            ``MethodSpec -> callable``); the fuzz harness's self-check
            uses this to plant a rollback-free wrapper and assert the
            differential checks notice.
        state_backend: backend the *re-detection* campaign compares
            state with.  The graph-checker layer always uses full graph
            captures regardless — it is the independent observer whose
            verdict must not depend on the backend under test.

    Returns:
        ``(detection, classification)`` of the masked campaign.
    """
    checkpoints = get_strategy(strategy)
    if stats is None:
        stats = MaskingStats()
    wrap_set = set(to_wrap)
    analyzer = Analyzer(exclude=program.exclude)
    if atomic_factory is None:
        atomic_factory = lambda spec: make_atomicity_wrapper(  # noqa: E731
            spec, stats=stats, strategy=strategy
        )
    campaign = InjectionCampaign(state_backend=state_backend)
    atomic_weaver = Weaver(atomic_factory, analyzer)
    injection_weaver = Weaver(
        lambda spec: make_injection_wrapper(spec, campaign), analyzer
    )

    def weave_selected(weaver: Weaver) -> None:
        for cls in program.classes:
            wanted = [
                spec.name
                for spec in analyzer.analyze_class(cls)
                if spec.key in wrap_set
            ]
            if wanted:
                weaver.weave_class(cls, methods=wanted)

    try:
        checkpoints.cover(program.classes)
        with contextlib.ExitStack() as layers:
            weave_selected(layers.enter_context(atomic_weaver))
            if graph_checks is not None:
                checker = Weaver(
                    lambda spec: _make_graph_checker(spec, graph_checks),
                    analyzer,
                )
                weave_selected(layers.enter_context(checker))
            layers.enter_context(injection_weaver)
            specs = injection_weaver.weave_classes(program.classes)
            detection = Detector(program, campaign, stride=stride).detect()
        effective = WrapPolicy.from_specs(specs)
        if policy is not None:
            effective = effective.merged_with(policy)
        classification = reclassify(detection.log, effective)
    finally:
        checkpoints.uncover(program.classes)
    return detection, classification


def validate_masking(
    program: AppProgram,
    *,
    stride: int = 1,
    policy: Optional[WrapPolicy] = None,
    wrap_conditional: bool = False,
    strategy: str = "snapshot",
    state_backend: str = "graph",
    trace_derive: bool = False,
) -> MaskingValidation:
    """Detect, mask, and re-detect; return both campaigns' verdicts.

    Args:
        program: the evaluation application.
        stride: injection-point stride for both campaigns.
        policy: extra wrap policy merged into the first campaign's.
        wrap_conditional: also wrap conditional methods (§4.3 says this
            is unnecessary — the validation proves it, since conditional
            methods come back atomic once their pure callees are masked).
        strategy: checkpoint strategy for the masked campaign's wrappers.
        state_backend: state backend both campaigns compare state with.
        trace_derive: derive the *first* campaign's trace-decidable
            points from one instrumented reference run.  It never
            applies to the masked re-detection — the rollback behavior
            under test must be observed by real execution.
    """
    first = run_app_campaign(
        program,
        stride=stride,
        policy=policy,
        state_backend=state_backend,
        trace_derive=trace_derive,
    )
    selection_policy = WrapPolicy(wrap_conditional=wrap_conditional)
    if policy is not None:
        selection_policy = selection_policy.merged_with(policy)
    to_wrap = select_methods_to_wrap(first.classification, selection_policy)

    stats = MaskingStats()
    _, second = mask_and_redetect(
        program,
        to_wrap,
        strategy=strategy,
        stride=stride,
        policy=policy,
        stats=stats,
        state_backend=state_backend,
    )
    return MaskingValidation(
        program_name=program.name,
        first=first,
        wrapped=to_wrap,
        second_classification=second,
        masking_stats=stats,
        strategy=strategy,
    )
