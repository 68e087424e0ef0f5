"""One-call hardening: the whole Figure-1 pipeline behind a single API.

For users who want the paper's end result — "my classes, made failure
atomic" — without driving the analyzer/weaver/detector/masker by hand::

    from repro.core import harden

    result = harden([Stack, Queue], workload)
    print(result.summary())
    # classes are now masked; undo with result.unmask() or use as a
    # context manager:

    with harden([Stack], workload) as result:
        ...   # masked here
    # originals restored

``harden`` runs the detection campaign over *workload*, classifies every
method, applies the wrap policy, weaves atomicity wrappers for exactly
the methods that need them, and returns a :class:`HardeningResult` with
everything the campaign learned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Sequence

from .analyzer import Analyzer
from .classify import ClassificationResult
from .detector import CallableProgram, DetectionResult, Detector
from .injection import InjectionCampaign, make_injection_wrapper
from .masking import Masker, MaskingStats
from .policy import WrapPolicy, reclassify, select_methods_to_wrap
from .runlog import MethodKey
from .weaver import Weaver

__all__ = ["harden", "HardeningResult"]


@dataclass
class HardeningResult:
    """Everything :func:`harden` did, plus the handle to undo it."""

    classes: List[type]
    detection: DetectionResult
    classification: ClassificationResult
    wrapped: List[MethodKey]
    stats: MaskingStats
    _masker: Masker = field(repr=False, default=None)

    def summary(self) -> str:
        counts = self.classification.counts_by_methods()
        return (
            f"{len(self.classes)} classes, "
            f"{len(self.classification.methods)} methods analyzed "
            f"({self.detection.total_injections} injections): "
            f"{counts['atomic']} atomic, "
            f"{counts['conditional']} conditional, "
            f"{counts['pure']} pure non-atomic; "
            f"masked {len(self.wrapped)}: {self.wrapped}"
        )

    def explain(self, method: MethodKey) -> str:
        return self.classification.explain(method)

    def unmask(self) -> None:
        """Restore the original (unwrapped) methods."""
        if self._masker is not None:
            self._masker.unmask_all()

    def __enter__(self) -> "HardeningResult":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.unmask()


def harden(
    classes: Sequence[type],
    workload: Callable[[], None],
    *,
    modules: Sequence = (),
    policy: Optional[WrapPolicy] = None,
    exclude: Iterable[str] = (),
    stride: int = 1,
    name: str = "workload",
) -> HardeningResult:
    """Detect failure non-atomic methods of *classes* and mask them.

    Args:
        classes: the classes to analyze and (where needed) mask.
        modules: modules whose top-level functions are analyzed and
            masked alongside the classes.
        workload: a deterministic, re-runnable callable exercising the
            classes; it is executed once per injection point.
        policy: wrap policy (never-wrap / manual-fix / exception-free /
            wrap-conditional); merged with the ``@exception_free``
            annotations found on the classes.
        exclude: method names (or ``"Class.method"`` keys) to leave
            uninstrumented.
        stride: inject at every *stride*-th point (1 = full sweep).

    Returns:
        A :class:`HardeningResult`; the classes are already masked when
        it returns.  Call :meth:`HardeningResult.unmask` (or use it as a
        context manager) to restore the originals.
    """
    classes = list(classes)
    analyzer = Analyzer(exclude=exclude)
    campaign = InjectionCampaign()
    weaver = Weaver(
        lambda spec: make_injection_wrapper(spec, campaign), analyzer
    )
    with weaver:
        specs = weaver.weave_classes(classes)
        for module in modules:
            specs.extend(weaver.weave_module_functions(module))
        detector = Detector(
            CallableProgram(name, workload), campaign, stride=stride
        )
        detection = detector.detect()

    effective = WrapPolicy.from_specs(specs)
    if policy is not None:
        effective = effective.merged_with(policy)
    classification = reclassify(detection.log, effective)
    wrapped = select_methods_to_wrap(classification, effective)

    stats = MaskingStats()
    masker = Masker(wrapped, stats=stats, analyzer=analyzer)
    masker.mask_classes(classes)
    for module in modules:
        masker.mask_module_functions(module)
    return HardeningResult(
        classes=classes,
        detection=detection,
        classification=classification,
        wrapped=wrapped,
        stats=stats,
        _masker=masker,
    )
