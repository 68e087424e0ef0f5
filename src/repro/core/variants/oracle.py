"""The detection-invariance oracle.

Detection verdicts are claims about program *semantics* — whether a
handler restores the receiver — while every analysis in the pipeline
reasons over *syntax and traces*.  The oracle closes that gap: run the
full campaign on a subject and on semantic-preserving variants of it,
and require the observable outputs to be identical.

What must match (:func:`campaign_bundle` collects it, all as canonical
JSON so divergences are byte-comparable and reportable):

* the detection **run log** modulo per-run provenance tags (variants
  legitimately differ in how many points the trace pass decides);
* the **classification** (categories, calls, marks, pure evidence);
* the **masking fixpoint**: per strategy, each round's wrapped set and
  resulting classification until everything is failure atomic;
* optionally the trace-**derived** campaign output, again modulo
  provenance.

:func:`diff_bundles` compares two bundles field by field;
:func:`check_invariance` drives original-vs-variants for a list of
subjects produced by caller-supplied factories (fresh programs per
campaign — masking rounds need unwoven classes).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core import WrapPolicy
from repro.core.classify import CATEGORY_ATOMIC
from repro.core.policy import select_methods_to_wrap
from repro.core.runlog import log_json_without_provenance

__all__ = [
    "CampaignBundle",
    "Divergence",
    "InvarianceReport",
    "campaign_bundle",
    "check_invariance",
    "diff_bundles",
]

#: Safety valve for the masking fixpoint (same bound as the fuzz
#: harness: every productive round wraps at least one fresh method).
_EXTRA_ROUNDS = 2


@dataclass(frozen=True)
class Divergence:
    """One observable difference between a variant and its original."""

    subject: str
    variant: str
    aspect: str
    detail: str

    def to_dict(self) -> Dict[str, str]:
        return {
            "subject": self.subject,
            "variant": self.variant,
            "aspect": self.aspect,
            "detail": self.detail,
        }


@dataclass
class CampaignBundle:
    """Everything invariance compares, for one subject program."""

    log: str
    classification: str
    masking: Dict[str, str] = field(default_factory=dict)
    trace: Optional[str] = None

    def aspects(self) -> Dict[str, Optional[str]]:
        out: Dict[str, Optional[str]] = {
            "log": self.log,
            "classification": self.classification,
            "trace": self.trace,
        }
        for strategy, rounds in self.masking.items():
            out[f"masking-{strategy}"] = rounds
        return out


def _masking_rounds(
    make_program: Callable[[], object],
    classification,
    strategy: str,
    state_backend: str,
) -> str:
    """Iterate mask → re-detect to the fixpoint; return the canonical
    JSON transcript of every round (wrapped set + classification)."""
    from repro.experiments.validation import mask_and_redetect

    wrapped = sorted(select_methods_to_wrap(classification, WrapPolicy()))
    max_rounds = len(classification.methods) + _EXTRA_ROUNDS
    rounds: List[Dict] = []
    while True:
        detection, masked = mask_and_redetect(
            make_program(),
            wrapped,
            strategy=strategy,
            state_backend=state_backend,
        )
        rounds.append(
            {
                "wrapped": list(wrapped),
                "log": json.loads(log_json_without_provenance(detection.log)),
                "classification": json.loads(masked.to_json()),
            }
        )
        still = sorted(
            key
            for key, mc in masked.methods.items()
            if mc.category != CATEGORY_ATOMIC
        )
        if not still:
            break
        fresh = [
            m
            for m in select_methods_to_wrap(masked, WrapPolicy())
            if m not in set(wrapped)
        ]
        if not fresh or len(rounds) >= max_rounds:
            rounds.append({"stuck": still})
            break
        wrapped = sorted(set(wrapped) | set(fresh))
    return json.dumps(rounds, sort_keys=True)


def campaign_bundle(
    make_program: Callable[[], object],
    *,
    state_backend: str = "graph",
    trace_derive: bool = False,
    masking: bool = True,
    strategies: Sequence[str] = ("snapshot", "undolog"),
) -> CampaignBundle:
    """Run the campaign(s) for one subject; collect comparable outputs.

    Args:
        make_program: zero-arg factory returning the subject
            :class:`~repro.experiments.programs.AppProgram`.  Called
            once per campaign — return a freshly built program when the
            subject is rebuilt from a spec, or the same (unwoven)
            program object for real applications.
        trace_derive: additionally run the campaign under the trace
            pass and include its output (modulo provenance) in the
            bundle.
        masking: include the per-strategy masking fixpoint transcript.
    """
    from repro.experiments.campaign import run_app_campaign

    outcome = run_app_campaign(make_program(), state_backend=state_backend)
    bundle = CampaignBundle(
        log=log_json_without_provenance(outcome.detection.log),
        classification=outcome.classification.to_json(),
    )
    if masking:
        for strategy in strategies:
            bundle.masking[strategy] = _masking_rounds(
                make_program,
                outcome.classification,
                strategy,
                state_backend,
            )
    if trace_derive:
        derived = run_app_campaign(
            make_program(), state_backend=state_backend, trace_derive=True
        )
        bundle.trace = json.dumps(
            {
                "log": json.loads(
                    log_json_without_provenance(derived.detection.log)
                ),
                "classification": json.loads(derived.classification.to_json()),
            },
            sort_keys=True,
        )
    return bundle


def _first_difference(a: str, b: str, window: int = 80) -> str:
    """A short, position-anchored excerpt of where two strings diverge."""
    limit = min(len(a), len(b))
    at = next((i for i in range(limit) if a[i] != b[i]), limit)
    return (
        f"at byte {at}: original ...{a[max(0, at - 20):at + window]!r} "
        f"variant ...{b[max(0, at - 20):at + window]!r}"
    )


def diff_bundles(
    base: CampaignBundle,
    other: CampaignBundle,
    *,
    subject: str,
    variant: str,
) -> List[Divergence]:
    """Every aspect on which *other* differs from *base*."""
    out: List[Divergence] = []
    base_aspects = base.aspects()
    other_aspects = other.aspects()
    for aspect in sorted(set(base_aspects) | set(other_aspects)):
        a, b = base_aspects.get(aspect), other_aspects.get(aspect)
        if a == b:
            continue
        if a is None or b is None:
            detail = "present only on " + ("original" if b is None else "variant")
        else:
            detail = _first_difference(a, b)
        out.append(
            Divergence(
                subject=subject, variant=variant, aspect=aspect, detail=detail
            )
        )
    return out


@dataclass
class InvarianceReport:
    """Outcome of an original-vs-variants invariance check."""

    subject: str
    variants: int
    divergences: List[Divergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def to_dict(self) -> Dict:
        return {
            "subject": self.subject,
            "variants": self.variants,
            "ok": self.ok,
            "divergences": [d.to_dict() for d in self.divergences],
        }


def check_invariance(
    subject: str,
    make_original: Callable[[], object],
    variant_factories: Sequence[Tuple[str, Callable[[], object]]],
    **bundle_kwargs,
) -> InvarianceReport:
    """Campaign the original and every variant; report all divergences.

    Args:
        subject: display name of the subject program.
        make_original: program factory for the untransformed subject.
        variant_factories: ``(label, factory)`` per variant.
        bundle_kwargs: forwarded to :func:`campaign_bundle`.
    """
    base = campaign_bundle(make_original, **bundle_kwargs)
    report = InvarianceReport(subject=subject, variants=len(variant_factories))
    for label, factory in variant_factories:
        bundle = campaign_bundle(factory, **bundle_kwargs)
        report.divergences.extend(
            diff_bundles(base, bundle, subject=subject, variant=label)
        )
    return report
