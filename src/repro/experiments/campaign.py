"""Campaign driver: run the full detection pipeline on one application.

Glues the pieces of Figure 1 together for an :class:`AppProgram`:
analyze + weave (Steps 1–2), inject (Step 3), classify, and build the
report rows the paper's tables and figures are made of.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core import (
    Analyzer,
    AppReport,
    CampaignTelemetry,
    ClassificationResult,
    DetectionResult,
    Detector,
    InjectionCampaign,
    Weaver,
    WrapPolicy,
    build_app_report,
    make_injection_wrapper,
    reclassify,
)

from .config import CampaignConfig
from .programs import ALL_PROGRAMS, AppProgram

__all__ = [
    "CampaignOutcome",
    "run_app_campaign",
    "run_campaign",
    "run_programs",
    "library_wide_classification",
    "save_outcome",
    "load_outcome",
]


@dataclass
class CampaignOutcome:
    """Everything a finished campaign produced for one application."""

    program: AppProgram
    detection: DetectionResult
    classification: ClassificationResult
    report: AppReport

    @property
    def name(self) -> str:
        return self.program.name

    @property
    def telemetry(self) -> Optional[CampaignTelemetry]:
        """The engine telemetry of the detection phase (may be ``None``)."""
        return self.detection.telemetry


def run_app_campaign(
    program: AppProgram,
    *,
    stride: int = 1,
    policy: Optional[WrapPolicy] = None,
    scale: int = 1,
    workers: Optional[int] = None,
    resume: bool = False,
    journal: Optional[str] = None,
    timeout: Optional[float] = None,
    retries: int = 1,
    progress: Optional[Callable[[int, int], None]] = None,
    state_backend: str = "graph",
    trace_derive: bool = False,
) -> CampaignOutcome:
    """:func:`run_campaign` with the knobs of a :class:`CampaignConfig`
    spelled as keywords (``scale`` is its ``rounds``)."""
    config = CampaignConfig(
        stride=stride, rounds=scale, state_backend=state_backend,
        trace_derive=trace_derive, workers=workers, timeout=timeout,
        retries=retries,
    )
    return run_campaign(
        program, config, policy=policy, resume=resume, journal=journal,
        progress=progress,
    )


def run_campaign(
    program: AppProgram,
    config: CampaignConfig = CampaignConfig(),
    *,
    policy: Optional[WrapPolicy] = None,
    resume: bool = False,
    journal: Optional[str] = None,
    progress: Optional[Callable[[int, int], None]] = None,
) -> CampaignOutcome:
    """Run detection + classification for one application.

    Args:
        program: the evaluation application (see
            :mod:`repro.experiments.programs`), or any other
            :class:`AppProgram`: shard processes inherit it through the
            fork.
        config: the campaign's knobs.  With ``workers`` or a
            ``timeout``, a *journal* or *resume*, the campaign runs on
            the shard engine
            (:class:`~repro.experiments.supervise.ShardSupervisor`), with
            a result identical to the sequential engine's.
        policy: optional wrap policy; its exception-free set filters runs
            before classification (Section 4.3).
        resume: skip injection points already recorded in ``journal``
            (whose fragments also fix the shard count).
        journal: directory of the journal fragments (``shard-NN.jsonl``,
            which ``repro merge`` reads); a temporary one when unset.
        progress: optional ``(runs_done, runs_total)`` callback.
    """
    scaled = config.scaled(program)
    if resume or journal is not None or config.sequential() != config:
        from .supervise import ShardSupervisor

        if resume and journal is None:
            raise ValueError("resume=True requires a journal directory")
        with (
            tempfile.TemporaryDirectory(prefix="repro-campaign-")
            if journal is None
            else contextlib.nullcontext(journal)
        ) as workdir:
            merged = ShardSupervisor().run(
                lambda: program,
                config.workers or os.cpu_count() or 1,
                workdir,
                config,
                resume=resume,
                progress=progress,
            ).merged
        detection = merged.detection
        # Campaigns fanned out from here report as the "parallel" engine;
        # ShardSupervisor.run on its own reports "supervised".
        detection.telemetry.engine = "parallel"
        classification = merged.classify(policy)
    else:
        campaign = InjectionCampaign(state_backend=config.state_backend)
        with Weaver(
            lambda spec: make_injection_wrapper(spec, campaign),
            Analyzer(exclude=program.exclude),
        ) as weaver:
            specs = weaver.weave_classes(program.classes)
            # AppProgram satisfies the Program protocol (name + __call__
            # with scaling applied): it is the detector's test program
            detection = Detector(
                scaled,
                campaign,
                stride=config.stride,
                progress=progress,
                trace_derive=config.trace_derive,
            ).detect()
        # the programmer-declared exception-free annotations always apply
        # (§4.3 third case); a caller-supplied policy is merged on top
        effective = WrapPolicy.from_specs(specs)
        if policy is not None:
            effective = effective.merged_with(policy)
        classification = reclassify(detection.log, effective)
    return CampaignOutcome(
        program=scaled,
        detection=detection,
        classification=classification,
        report=build_app_report(program.name, detection, classification),
    )


def library_wide_classification(
    outcomes: List[CampaignOutcome],
    *,
    policy: Optional[WrapPolicy] = None,
) -> ClassificationResult:
    """Worst-case classification of every method across all campaigns.

    The paper's applications share classes (``UpdatableCollection``, the
    Self\\* framework); this merges the campaign logs (see
    :func:`repro.core.runlog.merge_logs`) so a method that is non-atomic
    under *any* application's workload is reported non-atomic overall —
    the verdict that matters when hardening the shared library once.

    Args:
        policy: optional wrap policy whose exception-free set filters the
            merged runs before classification (same semantics as the
            per-campaign classification).
    """
    from repro.core.runlog import merge_logs

    merged = merge_logs([o.detection.log for o in outcomes])
    return reclassify(merged, policy or WrapPolicy())


def save_outcome(outcome: CampaignOutcome, directory: str) -> None:
    """Persist a campaign for offline processing (the paper's log files).

    Writes three files into *directory*: ``runlog.json`` (every run and
    mark), ``classification.json`` (the derived verdicts), and
    ``meta.json`` (the Table-1 row).
    """
    os.makedirs(directory, exist_ok=True)
    outcome.detection.log.save(os.path.join(directory, "runlog.json"))
    with open(
        os.path.join(directory, "classification.json"), "w", encoding="utf-8"
    ) as handle:
        handle.write(outcome.classification.to_json())
    meta = {
        "program": outcome.program.name,
        "language": outcome.program.language,
        "total_points": outcome.detection.total_points,
        "runs_executed": outcome.detection.runs_executed,
        "injections": outcome.report.injection_count,
        "classes": outcome.report.class_count,
        "methods": outcome.report.method_count,
    }
    if outcome.detection.telemetry is not None:
        meta["telemetry"] = outcome.detection.telemetry.to_dict()
    with open(
        os.path.join(directory, "meta.json"), "w", encoding="utf-8"
    ) as handle:
        json.dump(meta, handle, indent=2, sort_keys=True)


def load_outcome(directory: str) -> "Tuple[Dict, RunLog, ClassificationResult]":
    """Load a saved campaign: ``(meta, run log, classification)``.

    The classification can also be recomputed from the run log (with a
    different policy) via :func:`repro.core.reclassify` — exactly the
    paper's offline re-processing workflow.

    ``meta["telemetry"]`` is rehydrated into a
    :class:`~repro.core.telemetry.CampaignTelemetry`; metadata written by
    older versions (no telemetry key, or a partial dict) loads with sane
    defaults instead of failing.
    """
    from repro.core.runlog import RunLog

    with open(os.path.join(directory, "meta.json"), encoding="utf-8") as handle:
        meta = json.load(handle)
    if "telemetry" in meta:
        meta["telemetry"] = CampaignTelemetry.from_dict(meta["telemetry"])
    log = RunLog.load(os.path.join(directory, "runlog.json"))
    with open(
        os.path.join(directory, "classification.json"), encoding="utf-8"
    ) as handle:
        classification = ClassificationResult.from_json(handle.read())
    return meta, log, classification


def run_programs(
    programs: Optional[List[AppProgram]] = None,
    *,
    stride: int = 1,
    scale: int = 1,
) -> List[CampaignOutcome]:
    """Run campaigns for several applications (default: all sixteen)."""
    return [
        run_app_campaign(program, stride=stride, scale=scale)
        for program in (programs if programs is not None else ALL_PROGRAMS)
    ]
