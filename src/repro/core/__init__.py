"""Core library: detection and masking of non-atomic exception handling.

Public API map (mirrors the phases of the paper, Figure 1):

* Step 1 — :class:`Analyzer` discovers methods and their injection
  repertoires; :func:`throws` / :func:`exception_free` supply the
  declared-exception information Python lacks.
* Step 2 — :class:`Weaver`, :func:`weave_with` and :class:`LoadTimeWeaver`
  route calls to wrappers (source-level and load-time flavors).
* Step 3 — :class:`InjectionCampaign` + :class:`Detector` run the
  exception injector program once per injection point and log marks.
* Classification — :func:`classify` (Definition 3: atomic / conditional /
  pure failure non-atomic).
* Steps 4–5 — :class:`Masker` / :func:`failure_atomic` weave atomicity
  wrappers, checkpointing by a strategy chosen by name (``snapshot`` or
  ``undolog``); :class:`WrapPolicy` decides what to wrap (Section 4.3).
* Reporting — :func:`build_app_report` and the ``format_*`` helpers
  reproduce Table 1 and Figures 2–4.
* State layer — :mod:`repro.core.state` owns all reachable-state
  concerns (graphs, fingerprints, checkpoints); campaigns compare states
  through the :class:`StateBackend` selected by name (``graph`` or
  ``fingerprint``).
"""

from .analyzer import Analyzer, MethodSpec, method_key
from .classify import (
    CATEGORIES,
    CATEGORY_ATOMIC,
    CATEGORY_CONDITIONAL,
    CATEGORY_PURE,
    ClassificationResult,
    MethodClassification,
    classify,
)
from .detector import (
    CallableProgram,
    DetectionError,
    DetectionResult,
    Detector,
    Profile,
    Program,
    plan_points,
    profile_program,
    run_injection_point,
)
from .exceptions import (
    DEFAULT_RUNTIME_EXCEPTIONS,
    InjectedRuntimeError,
    InjectionAbort,
    ResourceExhaustedError,
    exception_free,
    is_injected,
    throws,
)
from .cow import UndoLog, install_write_barrier, remove_write_barrier
from .harden import HardeningResult, harden
from .htmlreport import policy_template, render_campaign_html
from .injection import InjectionCampaign, make_injection_wrapper
from .masking import Masker, MaskingStats, atomic_block, failure_atomic, make_atomicity_wrapper
from .policy import WrapPolicy, filter_log, reclassify, select_methods_to_wrap
from .report import (
    AppReport,
    build_app_report,
    format_class_distribution,
    format_method_classification,
    format_run_provenance,
    format_table1,
    render_bars,
)
from .runlog import ATOMIC, NONATOMIC, Mark, RunLog, RunRecord, merge_logs
from .tracepass import (
    PROVENANCE_TRACE,
    TraceDeriver,
    TraceRecorder,
)
from .state import (
    BACKENDS,
    CaptureLimitError,
    Checkpoint,
    CheckpointError,
    FingerprintBackend,
    GraphBackend,
    GraphDifference,
    ObjectGraph,
    RestoreError,
    StateBackend,
    StateFingerprint,
    StateStats,
    capture,
    capture_frame,
    checkpoint,
    fingerprint,
    fingerprint_frame,
    get_backend,
    graph_diff,
    graph_diff_all,
    graph_diff_live,
    graphs_equal,
    restore,
)
from .telemetry import CampaignTelemetry
from .weaver import LoadTimeWeaver, Weaver, WeavingError, weave_with

__all__ = [
    # analysis
    "Analyzer",
    "MethodSpec",
    "method_key",
    # exceptions / declarations
    "throws",
    "exception_free",
    "InjectedRuntimeError",
    "ResourceExhaustedError",
    "InjectionAbort",
    "DEFAULT_RUNTIME_EXCEPTIONS",
    "is_injected",
    # state layer: backends
    "StateBackend",
    "GraphBackend",
    "FingerprintBackend",
    "StateStats",
    "BACKENDS",
    "get_backend",
    # state layer: object graphs
    "ObjectGraph",
    "GraphDifference",
    "capture",
    "capture_frame",
    "graphs_equal",
    "graph_diff",
    "graph_diff_all",
    "graph_diff_live",
    "CaptureLimitError",
    # state layer: fingerprints
    "StateFingerprint",
    "fingerprint",
    "fingerprint_frame",
    # state layer: checkpointing
    "Checkpoint",
    "CheckpointError",
    "RestoreError",
    "checkpoint",
    "restore",
    # injection / detection
    "InjectionCampaign",
    "make_injection_wrapper",
    "Detector",
    "DetectionResult",
    "DetectionError",
    "Program",
    "CallableProgram",
    "Profile",
    "plan_points",
    "profile_program",
    "run_injection_point",
    # trace-derived verdicts
    "PROVENANCE_TRACE",
    "TraceDeriver",
    "TraceRecorder",
    # telemetry
    "CampaignTelemetry",
    # run logs
    "RunLog",
    "RunRecord",
    "merge_logs",
    "Mark",
    "ATOMIC",
    "NONATOMIC",
    # classification
    "classify",
    "ClassificationResult",
    "MethodClassification",
    "CATEGORIES",
    "CATEGORY_ATOMIC",
    "CATEGORY_CONDITIONAL",
    "CATEGORY_PURE",
    # policy
    "WrapPolicy",
    "filter_log",
    "reclassify",
    "select_methods_to_wrap",
    # masking
    "Masker",
    "MaskingStats",
    "failure_atomic",
    "atomic_block",
    "make_atomicity_wrapper",
    # weaving
    "Weaver",
    "WeavingError",
    "weave_with",
    "LoadTimeWeaver",
    # one-call facade
    "harden",
    "HardeningResult",
    # copy-on-write extension
    "UndoLog",
    "install_write_barrier",
    "remove_write_barrier",
    # html reports
    "render_campaign_html",
    "policy_template",
    # reports
    "AppReport",
    "build_app_report",
    "format_table1",
    "format_method_classification",
    "format_class_distribution",
    "format_run_provenance",
    "render_bars",
]
