"""Experiment harness: the paper's evaluation, table by table.

* :mod:`programs <repro.experiments.programs>` — the sixteen evaluation
  applications of Table 1 (6 C++/Self\\*, 10 Java/collections+Regexp).
* :mod:`config <repro.experiments.config>` — a campaign's knobs,
  declared once (:class:`CampaignConfig`).
* :mod:`campaign <repro.experiments.campaign>` — the end-to-end
  detection pipeline for one application.
* :mod:`tables <repro.experiments.tables>` — Table 1 and Figures 2–4.
* :mod:`fig5 <repro.experiments.fig5>` — the masking overhead grid.
* :mod:`linkedlist_fixes <repro.experiments.linkedlist_fixes>` — the
  Section 6.1 "trivial modifications" narrative.
"""

from .campaign import (
    CampaignOutcome,
    library_wide_classification,
    load_outcome,
    run_app_campaign,
    run_campaign,
    run_programs,
    save_outcome,
)
from .config import CampaignConfig
from .fig5 import (
    DEFAULT_RATIOS,
    DEFAULT_SIZES,
    OverheadPoint,
    SyntheticService,
    format_overhead_table,
    measure_overhead,
    measure_undolog_ablation,
)
from .linkedlist_fixes import FixComparison, compare_linkedlist_fixes
from .parallel import JournalError
from .programs import (
    ALL_PROGRAMS,
    CPP_PROGRAMS,
    JAVA_PROGRAMS,
    AppProgram,
    program_by_name,
)
from .shard import (
    MergedCampaign,
    ShardError,
    ShardFragment,
    ShardResult,
    merge_fragments,
    run_shard,
    shard_points,
)
from .reportall import reproduce_all
from .supervise import (
    ChaosReport,
    ShardSupervisor,
    SupervisedCampaign,
    SupervisorError,
    run_chaos_campaign,
)
from .synthetic import GROUND_TRUTH, synthetic_program
from .validation import MaskingValidation, validate_masking
from .tables import (
    FigureData,
    figure2,
    figure3,
    figure4,
    run_cpp_campaigns,
    run_java_campaigns,
    table1,
)

__all__ = [
    "AppProgram",
    "ALL_PROGRAMS",
    "CPP_PROGRAMS",
    "JAVA_PROGRAMS",
    "program_by_name",
    "CampaignConfig",
    "CampaignOutcome",
    "run_app_campaign",
    "run_campaign",
    "run_programs",
    "save_outcome",
    "load_outcome",
    "library_wide_classification",
    "JournalError",
    "MergedCampaign",
    "ShardError",
    "ShardFragment",
    "ShardResult",
    "merge_fragments",
    "run_shard",
    "shard_points",
    "ChaosReport",
    "ShardSupervisor",
    "SupervisedCampaign",
    "SupervisorError",
    "run_chaos_campaign",
    "table1",
    "figure2",
    "figure3",
    "figure4",
    "FigureData",
    "run_cpp_campaigns",
    "run_java_campaigns",
    "SyntheticService",
    "OverheadPoint",
    "measure_overhead",
    "measure_undolog_ablation",
    "format_overhead_table",
    "DEFAULT_SIZES",
    "DEFAULT_RATIOS",
    "FixComparison",
    "compare_linkedlist_fixes",
    "GROUND_TRUTH",
    "synthetic_program",
    "MaskingValidation",
    "validate_masking",
    "reproduce_all",
]
