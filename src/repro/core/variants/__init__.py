"""Metamorphic variant corpus: semantic-preserving subject transforms.

The pipeline's verdicts are about program semantics; its analyses read
syntax and traces.  This package stresses that gap with an AST-based
variant generator (``rules`` → ``engine`` → ``builder``) and a
detection-invariance oracle (``oracle``) asserting that classification,
masking fixpoints, and trace-derived campaign outputs are identical —
modulo provenance tags — across every variant of a subject.

See ``docs/ARCHITECTURE.md`` for the subsystem walkthrough and the
``repro variants`` CLI / fuzz Check 7 for the entry points.
"""

from .builder import GraftedVariant, build_spec_variant, grafted_variant
from .engine import (
    AppliedTransform,
    VariantModule,
    make_recipes,
    transform_source,
)
from .oracle import (
    CampaignBundle,
    Divergence,
    InvarianceReport,
    campaign_bundle,
    check_invariance,
    diff_bundles,
)
from .rules import RULES, TransformRule, all_rule_names, rule_by_name

__all__ = [
    "AppliedTransform",
    "CampaignBundle",
    "Divergence",
    "GraftedVariant",
    "InvarianceReport",
    "RULES",
    "TransformRule",
    "VariantModule",
    "all_rule_names",
    "build_spec_variant",
    "campaign_bundle",
    "check_invariance",
    "diff_bundles",
    "grafted_variant",
    "make_recipes",
    "rule_by_name",
    "transform_source",
]
