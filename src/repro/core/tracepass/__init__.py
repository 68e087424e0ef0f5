"""One-trace-many-points detection (trace-derived verdicts).

See :mod:`repro.core.tracepass.deriver` for the derivation rules and
:mod:`repro.core.tracepass.transparency` for the frame certificates
and the profile boundary the stack walk stops at.
"""

from .deriver import PROVENANCE_TRACE, TraceDeriver
from .transparency import (
    PROFILE_BOUNDARY_CODE,
    TransparencyIndex,
    call_through_boundary,
    nested_boundary,
)

__all__ = [
    "PROFILE_BOUNDARY_CODE",
    "PROVENANCE_TRACE",
    "TraceDeriver",
    "TransparencyIndex",
    "call_through_boundary",
    "nested_boundary",
]
