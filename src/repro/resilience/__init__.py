"""Resilience toolkit: seeded chaos/fault injection for the campaign
infrastructure itself.

The detection pipeline studies *subject* programs' recovery code; this
package points the same skepticism at our own distributed campaign
layer.  :mod:`chaos <repro.resilience.chaos>` defines the fault-site
protocol (production seams call :func:`~repro.resilience.chaos.fire`,
a no-op unless a plan is armed) and the seeded
:class:`~repro.resilience.chaos.FaultPlan` schedule; the supervised
retry machinery that survives those faults lives in
:mod:`repro.experiments.supervise`, and ``repro chaos`` drives the
whole convergence experiment from the CLI.

This package deliberately imports nothing from the rest of ``repro``,
so the journal layer, the shard runner, and the service can all declare
fault sites without import cycles.
"""

from .chaos import (
    FAULT_KINDS,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    WorkerKilled,
    active_injector,
    arm,
    fire,
    standard_plan,
)

__all__ = [
    "FAULT_KINDS",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "WorkerKilled",
    "active_injector",
    "arm",
    "fire",
    "standard_plan",
]
