"""Fault injection and resilience for the acquisition stack.

This package answers ROADMAP open item 5: a declarative fault model
(:class:`FaultPlan`) executed inside the request/response handler by a
seeded :class:`FaultInjector`, plus the server-side mitigation bundle
(:class:`ResilienceConfig`): response deadlines, budget-aware retries,
per-sensor health quarantine (:class:`SensorHealthMonitor`) and
per-(attribute, cell) degradation tracking (:class:`DegradationTracker`).

Faults and mitigation are configured on :class:`repro.config.EngineConfig`
(``faults`` / ``resilience``) and are strictly opt-in: with neither set,
every acquisition path executes its pre-fault code byte-for-byte.

PR 7 extends the framework from injected *data* faults to injected
*process* crashes: :class:`CrashInjector` kills a run at a named
:class:`CrashPoint` barrier of the batch loop (or mid-checkpoint-write),
and the recovery harness proves the engine converges back to the
uninterrupted run from its last checkpoint (see :mod:`repro.recovery`).
"""

from .plan import (
    BurstDropModel,
    CellOutage,
    FaultPlan,
    HealthConfig,
    ResilienceConfig,
    RetryPolicy,
)
from .injector import FaultInjector, FaultOutcome
from .health import HealthSummary, SensorHealthMonitor
from .degradation import DegradationTracker
from .crash import CrashInjector, CrashPoint, SimulatedCrash

__all__ = [
    "BurstDropModel",
    "CellOutage",
    "FaultPlan",
    "HealthConfig",
    "ResilienceConfig",
    "RetryPolicy",
    "FaultInjector",
    "FaultOutcome",
    "HealthSummary",
    "SensorHealthMonitor",
    "DegradationTracker",
    "CrashInjector",
    "CrashPoint",
    "SimulatedCrash",
]
