"""Declarative fault and resilience configuration.

A :class:`FaultPlan` describes *what goes wrong* in the crowd — response
drops (i.i.d. and bursty), cell-outage windows in simulation time, stuck-at
sensors replaying their first value, additive outlier spikes, latency
inflation and bounded clock skew.  A :class:`ResilienceConfig` describes
*what the server does about it* — response deadlines, budget-aware retries,
sensor-health quarantine and degraded-pair tracking.

Both are plain frozen dataclasses so an entire stress experiment is one
declarative object (mirroring :class:`repro.config.EngineConfig`), and both
are deliberately independent: faults can be injected against a fault-blind
engine (the "mitigation disabled" baseline of the outage regression test)
and resilience can run against a healthy crowd (deadlines still drop
naturally late responses).

This module imports nothing from :mod:`repro.sensing` so that
:mod:`repro.config` can embed the plan without an import cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..errors import CraqrError
from ..rng import check_seed

CellKey = Tuple[int, int]


@dataclass(frozen=True)
class BurstDropModel:
    """A two-state Gilbert-Elliott response-drop process per sensor.

    Every sensor carries a hidden good/burst state advanced once per
    acquisition request addressed to it: a good sensor enters a burst with
    ``enter_probability``, a bursting sensor leaves it with
    ``exit_probability``, and responses produced while bursting are dropped
    with ``drop_probability`` (on top of any i.i.d. drop rate).
    """

    enter_probability: float
    exit_probability: float
    drop_probability: float = 1.0

    def __post_init__(self) -> None:
        for name in ("enter_probability", "exit_probability", "drop_probability"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise CraqrError(f"{name} must be in [0, 1]")
        if self.exit_probability == 0.0 and self.enter_probability > 0.0:
            raise CraqrError(
                "a burst with exit_probability 0 never ends; model a permanent "
                "outage with CellOutage or a plain drop_probability instead"
            )


@dataclass(frozen=True)
class CellOutage:
    """A window of simulation time during which some cells drop responses.

    ``cells`` lists the affected grid-cell keys; ``None`` means the whole
    region.  A response is dropped with ``drop_probability`` when its
    *request* falls inside ``[start, end)`` and targets an affected cell.
    """

    start: float
    end: float
    cells: Optional[Tuple[CellKey, ...]] = None
    drop_probability: float = 1.0

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise CraqrError("a CellOutage needs end > start")
        if not 0.0 <= self.drop_probability <= 1.0:
            raise CraqrError("drop_probability must be in [0, 1]")
        if self.cells is not None:
            object.__setattr__(self, "cells", tuple((int(q), int(r)) for q, r in self.cells))

    def covers(self, cell: CellKey) -> bool:
        """Whether the outage affects the given cell."""
        return self.cells is None or cell in self.cells


@dataclass(frozen=True)
class FaultPlan:
    """Everything that goes wrong, in one declarative object.

    The plan is executed by :class:`repro.faults.FaultInjector`, which owns
    its **own** random generator seeded from ``seed`` — fault draws never
    touch the world stream, so configuring an all-zero plan leaves strict
    runs byte-identical and a given fault history is reproducible
    independently of the crowd seed.

    Attributes
    ----------
    seed:
        Seed of the injector's private generator.
    drop_probability:
        i.i.d. probability that any response is lost in transit.
    burst:
        Optional Gilbert-Elliott bursty drop process (per sensor).
    outages:
        Cell-outage windows in simulation time.
    stuck_fraction:
        Fraction of sensors designated stuck-at: after their first accepted
        response per attribute they replay that value forever.
    outlier_probability / outlier_scale:
        Per-response probability of an additive gross outlier of the given
        magnitude (random sign); applied to numeric attributes only.
    latency_inflation_probability / latency_inflation_factor:
        Per-response probability that the response latency is multiplied by
        the factor — the knob that pushes responses past a configured
        response deadline.
    clock_skew_max:
        Bound of the uniform per-response clock skew added to tuple
        timestamps (clamped so a tuple never predates its batch window,
        which the views layer requires).
    """

    seed: int = 0
    drop_probability: float = 0.0
    burst: Optional[BurstDropModel] = None
    outages: Tuple[CellOutage, ...] = ()
    stuck_fraction: float = 0.0
    outlier_probability: float = 0.0
    outlier_scale: float = 25.0
    latency_inflation_probability: float = 0.0
    latency_inflation_factor: float = 5.0
    clock_skew_max: float = 0.0

    def __post_init__(self) -> None:
        check_seed(self.seed, "the fault plan")
        for name in (
            "drop_probability",
            "stuck_fraction",
            "outlier_probability",
            "latency_inflation_probability",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise CraqrError(f"{name} must be in [0, 1]")
        if self.outlier_scale < 0:
            raise CraqrError("outlier_scale cannot be negative")
        if self.latency_inflation_factor < 1.0:
            raise CraqrError("latency_inflation_factor must be >= 1")
        if self.clock_skew_max < 0:
            raise CraqrError("clock_skew_max cannot be negative")
        object.__setattr__(self, "outages", tuple(self.outages))

    @property
    def drops_responses(self) -> bool:
        """Whether any drop source (i.i.d., burst, outage) is configured."""
        return (
            self.drop_probability > 0.0
            or self.burst is not None
            or len(self.outages) > 0
        )


@dataclass(frozen=True)
class RetryPolicy:
    """Budget-aware retry of failed requests within a round.

    A per-cell *reserve* of ``floor(budget * reserve_fraction)`` requests is
    withheld from the first wave; requests whose response was dropped or
    timed out are retried (up to ``max_attempts`` waves in total) with
    replacement draws from the not-yet-contacted cell population.  The
    per-cell budget is never exceeded, and with a retry policy configured
    incentives are paid only for accepted responses.
    """

    max_attempts: int = 2
    reserve_fraction: float = 0.25

    def __post_init__(self) -> None:
        if self.max_attempts < 2:
            raise CraqrError("max_attempts must be >= 2 (1 would mean no retry)")
        if not 0.0 < self.reserve_fraction < 1.0:
            raise CraqrError("reserve_fraction must be in (0, 1)")


@dataclass(frozen=True)
class HealthConfig:
    """Per-sensor reliability tracking, quarantine and probation.

    Every acquisition round commits an accepted/requested ratio per
    contacted sensor into a reliability EWMA column of the SoA
    (:attr:`repro.sensing.SensorStateArrays.reliability`).  Sensors whose
    reliability falls below ``failure_threshold`` (after at least
    ``min_requests`` lifetime requests), that left their last
    ``min_requests`` requests unanswered, or whose numeric readings repeat
    ``stuck_repeats`` times in a row, are quarantined out of the candidate
    populations.  After ``quarantine_batches`` rounds a quarantined sensor
    is re-admitted *on probation* (reliability reset to
    ``probation_reliability``) — unless ``probation`` is off, in which case
    quarantine is permanent (the mitigation-disabled baseline).
    """

    ewma_alpha: float = 0.3
    failure_threshold: float = 0.2
    min_requests: int = 8
    quarantine_batches: int = 4
    probation: bool = True
    probation_reliability: float = 0.5
    recovery_threshold: float = 0.6
    stuck_repeats: int = 6

    def __post_init__(self) -> None:
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise CraqrError("ewma_alpha must be in (0, 1]")
        if not 0.0 < self.failure_threshold < 1.0:
            raise CraqrError("failure_threshold must be in (0, 1)")
        if self.min_requests < 1:
            raise CraqrError("min_requests must be positive")
        if self.quarantine_batches < 1:
            raise CraqrError("quarantine_batches must be positive")
        if not 0.0 < self.probation_reliability <= 1.0:
            raise CraqrError("probation_reliability must be in (0, 1]")
        if not self.failure_threshold < self.recovery_threshold <= 1.0:
            raise CraqrError(
                "recovery_threshold must be in (failure_threshold, 1]"
            )
        if self.stuck_repeats < 2:
            raise CraqrError("stuck_repeats must be >= 2")


@dataclass(frozen=True)
class ResilienceConfig:
    """The server-side mitigation bundle.

    Attributes
    ----------
    deadline:
        Response deadline in time units; responses arriving later than
        ``request_time + deadline`` are dropped and counted as timeouts.
        ``None`` accepts any latency (the pre-fault behaviour).
    retry:
        Optional :class:`RetryPolicy`; ``None`` keeps single-wave rounds.
    health:
        Optional :class:`HealthConfig` enabling reliability tracking and
        quarantine; ``None`` keeps every sensor a candidate forever.
    degraded_response_rate / degraded_alpha:
        A per-(attribute, cell) EWMA of the effective response rate is
        maintained from the handler reports; pairs whose EWMA falls below
        ``degraded_response_rate`` are marked *degraded* — their shortfall
        is fault-attributed (not planner error), the budget tuner freezes
        and redistributes their budget delta, and they surface in
        ``violations()`` / ``SHOW QUERIES``.
    """

    deadline: Optional[float] = None
    retry: Optional[RetryPolicy] = None
    health: Optional[HealthConfig] = field(default_factory=HealthConfig)
    degraded_response_rate: float = 0.25
    degraded_alpha: float = 0.3

    def __post_init__(self) -> None:
        if self.deadline is not None and self.deadline <= 0:
            raise CraqrError("deadline must be positive (or None)")
        if not 0.0 <= self.degraded_response_rate < 1.0:
            raise CraqrError("degraded_response_rate must be in [0, 1)")
        if not 0.0 < self.degraded_alpha <= 1.0:
            raise CraqrError("degraded_alpha must be in (0, 1]")
