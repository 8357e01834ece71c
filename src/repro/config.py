"""Configuration objects for the CrAQR engine.

The paper (Section IV) exposes a handful of user-tunable knobs:

* ``h`` — the number of grid cells the region is logically partitioned into
  (a ``sqrt(h) x sqrt(h)`` grid).
* the per-attribute, per-cell acquisition *budget* and its adjustment step
  ``delta_beta`` used by budget tuning (Section V).
* the rate-violation threshold that triggers budget increases.

:class:`EngineConfig` gathers these together with simulation-oriented
settings (batch duration, random seed) so that an entire experiment is
described by one declarative object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .errors import CraqrError
from .faults import FaultPlan, ResilienceConfig
from .rng import check_seed

#: Default number of grid cells (a 4 x 4 grid).
DEFAULT_GRID_CELLS = 16

#: Default per-attribute, per-cell budget (requests per batch window).
DEFAULT_BUDGET = 50

#: Default budget adjustment step (paper's ``delta beta``).
DEFAULT_DELTA_BETA = 5

#: Default maximum budget beyond which the user must accept the feasible
#: rate or "pay more" (Section V, Budget Tuning).
DEFAULT_BUDGET_LIMIT = 500

#: Default percent-rate-violation threshold that triggers a budget increase.
DEFAULT_VIOLATION_THRESHOLD = 5.0

#: Default duration (in time units) of one acquisition batch window.
DEFAULT_BATCH_DURATION = 1.0


@dataclass(frozen=True)
class BudgetConfig:
    """Budget-tuning parameters (Section V, "Budget Tuning").

    Attributes
    ----------
    initial:
        Starting budget ``beta`` per attribute and grid cell, expressed as
        the number of acquisition requests allowed per batch window.
    delta:
        The adjustment step ``delta beta``: the budget is increased by this
        amount when the percent rate violation exceeds ``violation_threshold``
        and decreased by the same amount otherwise.
    limit:
        Maximum budget.  When the tuner wants to exceed it, the engine flags
        the query as *infeasible at current budget* rather than silently
        increasing cost (the paper asks the user to accept the feasible rate
        or pay more).
    floor:
        Minimum budget; the tuner never decreases below it.
    violation_threshold:
        Percent rate violation (``N_v``) above which the budget is increased.
    """

    initial: int = DEFAULT_BUDGET
    delta: int = DEFAULT_DELTA_BETA
    limit: int = DEFAULT_BUDGET_LIMIT
    floor: int = 1
    violation_threshold: float = DEFAULT_VIOLATION_THRESHOLD

    def __post_init__(self) -> None:
        if self.initial <= 0:
            raise CraqrError("initial budget must be positive")
        if self.delta <= 0:
            raise CraqrError("budget delta must be positive")
        if self.limit < self.initial:
            raise CraqrError("budget limit must be >= initial budget")
        if not 0 < self.floor <= self.initial:
            raise CraqrError("budget floor must be in (0, initial]")
        if self.violation_threshold < 0:
            raise CraqrError("violation threshold must be non-negative")


@dataclass(frozen=True)
class CheckpointConfig:
    """Crash-consistent checkpointing of the complete engine state.

    Attributes
    ----------
    directory:
        Directory the checkpoint files are written to (created on first
        write).  Filenames embed the batch index
        (``checkpoint-00000010.ckpt``) so lexicographic order is batch
        order.
    every:
        Automatic checkpoint cadence: a snapshot is taken at the end of
        every ``every``-th batch.  ``None`` disables automatic snapshots —
        :meth:`repro.core.engine.CraqrEngine.checkpoint` stays available
        for manual ones.
    retain:
        How many checkpoint files to keep; older ones are deleted after a
        successful write.  Keeping more than one is what makes the
        torn-file fallback of
        :func:`repro.recovery.load_latest` useful: if the newest file is
        damaged (crash mid-write, disk corruption) recovery falls back to
        the previous one.
    """

    directory: str
    every: Optional[int] = None
    retain: int = 3

    def __post_init__(self) -> None:
        if not self.directory:
            raise CraqrError("checkpoint directory must be non-empty")
        object.__setattr__(self, "directory", str(self.directory))
        if self.every is not None and self.every <= 0:
            raise CraqrError("checkpoint cadence 'every' must be positive (or None)")
        if self.retain <= 0:
            raise CraqrError("checkpoint retain must be positive")


@dataclass(frozen=True)
class EngineConfig:
    """Top-level configuration of a :class:`repro.core.engine.CraqrEngine`.

    Attributes
    ----------
    grid_cells:
        The paper's ``h`` parameter: the region is partitioned into a
        ``sqrt(h) x sqrt(h)`` logical grid.  Must be a perfect square.
    batch_duration:
        Length of one acquisition batch window in time units.  The
        request/response handler collects responses over this window and the
        fabricator processes them as one batch.
    budget:
        Budget-tuning parameters.
    seed:
        Seed for the engine's random generator; ``None`` draws entropy from
        the OS.  All randomness in the engine (sensor sampling, Bernoulli
        retention in PMAT operators) flows from this seed so that runs are
        reproducible.
    store_discarded:
        Whether tuples dropped by Flatten/Thin are retained in a separate
        store (the paper notes "the discarded tuples can be stored
        separately").
    online_estimation:
        When true, Flatten operators refresh their intensity estimate with
        online SGD over sliding windows instead of batch MLE.
    retention_batches:
        Service-mode memory bound: when set, every query result buffer
        evicts chunks older than this many completed batches, the engine
        keeps only this many :class:`~repro.core.engine.EngineReport`\\ s,
        the budget tuner bounds its decision history to the same window and
        every Flatten operator keeps the
        :class:`~repro.core.pmat.flatten.FlattenBatchReport`\\ s of only
        that many batches, so a checkpoint's size is set by this window,
        not by how long the engine has run.
        Lifetime accounting (``total_tuples``, whole-history achieved rate)
        stays exact through running totals; windowed reads past the
        retention window (an old cursor, ``achieved_rate(last=k)`` with
        ``k`` beyond the window) raise
        :class:`~repro.errors.StorageError`.  ``None`` (the default)
        retains everything, as before.
    faults:
        Optional declarative :class:`~repro.faults.FaultPlan` injected into
        the acquisition path (drops, outages, stuck-at sensors, outliers,
        latency inflation, clock skew).  The injector draws from its own
        seeded stream, so ``None`` (the default) leaves every engine run
        byte-identical to a fault-free build.
    resilience:
        Optional :class:`~repro.faults.ResilienceConfig` switching on the
        mitigation stack: response deadlines, budget-aware retries,
        sensor-health quarantine and per-(attribute, cell) degradation
        tracking that redirects budget tuning away from fault-attributed
        shortfalls.  Independent of ``faults`` — mitigation also reacts to
        organic non-response.
    checkpoints:
        Optional :class:`CheckpointConfig` switching on crash-consistent
        engine snapshots: the complete engine state (world, RNG streams,
        buffers, views, tuner/health/degradation state) is written
        atomically to the configured directory every ``every`` batches and
        recovered with :meth:`repro.core.engine.CraqrEngine.restore` /
        ``restore_latest``.  A restored engine's subsequent batches are
        seeded byte-identical to the uninterrupted run.
    """

    grid_cells: int = DEFAULT_GRID_CELLS
    batch_duration: float = DEFAULT_BATCH_DURATION
    budget: BudgetConfig = field(default_factory=BudgetConfig)
    seed: Optional[int] = None
    store_discarded: bool = False
    online_estimation: bool = False
    retention_batches: Optional[int] = None
    faults: Optional[FaultPlan] = None
    resilience: Optional[ResilienceConfig] = None
    checkpoints: Optional[CheckpointConfig] = None

    def __post_init__(self) -> None:
        check_seed(self.seed, "the engine")
        if self.retention_batches is not None and self.retention_batches <= 0:
            raise CraqrError("retention_batches must be positive (or None)")
        if self.grid_cells <= 0:
            raise CraqrError("grid_cells must be positive")
        side = int(round(self.grid_cells ** 0.5))
        if side * side != self.grid_cells:
            raise CraqrError(
                "grid_cells must be a perfect square (the region is split "
                "into a sqrt(h) x sqrt(h) grid); got %d" % self.grid_cells
            )
        if not 0 < self.batch_duration < math.inf:
            raise CraqrError("batch_duration must be positive and finite")

    @property
    def grid_side(self) -> int:
        """Number of cells along one side of the grid (``sqrt(h)``)."""
        return int(round(self.grid_cells ** 0.5))
