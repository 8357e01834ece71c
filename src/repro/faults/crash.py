"""Process-level crash injection for the recovery subsystem.

PR 6's :class:`~repro.faults.FaultInjector` breaks the *data plane* (drops,
outages, stuck sensors); this module breaks the *process*.  Named
:class:`CrashPoint` barriers are threaded through the engine's batch loop
and the checkpoint writer; an armed :class:`CrashInjector` kills the run at
one of them — either by raising :class:`SimulatedCrash` (in-process tests)
or by ``os._exit`` (subprocess tests, modelling a real SIGKILL: no cleanup,
no atexit, no flushing).

The recovery harness then restores the last good checkpoint, replays, and
asserts the replayed run is byte-identical to an uninterrupted one — the
headline guarantee of ``repro.recovery``.
"""

from __future__ import annotations

import enum
import os

from ..errors import CraqrError


class CrashPoint(enum.Enum):
    """Named barriers inside one engine batch where a crash can be injected.

    The four points bracket every state mutation a batch performs:

    * ``POST_ACQUISITION`` — after the handler collected the batch's
      responses and the world advanced, before fabrication: handler
      counters, budgets, health/fault state and world RNG streams have
      already moved.
    * ``POST_MERGE`` — after fabrication delivered tuples into result
      buffers, before budget tuning and end-of-batch dispatch.
    * ``PRE_VIEW_FOLD`` — after budget tuning, immediately before
      ``end_batch`` fires subscriber callbacks and views fold/advance.
    * ``MID_CHECKPOINT_WRITE`` — inside the checkpoint writer, after the
      temporary snapshot file is durable but before it is renamed over the
      target: the previous checkpoint must survive intact.
    """

    POST_ACQUISITION = "post-acquisition"
    POST_MERGE = "post-merge"
    PRE_VIEW_FOLD = "pre-view-fold"
    MID_CHECKPOINT_WRITE = "mid-checkpoint-write"


class SimulatedCrash(BaseException):
    """An injected process crash.

    Deliberately a :class:`BaseException` (like ``KeyboardInterrupt``): a
    real crash is not handleable application control flow, so no
    ``except Exception`` recovery path in the engine may swallow it.
    """

    def __init__(self, point: CrashPoint, batch_index: int) -> None:
        super().__init__(
            f"injected crash at {point.value} of batch {batch_index}"
        )
        self.point = point
        self.batch_index = batch_index


class CrashInjector:
    """Arms one :class:`CrashPoint` to fire at a given batch.

    Parameters
    ----------
    point:
        The barrier to crash at.
    at_batch:
        The 0-based batch index whose barrier fires (for
        ``MID_CHECKPOINT_WRITE`` this is the batch whose checkpoint write
        is interrupted).
    process_exit:
        ``False`` (default) raises :class:`SimulatedCrash`; ``True`` calls
        ``os._exit(exit_code)`` — the process dies on the spot with no
        cleanup, modelling a SIGKILL for subprocess-based tests.
    exit_code:
        The exit status used with ``process_exit``.
    """

    def __init__(
        self,
        point: CrashPoint,
        *,
        at_batch: int,
        process_exit: bool = False,
        exit_code: int = 17,
    ) -> None:
        if not isinstance(point, CrashPoint):
            raise CraqrError(f"point must be a CrashPoint, got {point!r}")
        if at_batch < 0:
            raise CraqrError("at_batch must be non-negative")
        self.point = point
        self.at_batch = at_batch
        self.process_exit = process_exit
        self.exit_code = exit_code
        self.fired = False

    def barrier(self, point: CrashPoint, batch_index: int) -> None:
        """Crash if this barrier is the armed one (otherwise a no-op)."""
        if self.fired or point is not self.point or batch_index != self.at_batch:
            return
        self.fired = True
        if self.process_exit:
            os._exit(self.exit_code)
        raise SimulatedCrash(point, batch_index)

