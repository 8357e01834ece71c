"""Per-sensor reliability tracking, quarantine and probation.

The :class:`SensorHealthMonitor` is the server-side health view of the
crowd.  During an acquisition round the handler reports every wave's
``(rows, accepted)`` outcome (and the accepted numeric values, for stuck
detection); at round commit the monitor folds the round's per-sensor
accepted/requested ratio into the SoA's ``reliability`` EWMA column and
updates the ``quarantined`` mask:

* a sensor whose reliability falls below the failure threshold (after
  enough lifetime requests) is quarantined — it disappears from candidate
  populations via the mask the handler ANDs into its bucketing pass;
* so is a sensor that left its last ``min_requests`` requests unanswered:
  the EWMA moves once per round, so a sensor that went silent but is
  asked in only a few rounds would otherwise stay above the threshold
  however many of its requests it ignores;
* a sensor whose numeric readings repeat ``stuck_repeats`` times in a row
  is quarantined as stuck (server-side detection — the monitor never peeks
  at the injector's designations);
* after ``quarantine_batches`` rounds a quarantined sensor is re-admitted
  on probation with a reset reliability, unless probation is disabled
  (the permanent-quarantine baseline of the outage regression test).

All bookkeeping is dense numpy over SoA-aligned arrays; nothing here is
per-sensor Python.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from .plan import HealthConfig


@dataclass(frozen=True)
class HealthSummary:
    """Snapshot of the crowd's health (the repl ``health`` command's data)."""

    quarantined: int
    on_probation: int
    quarantine_events: int
    stuck_quarantines: int
    released: int
    quarantined_sensor_ids: List[int]


class SensorHealthMonitor:
    """Maintains reliability EWMAs and the quarantine mask over the SoA."""

    def __init__(self, config: HealthConfig, state) -> None:
        self._config = config
        self._state = state
        count = len(state)
        # The columns the handler reads live in the SoA itself (reliability
        # also rides along for inspection); the monitor's private arrays
        # hold the per-round scratch and quarantine bookkeeping.
        state.reliability[:] = 1.0
        state.quarantined[:] = False
        self._round_requests = np.zeros(count, dtype=np.int64)
        self._round_accepted = np.zeros(count, dtype=np.int64)
        self._lifetime_requests = np.zeros(count, dtype=np.int64)
        self._unanswered = np.zeros(count, dtype=np.int64)
        self._release_round = np.zeros(count, dtype=np.int64)
        self._probation = np.zeros(count, dtype=bool)
        self._stuck_last: Dict[str, np.ndarray] = {}
        self._stuck_repeats: Dict[str, np.ndarray] = {}
        self._round = 0
        self.quarantine_events = 0
        self.stuck_quarantines = 0
        self.released = 0

    @property
    def config(self) -> HealthConfig:
        """The health configuration."""
        return self._config

    # ------------------------------------------------------------------
    # Per-wave observation (called by the handler)
    # ------------------------------------------------------------------
    def observe(self, rows: np.ndarray, accepted: np.ndarray) -> None:
        """Record one wave's outcome: ``accepted`` aligns with ``rows``."""
        if rows.size == 0:
            return
        np.add.at(self._round_requests, rows, 1)
        np.add.at(self._round_accepted, rows, accepted.astype(np.int64))

    def observe_values(
        self, attribute: str, rows: np.ndarray, values: np.ndarray
    ) -> None:
        """Track accepted numeric readings for stuck-at detection.

        A repeat is an exact float match with the sensor's previous accepted
        reading for the attribute — replayed values are bit-identical, real
        continuous phenomena essentially never are.
        """
        if rows.size == 0:
            return
        values = np.asarray(values)
        if values.dtype.kind != "f":
            return
        last = self._stuck_last.get(attribute)
        if last is None:
            last = np.full(len(self._state), np.nan)
            self._stuck_last[attribute] = last
            self._stuck_repeats[attribute] = np.zeros(
                len(self._state), dtype=np.int64
            )
        repeats = self._stuck_repeats[attribute]
        same = values == last[rows]
        # Duplicate rows within a wave are rare (tiny-cell replacement
        # draws); last-write-wins is fine for a detector.
        repeats[rows] = np.where(same, repeats[rows] + 1, 0)
        last[rows] = values

    # ------------------------------------------------------------------
    # Round commit
    # ------------------------------------------------------------------
    def commit_round(self) -> None:
        """Fold the round into the EWMA and update the quarantine mask."""
        config = self._config
        state = self._state
        requests = self._round_requests
        contacted = requests > 0
        if contacted.any():
            ratio = self._round_accepted[contacted] / requests[contacted]
            reliability = state.reliability
            reliability[contacted] = (
                (1.0 - config.ewma_alpha) * reliability[contacted]
                + config.ewma_alpha * ratio
            )
            self._lifetime_requests += requests
            # Consecutive unanswered requests: a round with an answer resets.
            silent = contacted & (self._round_accepted == 0)
            self._unanswered[silent] += requests[silent]
            self._unanswered[contacted & ~silent] = 0
        self._round += 1

        quarantined = state.quarantined
        # Release before sentencing: a sensor whose term just ended gets a
        # probationary round before its (reset) reliability is judged again.
        if config.probation and quarantined.any():
            due = quarantined & (self._release_round <= self._round)
            if due.any():
                quarantined[due] = False
                self._probation[due] = True
                state.reliability[due] = config.probation_reliability
                for repeats in self._stuck_repeats.values():
                    repeats[due] = 0
                self.released += int(due.sum())

        failing = (
            contacted
            & ~quarantined
            & (
                (
                    (state.reliability < config.failure_threshold)
                    & (self._lifetime_requests >= config.min_requests)
                )
                | (self._unanswered >= config.min_requests)
            )
        )
        if failing.any():
            self._quarantine(failing)
            self.quarantine_events += int(failing.sum())

        for repeats in self._stuck_repeats.values():
            stuck = ~state.quarantined & (repeats >= config.stuck_repeats)
            if stuck.any():
                self._quarantine(stuck)
                repeats[stuck] = 0
                count = int(stuck.sum())
                self.quarantine_events += count
                self.stuck_quarantines += count

        # A probation sensor that rebuilt its reliability is fully cleared.
        recovered = self._probation & (
            state.reliability >= config.recovery_threshold
        )
        if recovered.any():
            self._probation[recovered] = False

        self._round_requests[:] = 0
        self._round_accepted[:] = 0

    def _quarantine(self, mask: np.ndarray) -> None:
        self._state.quarantined[mask] = True
        self._probation[mask] = False
        self._unanswered[mask] = 0
        self._release_round[mask] = self._round + self._config.quarantine_batches

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def summary(self) -> HealthSummary:
        """The current health snapshot."""
        quarantined = self._state.quarantined
        return HealthSummary(
            quarantined=int(quarantined.sum()),
            on_probation=int(self._probation.sum()),
            quarantine_events=self.quarantine_events,
            stuck_quarantines=self.stuck_quarantines,
            released=self.released,
            quarantined_sensor_ids=self._state.sensor_ids[quarantined].tolist(),
        )
