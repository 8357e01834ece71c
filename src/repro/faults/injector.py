"""Vectorised execution of a :class:`~repro.faults.FaultPlan`.

The :class:`FaultInjector` sits inside the request/response handler and is
invoked once per acquisition wave with the wave's *request* columns (SoA
rows, request times, target-cell segments) and *response* columns
(latencies, values).  It returns a :class:`FaultOutcome` describing which
responses were lost in transit and how the surviving ones were corrupted.

Two contracts matter:

* **Stream isolation.**  The injector owns a private generator seeded from
  ``FaultPlan.seed``.  No fault draw ever touches the world stream, so a
  run with no plan configured is byte-identical to one where the fault code
  does not exist, and the fault history for a given plan seed is
  reproducible across crowd seeds.
* **Path agnosticism.**  Every acquisition round — strict per-cell or
  fused fast-sim, read as batches or through the handler's object views —
  assembles its wave into the same column layout and calls
  :meth:`apply_round` once, so for identical inputs the injector consumes
  its stream identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .plan import FaultPlan

CellKey = Tuple[int, int]


@dataclass
class FaultOutcome:
    """What one wave's faults did, aligned with the wave's responses."""

    #: response was lost in transit (drop sources only; deadline timeouts
    #: are the handler's, not the injector's).
    dropped: np.ndarray
    #: response latencies after inflation.
    latencies: np.ndarray
    #: response values after stuck-at replay and outlier spikes.
    values: np.ndarray
    #: per-response clock skew to add to the tuple timestamp (zeros when
    #: the plan has no skew).
    skew: Optional[np.ndarray]


class FaultInjector:
    """Applies a :class:`FaultPlan` to acquisition waves.

    Parameters
    ----------
    plan:
        The declarative fault plan.
    state:
        The world's :class:`~repro.sensing.SensorStateArrays`; only its
        length is needed up front (per-sensor burst state and stuck-at
        designation are row-aligned with it).
    """

    def __init__(self, plan: FaultPlan, state) -> None:
        self._plan = plan
        self._rng = np.random.default_rng(plan.seed)
        count = len(state)
        self._in_burst = (
            np.zeros(count, dtype=bool) if plan.burst is not None else None
        )
        if plan.stuck_fraction > 0.0:
            self._stuck = self._rng.random(count) < plan.stuck_fraction
        else:
            self._stuck = None
        #: per-attribute stuck-at replay state: the first value each stuck
        #: sensor reported (object dtype so boolean attributes replay too).
        self._stuck_values: Dict[str, np.ndarray] = {}
        self._stuck_seeded: Dict[str, np.ndarray] = {}
        self._count = count
        # Lifetime counters (surfaced by the repl's health command and the
        # fault benchmarks).
        self.requests_seen = 0
        self.drops_injected = 0
        self.outliers_injected = 0
        self.stuck_replays = 0
        self.latencies_inflated = 0

    @property
    def plan(self) -> FaultPlan:
        """The plan being executed."""
        return self._plan

    @property
    def stuck_rows(self) -> np.ndarray:
        """SoA rows designated stuck-at (empty when none)."""
        if self._stuck is None:
            return np.empty(0, dtype=np.int64)
        return np.nonzero(self._stuck)[0]

    # ------------------------------------------------------------------
    def _outage_probabilities(
        self,
        request_times: np.ndarray,
        segments: np.ndarray,
        cell_keys: Tuple[CellKey, ...],
    ) -> Optional[np.ndarray]:
        """Per-request outage drop probability, or ``None`` when inactive.

        Each request keeps the strongest outage covering its target cell at
        its request time; overlapping outages do not compound.
        """
        outages = self._plan.outages
        if not outages:
            return None
        p = np.zeros(request_times.shape[0])
        for outage in outages:
            covered = np.fromiter(
                (outage.covers(key) for key in cell_keys),
                dtype=bool,
                count=len(cell_keys),
            )
            if not covered.any():
                continue
            active = (
                covered[segments]
                & (request_times >= outage.start)
                & (request_times < outage.end)
            )
            if active.any():
                np.maximum(p, np.where(active, outage.drop_probability, 0.0), out=p)
        return p if p.any() else None

    def apply_round(
        self,
        attribute: str,
        *,
        rows: np.ndarray,
        request_times: np.ndarray,
        segments: np.ndarray,
        cell_keys: Tuple[CellKey, ...],
        responded: np.ndarray,
        latencies: np.ndarray,
        values: np.ndarray,
    ) -> FaultOutcome:
        """Apply the plan to one acquisition wave.

        ``rows`` / ``request_times`` / ``segments`` cover every request of
        the wave (``segments`` indexes into ``cell_keys``); ``responded``
        marks the requests whose sensor produced a response, and
        ``latencies`` / ``values`` are aligned with those responses.  The
        fault draws are a fixed function of these inputs and the injector's
        private stream, independent of which acquisition path produced
        them.
        """
        plan = self._plan
        rng = self._rng
        n_requests = rows.shape[0]
        self.requests_seen += n_requests

        # 1. Burst state transitions: one step of the Gilbert-Elliott chain
        # per request.  Duplicate rows within a wave (with-replacement
        # sampling in tiny cells) take one combined step, which is
        # statistically indistinguishable at that scale.
        in_burst_request = None
        if self._in_burst is not None:
            burst = plan.burst
            u = rng.random(n_requests)
            was_bursting = self._in_burst[rows]
            in_burst_request = np.where(
                was_bursting, u >= burst.exit_probability, u < burst.enter_probability
            )
            self._in_burst[rows] = in_burst_request

        resp_index = np.nonzero(responded)[0]
        n_responses = resp_index.shape[0]
        resp_rows = rows[resp_index]
        dropped = np.zeros(n_responses, dtype=bool)

        # 2. Transit drops: combine the independent i.i.d., burst and
        # outage sources into one per-response loss probability and decide
        # with a single uniform draw.
        if plan.drops_responses and n_responses:
            keep = np.full(n_responses, 1.0 - plan.drop_probability)
            if in_burst_request is not None:
                keep *= np.where(
                    in_burst_request[resp_index],
                    1.0 - plan.burst.drop_probability,
                    1.0,
                )
            outage_p = self._outage_probabilities(request_times, segments, cell_keys)
            if outage_p is not None:
                keep *= 1.0 - outage_p[resp_index]
            dropped = rng.random(n_responses) >= keep
            self.drops_injected += int(dropped.sum())

        # 3. Latency inflation (applied to every response — a late response
        # is late whether or not transit also lost it).
        if plan.latency_inflation_probability > 0.0 and n_responses:
            inflate = rng.random(n_responses) < plan.latency_inflation_probability
            if inflate.any():
                latencies = np.where(
                    inflate, latencies * plan.latency_inflation_factor, latencies
                )
                self.latencies_inflated += int(inflate.sum())

        # 4. Stuck-at replay: a stuck sensor's first reported value per
        # attribute seeds its replay; every later response repeats it.
        if self._stuck is not None and n_responses:
            stuck_resp = self._stuck[resp_rows]
            if stuck_resp.any():
                seeded = self._stuck_seeded.get(attribute)
                if seeded is None:
                    seeded = np.zeros(self._count, dtype=bool)
                    self._stuck_seeded[attribute] = seeded
                    self._stuck_values[attribute] = np.empty(
                        self._count, dtype=object
                    )
                stored = self._stuck_values[attribute]
                values = np.array(values, copy=True)
                replay = stuck_resp & seeded[resp_rows]
                if replay.any():
                    values[replay] = stored[resp_rows[replay]]
                    self.stuck_replays += int(replay.sum())
                seed_now = stuck_resp & ~seeded[resp_rows]
                if seed_now.any():
                    seed_rows = resp_rows[seed_now]
                    stored[seed_rows] = values[seed_now]
                    seeded[seed_rows] = True

        # 5. Additive outlier spikes (numeric attributes only).
        if plan.outlier_probability > 0.0 and n_responses:
            values = np.asarray(values)
            if values.dtype.kind == "f":
                spike = rng.random(n_responses) < plan.outlier_probability
                if spike.any():
                    signs = np.where(rng.random(n_responses) < 0.5, -1.0, 1.0)
                    values = np.where(
                        spike, values + signs * plan.outlier_scale, values
                    )
                    self.outliers_injected += int(spike.sum())

        # 6. Bounded clock skew on the tuple timestamp.  The handler clamps
        # the skewed time to the batch-window start, preserving the views
        # layer's "no tuple predates its window" contract.
        skew = None
        if plan.clock_skew_max > 0.0 and n_responses:
            skew = rng.uniform(-plan.clock_skew_max, plan.clock_skew_max, n_responses)

        return FaultOutcome(
            dropped=dropped, latencies=latencies, values=values, skew=skew
        )
