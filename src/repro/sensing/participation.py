"""Participation models: whether and when a mobile sensor responds.

The paper stresses that response behaviour is uncontrollable: "His/her reply
could be unpredictably delayed for several reasons: he/she is not interested
in responding at this moment, he/she thinks that the incentive offered for
responding is not enough or he/she has moved to a different location."

A participation model decides, for one acquisition request, whether a sensor
responds at all and with what latency.  Models compose with the incentive
schemes of :mod:`repro.sensing.incentives`: a higher incentive multiplies the
base response probability.
"""

from __future__ import annotations

import math
from abc import ABC
from dataclasses import dataclass
from typing import Dict, Hashable, Optional, Tuple

import numpy as np

from ..errors import CraqrError


@dataclass(frozen=True)
class ResponseDecision:
    """Outcome of a participation decision for one request."""

    responds: bool
    latency: float = 0.0

    @classmethod
    def no_response(cls) -> "ResponseDecision":
        """The sensor ignores the request."""
        return cls(responds=False, latency=0.0)


def exponential_latency(mean, u):
    """The exponential latency of mean ``mean`` that a ``[0, 1)`` uniform maps to.

    Inverse CDF, ``-mean * log1p(-u)``, spelled with the numpy ufunc on
    scalars and arrays alike: the per-object answer and the vectorised
    strict wave must round identically.
    """
    return -mean * np.log1p(-u)


def _decision(probability: float, mean_latency: float, uniforms) -> ResponseDecision:
    """Respond iff the respond uniform falls below ``probability``."""
    u_respond, u_latency = uniforms
    if u_respond >= probability:
        return ResponseDecision.no_response()
    return ResponseDecision(
        responds=True, latency=float(exponential_latency(mean_latency, u_latency))
    )


class ParticipationModel(ABC):
    """Decision model for responding to acquisition requests.

    A model draws nothing itself: each request arrives with its two keyed
    uniforms (see :func:`repro.rng.keyed_uniforms`), so a decision is a
    pure function of the request and the model's state.
    """

    def decide(
        self,
        sensor_id: int,
        t: float,
        uniforms: Tuple[float, float],
        *,
        incentive_multiplier: float = 1.0,
    ) -> ResponseDecision:
        """Decide whether sensor ``sensor_id`` responds to a request sent at ``t``.

        ``uniforms`` is the request's ``(respond, latency)`` pair of
        ``[0, 1)`` draws.  The default decides from :meth:`vector_params`
        exactly as the vectorised strict wave decides a row: respond iff
        ``u_respond < min(p_base * m, p_max)`` (``< p_base`` when incentives
        do not apply), latency :func:`exponential_latency`.  Models without
        stationary parameters override it.
        """
        del sensor_id, t
        params = self.vector_params()
        if params is None:
            raise NotImplementedError(
                f"{type(self).__name__} has no stationary parameters; override decide"
            )
        p_base, p_max, latency_mean, incentive_sensitive = params
        probability = (
            min(p_base * incentive_multiplier, p_max) if incentive_sensitive else p_base
        )
        return _decision(probability, latency_mean, uniforms)

    def vector_params(self) -> Optional[Tuple[float, float, float, bool]]:
        """Stationary decision parameters for the vectorised acquisition paths.

        Returns ``(p_base, p_max, latency_mean, incentive_sensitive)`` —
        base response probability, the cap applied after incentive boosting,
        the mean of the exponential response latency, and whether incentives
        scale the probability at all — or ``None`` when the model's
        decisions depend on mutable per-request state (fatigue, externally
        updated distances).  These parameters are copied into the world's
        :class:`~repro.sensing.state.SensorStateArrays` columns at sensor
        construction: a strict wave decides every such row in one pass over
        its keyed uniforms (what the default :meth:`decide` computes per
        request), and fast-sim samples them from the shared stream.  Rows
        without them are decided by :meth:`decide`, one request at a time.
        """
        return None

    # ------------------------------------------------------------------
    # Vector-state protocol (stateful fast-sim acquisition)
    # ------------------------------------------------------------------
    def vector_state_columns(self) -> Optional[Tuple[str, ...]]:
        """Names of the SoA columns backing the model's mutable state.

        Stateful models that can evaluate and update their state with array
        operations (fatigue recurrences, distance lookups) return the column
        names they need in :class:`~repro.sensing.state.SensorStateArrays`;
        the world then allocates the columns, calls
        :meth:`init_vector_state` per sensor, and groups rows by
        :meth:`vector_state_key` so the fast-sim handler can decide a whole
        round with :meth:`vector_probabilities` / :meth:`vector_commit`.
        ``None`` (the default) means the model has no vectorised state — if
        it also lacks stationary :meth:`vector_params`, fast-sim cells
        containing it fall back to the exact per-sensor round.
        """
        return None

    def vector_state_key(self) -> Optional[Hashable]:
        """Hashable grouping key for the vector-state dispatch.

        Rows whose models share a key are evaluated by a single
        representative instance, so the key must capture every parameter
        :meth:`vector_probabilities` / :meth:`vector_commit` read from
        ``self`` (their per-sensor state lives in the SoA columns, never on
        the instance).  ``None`` when the model has no vector state.
        """
        return None

    def vector_static_params(self) -> Tuple[float, float, bool]:
        """``(p_max, latency_mean, incentive_sensitive)`` for vector-state rows.

        The incentive cap and the latency mean are stationary even for
        stateful models, so the handler keeps them in the shared SoA
        parameter columns and only asks :meth:`vector_probabilities` for the
        time-varying base probability.
        """
        raise NotImplementedError

    def init_vector_state(self, soa, index: int) -> None:
        """Write the sensor's initial state into its SoA row.

        Called once per sensor at world construction, after the columns
        named by :meth:`vector_state_columns` have been allocated.  Models
        that expose setter APIs keyed by sensor id (e.g.
        :meth:`DistanceDecayParticipation.set_distance`) may also record the
        binding here so later setter calls write through to the column.
        """
        raise NotImplementedError

    def vector_probabilities(
        self, soa, rows: np.ndarray, times: np.ndarray
    ) -> np.ndarray:
        """Base response probabilities (before incentives) for SoA ``rows``.

        ``times`` is aligned with ``rows`` (one request per entry; a row may
        repeat when a cell was sampled with replacement).  Must not consume
        randomness or mutate state — state updates happen in
        :meth:`vector_commit`.
        """
        raise NotImplementedError

    def vector_commit(self, soa, rows: np.ndarray, times: np.ndarray) -> None:
        """Apply the round's state updates for the requested ``rows``.

        Called once per acquisition round with every request (answered or
        not), after :meth:`vector_probabilities`.  Fast-sim applies state
        at round granularity: repeated rows accumulate all of the round's
        per-request effects at the row's latest request time, which is
        statistically equivalent to the per-request scalar updates for
        batch windows short relative to the state dynamics.
        """
        raise NotImplementedError


class AlwaysRespond(ParticipationModel):
    """Every request is answered immediately (idealised sensor-sensed attribute)."""

    def vector_params(self):
        # Always responds (every uniform is < 1), never delayed (a zero
        # mean maps every uniform to latency 0), deaf to incentives.
        return (1.0, 1.0, 0.0, False)


class BernoulliParticipation(ParticipationModel):
    """Responds with a fixed probability and an exponential latency.

    Parameters
    ----------
    probability:
        Base probability of responding to a single request.
    mean_latency:
        Mean of the exponential response latency (time units).
    max_probability:
        Cap applied after incentive boosting (people cannot respond more
        than always).
    """

    def __init__(
        self,
        probability: float = 0.5,
        *,
        mean_latency: float = 0.2,
        max_probability: float = 0.98,
    ) -> None:
        if not 0 < probability <= 1:
            raise CraqrError("probability must be in (0, 1]")
        if mean_latency < 0:
            raise CraqrError("mean_latency must be non-negative")
        if not probability <= max_probability <= 1:
            raise CraqrError("max_probability must be in [probability, 1]")
        self._probability = probability
        self._mean_latency = mean_latency
        self._max_probability = max_probability

    @property
    def base_probability(self) -> float:
        """The un-boosted response probability."""
        return self._probability

    def vector_params(self):
        return (self._probability, self._max_probability, self._mean_latency, True)


class DistanceDecayParticipation(ParticipationModel):
    """Response probability decays with distance from a point of interest.

    Models "he/she has moved to a different location, which now is not of
    interest to the query": sensors far from the query's focus are less
    likely to answer.  The caller supplies each sensor's current distance via
    :meth:`set_distance` before asking for decisions.

    ``max_probability`` caps the probability after incentive boosting, with
    the same semantics as :class:`BernoulliParticipation` (people cannot
    respond more than always, and usually a little less).
    """

    #: SoA column holding each sensor's current distance from the focus.
    DISTANCE_COLUMN = "participation_distance"

    def __init__(
        self,
        base_probability: float = 0.8,
        *,
        decay_scale: float = 0.5,
        mean_latency: float = 0.2,
        max_probability: float = 1.0,
    ) -> None:
        if not 0 < base_probability <= 1:
            raise CraqrError("base_probability must be in (0, 1]")
        if decay_scale <= 0:
            raise CraqrError("decay_scale must be positive")
        if mean_latency < 0:
            raise CraqrError("mean_latency must be non-negative")
        if not base_probability <= max_probability <= 1:
            raise CraqrError("max_probability must be in [base_probability, 1]")
        self._base_probability = base_probability
        self._decay_scale = decay_scale
        self._mean_latency = mean_latency
        self._max_probability = max_probability
        self._distances: Dict[int, float] = {}
        #: sensor_id -> (SensorStateArrays, row) write-through bindings
        self._vector_rows: Dict[int, Tuple[object, int]] = {}

    @property
    def max_probability(self) -> float:
        """Cap applied after incentive boosting."""
        return self._max_probability

    def set_distance(self, sensor_id: int, distance: float) -> None:
        """Record the sensor's distance from the query focus.

        Writes through to the sensor's SoA distance column when the model is
        bound to a vectorised world, so fast-sim rounds see the update.
        """
        if distance < 0:
            raise CraqrError("distance must be non-negative")
        self._distances[sensor_id] = distance
        bound = self._vector_rows.get(sensor_id)
        if bound is not None:
            soa, row = bound
            soa.column(self.DISTANCE_COLUMN)[row] = distance

    def decide(self, sensor_id, t, uniforms, *, incentive_multiplier=1.0):
        del t
        distance = self._distances.get(sensor_id, 0.0)
        probability = self._base_probability * math.exp(-distance / self._decay_scale)
        probability = min(probability * incentive_multiplier, self._max_probability)
        return _decision(probability, self._mean_latency, uniforms)

    # -- vector-state protocol ------------------------------------------
    def vector_state_columns(self):
        return (self.DISTANCE_COLUMN,)

    def vector_state_key(self):
        return (
            "distance_decay",
            self._base_probability,
            self._decay_scale,
            self._mean_latency,
            self._max_probability,
        )

    def vector_static_params(self):
        return (self._max_probability, self._mean_latency, True)

    def init_vector_state(self, soa, index):
        sensor_id = int(soa.sensor_ids[index])
        soa.column(self.DISTANCE_COLUMN)[index] = self._distances.get(sensor_id, 0.0)
        self._vector_rows[sensor_id] = (soa, index)

    def vector_probabilities(self, soa, rows, times):
        del times  # distance decay is time-invariant within a round
        distances = soa.column(self.DISTANCE_COLUMN)[rows]
        return self._base_probability * np.exp(-distances / self._decay_scale)

    def vector_commit(self, soa, rows, times):
        pass  # requests do not change the distance state


class FatigueParticipation(ParticipationModel):
    """Response probability drops as a sensor receives more requests.

    Repeatedly pinging the same participant wears them out; the probability
    recovers slowly over time.  This creates the diminishing returns that
    make pure budget escalation less effective than incentives — the
    behaviour explored in the incentives benchmark (E11).

    ``max_probability`` caps the probability after incentive boosting, with
    the same semantics as :class:`BernoulliParticipation`.
    """

    #: SoA columns holding each sensor's fatigue level and last decision time.
    LEVEL_COLUMN = "fatigue_level"
    LAST_TIME_COLUMN = "fatigue_last_t"

    def __init__(
        self,
        base_probability: float = 0.7,
        *,
        fatigue_per_request: float = 0.05,
        recovery_per_time: float = 0.01,
        min_probability: float = 0.05,
        mean_latency: float = 0.2,
        max_probability: float = 1.0,
    ) -> None:
        if not 0 < base_probability <= 1:
            raise CraqrError("base_probability must be in (0, 1]")
        if fatigue_per_request < 0 or recovery_per_time < 0:
            raise CraqrError("fatigue and recovery rates must be non-negative")
        if not 0 <= min_probability <= base_probability:
            raise CraqrError("min_probability must be in [0, base_probability]")
        if mean_latency < 0:
            raise CraqrError("mean_latency must be non-negative")
        if not base_probability <= max_probability <= 1:
            raise CraqrError("max_probability must be in [base_probability, 1]")
        self._base_probability = base_probability
        self._fatigue_per_request = fatigue_per_request
        self._recovery_per_time = recovery_per_time
        self._min_probability = min_probability
        self._mean_latency = mean_latency
        self._max_probability = max_probability
        #: per-sensor (fatigue level, last decision time) for unbound sensors
        self._fatigue: Dict[int, Tuple[float, float]] = {}
        #: sensor_id -> (SensorStateArrays, row): once a sensor is bound to
        #: SoA vector state, the columns are its *only* fatigue store — the
        #: scalar decide()/current_probability() read and write them too,
        #: so the per-sensor fallback round and the fused vector round see
        #: one coherent state instead of drifting copies.
        self._vector_rows: Dict[int, Tuple[object, int]] = {}

    @property
    def max_probability(self) -> float:
        """Cap applied after incentive boosting."""
        return self._max_probability

    def _load_state(self, sensor_id: int, t: float) -> Tuple[float, float]:
        bound = self._vector_rows.get(sensor_id)
        if bound is not None:
            soa, row = bound
            return (
                float(soa.column(self.LEVEL_COLUMN)[row]),
                float(soa.column(self.LAST_TIME_COLUMN)[row]),
            )
        return self._fatigue.get(sensor_id, (0.0, t))

    def _store_state(self, sensor_id: int, fatigue: float, t: float) -> None:
        bound = self._vector_rows.get(sensor_id)
        if bound is not None:
            soa, row = bound
            soa.column(self.LEVEL_COLUMN)[row] = fatigue
            soa.column(self.LAST_TIME_COLUMN)[row] = t
        else:
            self._fatigue[sensor_id] = (fatigue, t)

    def current_probability(self, sensor_id: int, t: float) -> float:
        """The sensor's response probability at time ``t`` (before incentives)."""
        fatigue, last_time = self._load_state(sensor_id, t)
        recovered = max(0.0, fatigue - self._recovery_per_time * max(t - last_time, 0.0))
        return max(self._base_probability - recovered, self._min_probability)

    def decide(self, sensor_id, t, uniforms, *, incentive_multiplier=1.0):
        probability = min(
            self.current_probability(sensor_id, t) * incentive_multiplier,
            self._max_probability,
        )
        fatigue, last_time = self._load_state(sensor_id, t)
        recovered = max(0.0, fatigue - self._recovery_per_time * max(t - last_time, 0.0))
        self._store_state(sensor_id, recovered + self._fatigue_per_request, t)
        return _decision(probability, self._mean_latency, uniforms)

    # -- vector-state protocol ------------------------------------------
    def vector_state_columns(self):
        return (self.LEVEL_COLUMN, self.LAST_TIME_COLUMN)

    def vector_state_key(self):
        return (
            "fatigue",
            self._base_probability,
            self._fatigue_per_request,
            self._recovery_per_time,
            self._min_probability,
            self._mean_latency,
            self._max_probability,
        )

    def vector_static_params(self):
        return (self._max_probability, self._mean_latency, True)

    def init_vector_state(self, soa, index):
        sensor_id = int(soa.sensor_ids[index])
        fatigue, last_time = self._fatigue.pop(sensor_id, (0.0, 0.0))
        soa.column(self.LEVEL_COLUMN)[index] = fatigue
        soa.column(self.LAST_TIME_COLUMN)[index] = last_time
        self._vector_rows[sensor_id] = (soa, index)

    def _recovered_levels(
        self, levels: np.ndarray, last_times: np.ndarray, times: np.ndarray
    ) -> np.ndarray:
        """Fatigue left after recovery between the last decision and ``times``."""
        elapsed = np.maximum(times - last_times, 0.0)
        return np.maximum(levels - self._recovery_per_time * elapsed, 0.0)

    def vector_probabilities(self, soa, rows, times):
        levels = soa.column(self.LEVEL_COLUMN)[rows]
        last_times = soa.column(self.LAST_TIME_COLUMN)[rows]
        recovered = self._recovered_levels(levels, last_times, np.asarray(times, dtype=float))
        return np.maximum(self._base_probability - recovered, self._min_probability)

    def vector_commit(self, soa, rows, times):
        levels = soa.column(self.LEVEL_COLUMN)
        last_times = soa.column(self.LAST_TIME_COLUMN)
        times = np.asarray(times, dtype=float)
        unique_rows, inverse = np.unique(rows, return_inverse=True)
        # Latest request time and request count per distinct row: the round's
        # recovery is applied once (an array recurrence over the round) and
        # the whole round's fatigue lands at that latest time.
        latest = np.full(unique_rows.shape[0], -np.inf)
        np.maximum.at(latest, inverse, times)
        counts = np.bincount(inverse, minlength=unique_rows.shape[0])
        recovered = self._recovered_levels(
            levels[unique_rows], last_times[unique_rows], latest
        )
        levels[unique_rows] = recovered + self._fatigue_per_request * counts
        last_times[unique_rows] = latest
