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

from abc import ABC
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

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
        updated distances).  These parameters are stored once per
        ``(type, vector_params)`` group, in the participation table of the
        world's :class:`~repro.sensing.state.SensorStateArrays`, when the
        world is built (the world keeps only the group's first model, each
        row the group's code): a strict wave decides every
        such row in one pass over its keyed uniforms (what the default
        :meth:`decide` computes per request), and fast-sim samples them
        from the shared stream.  Rows
        without them are decided by :meth:`decide`, one request at a time
        in each sensor's request order, under both RNG contracts: the model
        keeps its per-sensor state itself.
        """
        return None


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


class FatigueParticipation(ParticipationModel):
    """Response probability drops as a sensor receives more requests.

    Repeatedly pinging the same participant wears them out; the probability
    recovers slowly over time.  This creates the diminishing returns that
    make pure budget escalation less effective than incentives — the
    behaviour explored in the incentives benchmark (E11).

    ``max_probability`` caps the probability after incentive boosting, with
    the same semantics as :class:`BernoulliParticipation`.
    """

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
        #: per-sensor (fatigue level, time of the last decision)
        self._fatigue: Dict[int, Tuple[float, float]] = {}

    @property
    def max_probability(self) -> float:
        """Cap applied after incentive boosting."""
        return self._max_probability

    def _recovered(self, sensor_id: int, t: float) -> float:
        """The sensor's fatigue at ``t``: its level, less the recovery since its last decision."""
        fatigue, last_time = self._fatigue.get(sensor_id, (0.0, t))
        return max(0.0, fatigue - self._recovery_per_time * max(t - last_time, 0.0))

    def current_probability(self, sensor_id: int, t: float) -> float:
        """The sensor's response probability at time ``t`` (before incentives)."""
        return max(
            self._base_probability - self._recovered(sensor_id, t), self._min_probability
        )

    def decide(self, sensor_id, t, uniforms, *, incentive_multiplier=1.0):
        probability = min(
            self.current_probability(sensor_id, t) * incentive_multiplier,
            self._max_probability,
        )
        self._fatigue[sensor_id] = (
            self._recovered(sensor_id, t) + self._fatigue_per_request, t
        )
        return _decision(probability, self._mean_latency, uniforms)
