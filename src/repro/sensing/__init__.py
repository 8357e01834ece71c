"""Crowdsensing simulator: the substitute for a real mobile-sensor deployment.

The paper's system sits on top of a crowd of mobile sensors (smartphones,
vehicle-mounted sensors, humans).  We do not have such a deployment, so this
package simulates one with the statistical properties the paper emphasises:

* sensors move (mobility models), so their spatial distribution is skewed
  and time-varying;
* humans respond unpredictably (participation and latency models), so the
  data-generation rate cannot be controlled directly;
* incentives change participation (incentive-response curves), matching the
  paper's Section VI extension.

The :class:`RequestResponseHandler` is the server-side component from the
paper's architecture (Fig. 1): it sends budget-limited acquisition requests
to randomly selected sensors and collects their (possibly missing, possibly
delayed) responses.
"""

from .clock import SimulationClock
from .state import SensorStateArrays
from .sensor import MobileSensor, SensorState
from .mobility import (
    MobilityModel,
    RandomWaypointMobility,
    HotspotMobility,
    StationaryMobility,
)
from .phenomena import (
    PhenomenonField,
    RainField,
    TemperatureField,
)
from .participation import (
    ParticipationModel,
    ResponseDecision,
    AlwaysRespond,
    BernoulliParticipation,
    FatigueParticipation,
)
from .incentives import IncentiveScheme, FlatIncentive, LinearIncentiveResponse, incentive_boost
from .handler import RequestResponseHandler, HandlerReport
from .world import SensingWorld, WorldConfig
from .errors import GpsNoiseModel, ValueErrorModel, ErrorInjector

__all__ = [
    "SimulationClock",
    "SensorStateArrays",
    "MobileSensor",
    "SensorState",
    "MobilityModel",
    "RandomWaypointMobility",
    "HotspotMobility",
    "StationaryMobility",
    "PhenomenonField",
    "RainField",
    "TemperatureField",
    "ParticipationModel",
    "ResponseDecision",
    "AlwaysRespond",
    "BernoulliParticipation",
    "FatigueParticipation",
    "IncentiveScheme",
    "FlatIncentive",
    "LinearIncentiveResponse",
    "incentive_boost",
    "RequestResponseHandler",
    "HandlerReport",
    "SensingWorld",
    "WorldConfig",
    "GpsNoiseModel",
    "ValueErrorModel",
    "ErrorInjector",
]
