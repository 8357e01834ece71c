"""Struct-of-arrays sensor state.

The sensing world at scale is a numerical simulation: at 10k+ sensors
per-object state and one-call-per-sensor loops would dominate the engine's
wall clock.  :class:`SensorStateArrays` stores the whole crowd's mutable
state as numpy columns so that

* the mobility kernels (:meth:`~repro.sensing.mobility.MobilityModel.step_batch`,
  the only way a sensor moves) advance every sensor of a model group with a
  handful of array operations,
* spatial queries (``density_snapshot``, cell bucketing) reduce to boolean
  masks and bincounts over the position columns, and
* the acquisition rounds vectorise participation sampling across a whole
  cell population using the per-sensor participation parameter columns.

:class:`MobileSensor` objects remain the public per-sensor API, but each one
is a lazy *view* over its SoA row, built when asked for: it reads its
position from the columns and moves by running its model's kernel on its
one-row slice.  Rows are placed in place, a model group at a time, by
:meth:`~repro.sensing.mobility.MobilityModel.initial_state_batch` from one
keyed block per row (:func:`~repro.sensing.mobility.place_groups`), and the
participation columns are written once per participation group
(:meth:`SensorStateArrays.set_participation`).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..errors import CraqrError

#: The columns a mobility kernel may write: what a compacted ``advance``
#: scatters back (``sensor_ids`` is gathered too, read-only).
MOVEMENT_COLUMNS = (
    "x", "y", "vx", "vy", "target_x", "target_y", "pause_remaining", "moves_drawn",
)


class SensorStateArrays:
    """All per-sensor mutable state of a sensing world, as numpy columns.

    Columns
    -------
    ``x, y, vx, vy, target_x, target_y, pause_remaining``
        Mobility state; targets are NaN when unset.
    ``sensor_ids``
        Public sensor identifier of each row.
    ``requests_received, responses_sent``
        Acquisition bookkeeping counters.
    ``moves_drawn``
        Movement blocks the row has drawn from its keyed stream: the
        counter of its next one (see :class:`~repro.sensing.mobility.KeyedDraws`).
    ``p_base, p_max, latency_mean, incentive_sensitive, vector_participation``
        Participation parameters (see
        :meth:`~repro.sensing.participation.ParticipationModel.vector_params`):
        base response probability, incentive-boost cap, mean exponential
        response latency, whether incentives scale the probability, and
        whether the row is decided from these columns at all.  Rows whose
        model has no stationary ``vector_params`` (fatigue, custom models)
        keep ``vector_participation`` False: under both RNG contracts their
        requests are decided by the model's ``decide``, one at a time, and
        the model keeps their state.
    ``reliability, quarantined``
        Server-side health state maintained by
        :class:`repro.faults.SensorHealthMonitor`: a reliability EWMA of the
        sensor's accepted/requested ratio (1.0 until observed) and the
        quarantine mask the handler ANDs into its candidate populations.
        Inert (all-ones / all-False) unless a health monitor is attached.
    """

    __slots__ = (
        "x", "y", "vx", "vy", "target_x", "target_y", "pause_remaining",
        "sensor_ids", "requests_received", "responses_sent", "moves_drawn",
        "p_base", "p_max", "latency_mean", "incentive_sensitive",
        "vector_participation", "reliability", "quarantined",
    )

    def __init__(self, count: int) -> None:
        if count <= 0:
            raise CraqrError("a SensorStateArrays needs at least one row")
        self.x = np.zeros(count, dtype=np.float64)
        self.y = np.zeros(count, dtype=np.float64)
        self.vx = np.zeros(count, dtype=np.float64)
        self.vy = np.zeros(count, dtype=np.float64)
        self.target_x = np.full(count, np.nan, dtype=np.float64)
        self.target_y = np.full(count, np.nan, dtype=np.float64)
        self.pause_remaining = np.zeros(count, dtype=np.float64)
        self.sensor_ids = np.zeros(count, dtype=np.int64)
        self.requests_received = np.zeros(count, dtype=np.int64)
        self.responses_sent = np.zeros(count, dtype=np.int64)
        self.moves_drawn = np.zeros(count, dtype=np.int64)
        self.p_base = np.ones(count, dtype=np.float64)
        self.p_max = np.ones(count, dtype=np.float64)
        self.latency_mean = np.zeros(count, dtype=np.float64)
        self.incentive_sensitive = np.zeros(count, dtype=bool)
        self.vector_participation = np.zeros(count, dtype=bool)
        self.reliability = np.ones(count, dtype=np.float64)
        self.quarantined = np.zeros(count, dtype=bool)

    def __len__(self) -> int:
        return self.x.shape[0]

    def set_participation(
        self,
        groups: np.ndarray,
        params: Sequence[Optional[Tuple[float, float, float, bool]]],
    ) -> None:
        """Write the participation columns: row ``i`` takes ``params[groups[i]]``.

        ``params`` holds one ``vector_params()`` per participation group;
        the rows of a ``None`` group (not vectorisable) keep the columns'
        defaults, ``vector_participation`` False among them.
        """
        codes = [code for code, group in enumerate(params) if group is not None]
        if not codes:
            return
        slot = np.full(len(params), -1)
        slot[codes] = np.arange(len(codes))
        slot = slot[groups]
        rows = slot >= 0
        table = np.array([params[code] for code in codes], dtype=np.float64)[slot[rows]]
        self.p_base[rows], self.p_max[rows], self.latency_mean[rows] = table[:, :3].T
        self.incentive_sensitive[rows] = table[:, 3] != 0.0
        self.vector_participation[rows] = True

    def take_movement(self, rows: np.ndarray) -> "SensorStateArrays":
        """A compact copy of ``rows``: the movement columns and ``sensor_ids`` only.

        Row ``i`` of the copy is row ``rows[i]`` here; the other columns are
        left unset, so a kernel that reads one fails instead of reading
        another row's value.  ``rows`` may be empty.
        """
        compact = SensorStateArrays.__new__(SensorStateArrays)
        for name in MOVEMENT_COLUMNS + ("sensor_ids",):
            setattr(compact, name, getattr(self, name)[rows])
        return compact

    def put_movement(self, rows: np.ndarray, compact: "SensorStateArrays") -> None:
        """Scatter a :meth:`take_movement` copy's movement columns back to ``rows``."""
        for name in MOVEMENT_COLUMNS:
            getattr(self, name)[rows] = getattr(compact, name)

    def positions(self) -> np.ndarray:
        """An ``(n, 2)`` copy of the current positions."""
        return np.column_stack((self.x, self.y))
