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
  cell population: each request's group code, gathered once per wave,
  indexes the fields of the participation table.

A row holds only what differs per sensor.  What a whole participation
group shares — its stationary decision parameters — is stored once, in
the group's table entry, and a row holds the group's int32 code.

:class:`MobileSensor` objects remain the public per-sensor API, but each one
is a lazy *view* over its SoA row, built when asked for: it reads its
position from the columns and moves by running its model's kernel on its
one-row slice.  Rows are placed in place, a model group at a time, by
:meth:`~repro.sensing.mobility.MobilityModel.initial_state_batch` from one
keyed block per row (:func:`~repro.sensing.mobility.place_groups`), and the
participation codes and table are written once
(:meth:`SensorStateArrays.set_participation`).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..errors import CraqrError

#: The columns a mobility kernel may write: what a compacted ``advance``
#: scatters back (``sensor_ids`` is gathered too, read-only).
MOVEMENT_COLUMNS = ("x", "y", "target_x", "target_y", "pause_remaining", "moves_drawn")

#: One participation group's entry of :attr:`SensorStateArrays.participation_table`.
PARTICIPATION_DTYPE = np.dtype(
    [
        ("p_base", np.float64),
        ("p_max", np.float64),
        ("latency_mean", np.float64),
        ("incentive_sensitive", np.bool_),
        ("vector_participation", np.bool_),
    ]
)

#: The entry of a group without stationary parameters (and of a fresh SoA).
_WALKED = (1.0, 1.0, 0.0, False, False)


class SensorStateArrays:
    """All per-sensor mutable state of a sensing world, as numpy columns.

    Columns
    -------
    ``x, y, target_x, target_y, pause_remaining``
        Mobility state; targets are NaN when unset.
    ``sensor_ids``
        Public sensor identifier of each row.
    ``requests_received, responses_sent``
        Acquisition bookkeeping counters.
    ``moves_drawn``
        Movement blocks the row has drawn from its keyed stream: the
        counter of its next one (see :class:`~repro.sensing.mobility.KeyedDraws`).
    ``participation``
        The row's participation group: an int32 code into
        ``participation_table`` (and into the world's list of kept models).
    ``reliability, quarantined``
        Server-side health state maintained by
        :class:`repro.faults.SensorHealthMonitor`: a reliability EWMA of the
        sensor's accepted/requested ratio (1.0 until observed) and the
        quarantine mask the handler ANDs into its candidate populations.
        Inert (all-ones / all-False) unless a health monitor is attached.

    A row costs 85 bytes: five float64 movement columns, four int64
    columns, the int32 code, the float64 reliability and the bool
    quarantine flag.

    Participation table
    -------------------
    ``participation_table`` holds one :data:`PARTICIPATION_DTYPE` entry per
    participation group, in code order: the group's ``vector_params``
    (see :meth:`~repro.sensing.participation.ParticipationModel.vector_params`)
    — base response probability ``p_base``, incentive-boost cap ``p_max``,
    mean exponential response latency ``latency_mean``, whether incentives
    scale the probability (``incentive_sensitive``) — and whether the
    group is decided from them at all (``vector_participation``).  A group
    whose model has no stationary ``vector_params`` (fatigue, custom
    models) keeps ``vector_participation`` False: under both RNG contracts
    its requests are decided by the model's ``decide``, one at a time, and
    the model keeps their state.  A fresh SoA has one such entry, and
    every row code 0.
    """

    __slots__ = (
        "x", "y", "target_x", "target_y", "pause_remaining",
        "sensor_ids", "requests_received", "responses_sent", "moves_drawn",
        "participation", "reliability", "quarantined", "participation_table",
    )

    def __init__(self, count: int) -> None:
        if count <= 0:
            raise CraqrError("a SensorStateArrays needs at least one row")
        self.x = np.zeros(count, dtype=np.float64)
        self.y = np.zeros(count, dtype=np.float64)
        self.target_x = np.full(count, np.nan, dtype=np.float64)
        self.target_y = np.full(count, np.nan, dtype=np.float64)
        self.pause_remaining = np.zeros(count, dtype=np.float64)
        self.sensor_ids = np.zeros(count, dtype=np.int64)
        self.requests_received = np.zeros(count, dtype=np.int64)
        self.responses_sent = np.zeros(count, dtype=np.int64)
        self.moves_drawn = np.zeros(count, dtype=np.int64)
        self.participation = np.zeros(count, dtype=np.int32)
        self.reliability = np.ones(count, dtype=np.float64)
        self.quarantined = np.zeros(count, dtype=bool)
        self.participation_table = np.array([_WALKED], dtype=PARTICIPATION_DTYPE)

    def __len__(self) -> int:
        return self.x.shape[0]

    def set_participation(
        self,
        groups: np.ndarray,
        params: Sequence[Optional[Tuple[float, float, float, bool]]],
    ) -> None:
        """Row ``i`` joins group ``groups[i]``, whose table entry is ``params[groups[i]]``.

        ``params`` holds one ``vector_params()`` per participation group,
        in code order; a ``None`` group (not vectorisable) takes the
        entry of a fresh SoA, ``vector_participation`` False among them.
        """
        self.participation[:] = groups
        self.participation_table = np.array(
            [_WALKED if group is None else (*group, True) for group in params],
            dtype=PARTICIPATION_DTYPE,
        )

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
