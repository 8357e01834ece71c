"""Columnar batches of crowdsensed tuples.

:class:`TupleBatch` is the structure-of-arrays counterpart of
:class:`~repro.streams.tuples.SensorTuple`: one contiguous numpy column per
tuple field (``t``, ``x``, ``y``, ``value``, ``sensor_id``, ``tuple_id``)
plus a small per-batch metadata dict.  A batch is homogeneous in its
attribute, which is therefore stored once per batch rather than once per
tuple.

The batch is the engine's unit of work: the request/response handler
produces one batch per attribute and acquisition round, the fabricator
re-buckets it with vectorised grid lookups, the compiled attribute programs
of :mod:`repro.plan` run the PMAT chains over it with numpy keep-masks and
row indices, and result buffers ingest batches without ever materialising
individual ``SensorTuple`` objects.  Materialisation
(:meth:`TupleBatch.to_tuples`) happens lazily, only when object-level APIs
ask for it.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

import numpy as np

from ..errors import StreamError
from .tuples import SensorTuple

#: Sentinel stored in the ``sensor_id`` column for tuples without a sensor.
NO_SENSOR_ID = -1

#: Internal sentinel distinguishing "key absent" from "value is None".
_MISSING = object()


def _as_python_scalar(value):
    """Convert a numpy scalar to its Python equivalent for materialisation."""
    if isinstance(value, np.generic):
        return value.item()
    return value


def _values_equal(a, b) -> bool:
    """Equality that is safe for array-valued metadata entries."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    return a == b


class TupleBatch:
    """A batch of same-attribute crowdsensed tuples stored as numpy columns.

    Parameters
    ----------
    attribute:
        The attribute all tuples of the batch carry (e.g. ``"rain"``).
    t, x, y:
        Float64 columns of the space-time coordinates.
    value:
        Column of sensed values; dtype is whatever numpy infers (bool for
        human-sensed attributes, float for sensor-sensed ones, object as a
        general fallback).
    sensor_id:
        Int64 column of producing sensor ids (:data:`NO_SENSOR_ID` for
        tuples without one).
    tuple_id:
        Int64 column of unique tuple identifiers.
    meta:
        Small per-batch metadata dict (scalars copied into every
        materialised tuple's metadata).
    extra:
        Optional extra per-tuple columns, each an array whose first
        dimension equals the batch length (e.g. an ``incentive`` column or
        an ``(n, 2)`` ``cell`` column); they are sliced together with the
        main columns and land in tuple metadata on materialisation.
    """

    __slots__ = ("attribute", "t", "x", "y", "value", "sensor_id", "tuple_id", "meta", "extra")

    def __init__(
        self,
        attribute: str,
        t: np.ndarray,
        x: np.ndarray,
        y: np.ndarray,
        value: np.ndarray,
        sensor_id: np.ndarray,
        tuple_id: np.ndarray,
        *,
        meta: Optional[dict] = None,
        extra: Optional[Dict[str, np.ndarray]] = None,
    ) -> None:
        self.attribute = attribute
        self.t = np.asarray(t, dtype=float)
        self.x = np.asarray(x, dtype=float)
        self.y = np.asarray(y, dtype=float)
        self.value = np.asarray(value)
        self.sensor_id = np.asarray(sensor_id, dtype=np.int64)
        self.tuple_id = np.asarray(tuple_id, dtype=np.int64)
        self.meta = meta if meta is not None else {}
        self.extra = extra if extra is not None else {}
        n = self.t.shape[0]
        for name, column in (
            ("x", self.x),
            ("y", self.y),
            ("value", self.value),
            ("sensor_id", self.sensor_id),
            ("tuple_id", self.tuple_id),
        ):
            if column.shape[:1] != (n,):
                raise StreamError(
                    f"TupleBatch column '{name}' has length {column.shape[:1]}, "
                    f"expected {n}"
                )
        for name, column in self.extra.items():
            if np.asarray(column).shape[:1] != (n,):
                raise StreamError(
                    f"TupleBatch extra column '{name}' does not match batch length {n}"
                )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, attribute: str = "") -> "TupleBatch":
        """A batch with no tuples."""
        zero = np.empty(0)
        zero_int = np.empty(0, dtype=np.int64)
        return cls(attribute, zero, zero, zero, np.empty(0, dtype=object), zero_int, zero_int)

    @classmethod
    def concatenate(cls, batches: Iterable["TupleBatch"]) -> "TupleBatch":
        """Concatenate same-attribute batches into one.

        Per-batch ``meta`` entries survive when every part agrees on them.
        The union of all parts' extra columns is kept: parts lacking a
        column contribute ``None`` rows (so e.g. a marked batch merged with
        an unmarked one keeps its marks instead of silently dropping them).
        """
        parts = [batch for batch in batches if len(batch)]
        if not parts:
            return cls.empty()
        attribute = parts[0].attribute
        for part in parts:
            if part.attribute != attribute:
                raise StreamError(
                    "cannot concatenate batches of attributes "
                    f"'{attribute}' and '{part.attribute}'"
                )
        if len(parts) == 1:
            return parts[0]
        meta = dict(parts[0].meta)
        for part in parts[1:]:
            for key in list(meta):
                other = part.meta.get(key, _MISSING)
                if other is _MISSING or not _values_equal(other, meta[key]):
                    del meta[key]
        # First-seen order, not a set: the codec and pickle walk ``extra`` in
        # dict order, so wire and snapshot bytes must not depend on the
        # interpreter's string hash seed.
        all_extras = dict.fromkeys(key for part in parts for key in part.extra)
        extra = {}
        for key in all_extras:
            sample = next(
                np.asarray(part.extra[key]) for part in parts if key in part.extra
            )
            columns = []
            for part in parts:
                column = part.extra.get(key)
                if column is None:
                    # Match the trailing shape of the parts that do carry the
                    # column (e.g. the handler's (n, 2) cell column) so the
                    # concatenation below never mixes dimensionalities.
                    column = np.full(
                        (len(part),) + sample.shape[1:], None, dtype=object
                    )
                columns.append(np.asarray(column))
            extra[key] = np.concatenate(columns)
        return cls(
            attribute,
            np.concatenate([part.t for part in parts]),
            np.concatenate([part.x for part in parts]),
            np.concatenate([part.y for part in parts]),
            np.concatenate([part.value for part in parts]),
            np.concatenate([part.sensor_id for part in parts]),
            np.concatenate([part.tuple_id for part in parts]),
            meta=meta,
            extra=extra,
        )

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.t.shape[0]

    @property
    def is_empty(self) -> bool:
        """Whether the batch holds no tuples."""
        return self.t.shape[0] == 0

    # ------------------------------------------------------------------
    # Selection
    # ------------------------------------------------------------------
    def select(self, mask_or_index: np.ndarray) -> "TupleBatch":
        """A new batch with the rows selected by a boolean mask or index array."""
        return TupleBatch(
            self.attribute,
            self.t[mask_or_index],
            self.x[mask_or_index],
            self.y[mask_or_index],
            self.value[mask_or_index],
            self.sensor_id[mask_or_index],
            self.tuple_id[mask_or_index],
            meta=self.meta,
            extra={key: np.asarray(col)[mask_or_index] for key, col in self.extra.items()},
        )

    # ------------------------------------------------------------------
    # Materialisation (the lazy escape hatch to the object path)
    # ------------------------------------------------------------------
    def to_tuples(self) -> List[SensorTuple]:
        """Materialise the batch as a list of :class:`SensorTuple`.

        Numpy scalars are converted to their Python equivalents so that
        materialised tuples compare equal to tuples built by the object
        path.  Per-batch metadata scalars and extra columns are folded into
        each tuple's metadata dict.
        """
        items: List[SensorTuple] = []
        for i in range(len(self)):
            metadata = dict(self.meta)
            for key, column in self.extra.items():
                entry = column[i]
                if entry is None:  # a part without this column (see concatenate)
                    continue
                if key == "cell":
                    if entry[0] is None:  # None-padded multi-dim filler row
                        continue
                    entry = (int(entry[0]), int(entry[1]))
                else:
                    entry = _as_python_scalar(entry)
                metadata[key] = entry
            sensor_id = int(self.sensor_id[i])
            items.append(
                SensorTuple(
                    tuple_id=int(self.tuple_id[i]),
                    attribute=self.attribute,
                    t=float(self.t[i]),
                    x=float(self.x[i]),
                    y=float(self.y[i]),
                    value=_as_python_scalar(self.value[i]),
                    sensor_id=None if sensor_id == NO_SENSOR_ID else sensor_id,
                    metadata=metadata,
                )
            )
        return items

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TupleBatch(attribute={self.attribute!r}, n={len(self)})"
