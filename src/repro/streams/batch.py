"""Columnar batches of crowdsensed tuples.

:class:`TupleBatch` is the structure-of-arrays counterpart of
:class:`~repro.streams.tuples.SensorTuple`: one contiguous numpy column per
tuple field (``t``, ``x``, ``y``, ``value``, ``sensor_id``, ``tuple_id``)
plus a small per-batch metadata dict.  A batch is homogeneous in its
attribute, which is therefore stored once per batch rather than once per
tuple.

The batch is the unit of work of the columnar fast path: the
request/response handler produces one batch per ``(attribute, cell)``
acquisition round, the fabricator re-buckets batches with vectorised grid
lookups, the PMAT operators transform whole batches with numpy keep-masks,
and result buffers ingest batches without ever materialising individual
``SensorTuple`` objects.  Materialisation (:meth:`TupleBatch.to_tuples`)
happens lazily, only when object-level APIs ask for it.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

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
    def empty(cls, attribute: str = "", *, meta: Optional[dict] = None) -> "TupleBatch":
        """A batch with no tuples."""
        zero = np.empty(0)
        zero_int = np.empty(0, dtype=np.int64)
        return cls(attribute, zero, zero, zero, np.empty(0, dtype=object), zero_int, zero_int, meta=meta)

    @classmethod
    def from_tuples(cls, items: Sequence[SensorTuple]) -> "TupleBatch":
        """Build a batch from materialised tuples (must share one attribute)."""
        if not items:
            return cls.empty()
        attribute = items[0].attribute
        for item in items:
            if item.attribute != attribute:
                raise StreamError(
                    "TupleBatch.from_tuples needs same-attribute tuples; got "
                    f"'{attribute}' and '{item.attribute}'"
                )
        values = [item.value for item in items]
        try:
            value_column = np.asarray(values)
            if value_column.ndim != 1:  # e.g. list/tuple values
                raise ValueError
        except ValueError:
            value_column = np.empty(len(values), dtype=object)
            value_column[:] = values
        extra: Dict[str, np.ndarray] = {}
        if any(item.metadata for item in items):
            metadata_column = np.empty(len(items), dtype=object)
            metadata_column[:] = [item.metadata for item in items]
            extra["__metadata__"] = metadata_column
        return cls(
            attribute,
            np.array([item.t for item in items], dtype=float),
            np.array([item.x for item in items], dtype=float),
            np.array([item.y for item in items], dtype=float),
            value_column,
            np.array(
                [NO_SENSOR_ID if item.sensor_id is None else item.sensor_id for item in items],
                dtype=np.int64,
            ),
            np.array([item.tuple_id for item in items], dtype=np.int64),
            extra=extra,
        )

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
    # Transformations (all zero-copy-per-column slices or views)
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

    def slice_rows(self, start: int, stop: int) -> "TupleBatch":
        """Rows ``start:stop`` as a new batch of zero-copy column views.

        Skips the constructor's coercion and length checks, which the
        columns of a valid batch, sliced alike, pass by construction — the
        merge stage cuts every query's gathered rows into one chunk per
        cell this way, a few hundred times a batch.
        """
        part = TupleBatch.__new__(TupleBatch)
        part.attribute = self.attribute
        part.t = self.t[start:stop]
        part.x = self.x[start:stop]
        part.y = self.y[start:stop]
        part.value = self.value[start:stop]
        part.sensor_id = self.sensor_id[start:stop]
        part.tuple_id = self.tuple_id[start:stop]
        part.meta = self.meta
        part.extra = {key: np.asarray(col)[start:stop] for key, col in self.extra.items()}
        return part

    def sorted_by_time(self) -> "TupleBatch":
        """A new batch with rows in (stable) ascending time order."""
        order = np.argsort(self.t, kind="stable")
        return self.select(order)

    def shifted(self, dt: float = 0.0, dx: float = 0.0, dy: float = 0.0) -> "TupleBatch":
        """A new batch displaced in space-time (the Shift extension operator)."""
        return TupleBatch(
            self.attribute,
            self.t + dt,
            self.x + dx,
            self.y + dy,
            self.value,
            self.sensor_id,
            self.tuple_id,
            meta=self.meta,
            extra=self.extra,
        )

    def with_meta(self, **updates) -> "TupleBatch":
        """A new batch with per-batch metadata entries merged in."""
        meta = dict(self.meta)
        meta.update(updates)
        return TupleBatch(
            self.attribute, self.t, self.x, self.y, self.value,
            self.sensor_id, self.tuple_id, meta=meta, extra=self.extra,
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
        extra_items = [(k, v) for k, v in self.extra.items() if k != "__metadata__"]
        metadata_column = self.extra.get("__metadata__")
        for i in range(len(self)):
            metadata = dict(self.meta)
            if metadata_column is not None:
                metadata.update(metadata_column[i])
            for key, column in extra_items:
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
