"""Versioned, checksummed snapshots of the complete engine state.

An :class:`EngineSnapshot` captures *everything* a
:class:`~repro.core.engine.CraqrEngine` needs to continue a run as if it
had never stopped:

* the sensing world — :class:`~repro.sensing.SensorStateArrays` columns
  (positions, velocities, counters, reliability/quarantine, participation
  vector-state extras), the simulation clock, every strict-mode per-sensor
  ``np.random.Generator`` and the world's own stream;
* the request/response handler — per-(attribute, cell) budgets, lifetime
  counters, incentive ledgers, the tuple-id allocator, the
  :class:`~repro.faults.FaultInjector`'s private stream and burst/stuck
  state, and the :class:`~repro.faults.SensorHealthMonitor`'s quarantine
  bookkeeping;
* the query pipeline — planner/topology/operator state including every
  operator RNG, Flatten reports and online estimators, Thin/Partition drop
  counters, Union merge state, and the planner's paused set;
* serving state — :class:`~repro.storage.QueryResultBuffer` chunk lists
  with exact lifetime totals, :class:`~repro.views.ViewFrameBuffer` frames,
  open pane partials and :class:`~repro.views.QuantileSketch` state;
* control state — budget-tuner decision history and saturation flags,
  degradation EWMAs, engine reports, batch index and the engine RNG.

The capture mechanism is deliberately *whole-object*: the engine's object
graph is serialized in one pickle payload, so shared references (the
handler's world IS the engine's world; the health monitor's state IS the
world's SoA) and every ``bit_generator.state`` are preserved exactly, and
new state added to any subsystem is captured by default instead of by
remembering to list it.  The only excluded pieces are push-subscription
wiring (buffers drop their subscriber lists; restore re-attaches the
engine-managed view callbacks deterministically, user callbacks must
re-subscribe) and an armed :class:`~repro.faults.CrashInjector` (a
restored engine never inherits a crash plan).

The recovery contract — asserted batch-for-batch in ``tests/recovery/`` —
is that a restored engine's subsequent batches are **seeded
byte-identical** to the uninterrupted run, across strict/fast-sim and
active fault plans with mitigation.
"""

from __future__ import annotations

import copyreg
import io
import pathlib
import pickle
from typing import Optional

import numpy as np

from ..errors import RecoveryError
from ..sensing.sensor import MobileSensor
from ..streams import TupleBatch
from ..streams.codec import (
    pack_column,
    reduce_tuple_batch,
    rebuild_tuple_batch,
    unpack_column,
)
from .io import (
    FORMAT_VERSION,
    PathLike,
    SNAPSHOT_SUFFIX,
    frame_payload,
    list_snapshots,
    load_latest,
    read_snapshot_file,
    unframe_payload,
    write_snapshot_file,
)

#: Identifies the pickled payload as an engine snapshot (a second guard
#: behind the file-level magic, useful for in-memory payloads).
_PAYLOAD_KIND = "craqr-engine-snapshot"


# The raw-column packing is shared with the wire protocol through
# repro.streams.codec; the module-level aliases keep old snapshot payloads
# (which reference ``repro.recovery.snapshot._rebuild_tuple_batch``) loading.
_pack_column = pack_column
_unpack_column = unpack_column
_rebuild_tuple_batch = rebuild_tuple_batch
_reduce_tuple_batch = reduce_tuple_batch


def _pack_memory(entries):
    """A sensor's sensed-history list in columnar form.

    Each entry is a ``(t, attribute, value)`` triple; at serving rates a
    full crowd holds tens of thousands of them, and pickling that many
    small tuples dominates the capture.  Uniformly typed histories pack
    into three columns (times, attribute vocabulary indices, values);
    anything unusual falls back to the list itself.
    """
    if not entries:
        return None
    ts, attrs, vals = zip(*entries)
    if not all(type(t) is float for t in ts):
        return list(entries)
    value_types = set(map(type, vals))
    if value_types == {float}:
        kind = "f8"
    elif value_types == {bool}:
        kind = "b1"
    else:
        return list(entries)
    vocab = tuple(dict.fromkeys(attrs))
    index = np.fromiter(
        (vocab.index(a) for a in attrs), dtype=np.uint16, count=len(attrs)
    )
    times = np.fromiter(ts, dtype=np.float64, count=len(ts))
    values = np.fromiter(vals, dtype=np.dtype(kind), count=len(vals))
    return (times.tobytes(), vocab, index.tobytes(), kind, values.tobytes())


def _unpack_memory(packed):
    if packed is None:
        return []
    if isinstance(packed, list):
        return packed
    times_raw, vocab, index_raw, kind, values_raw = packed
    times = np.frombuffer(times_raw, dtype=np.float64).tolist()
    attrs = [vocab[i] for i in np.frombuffer(index_raw, dtype=np.uint16)]
    values = np.frombuffer(values_raw, dtype=np.dtype(kind)).tolist()
    return list(zip(times, attrs, values))


def _rebuild_sensor(cls, state, packed_memory):
    sensor = cls.__new__(cls)
    sensor.__dict__.update(state)
    sensor._memory = _unpack_memory(packed_memory)
    return sensor


def _reduce_sensor(sensor):
    state = dict(sensor.__dict__)
    memory = state.pop("_memory", None)
    return _rebuild_sensor, (type(sensor), state, _pack_memory(memory))


def _rebuild_generator(state: dict) -> np.random.Generator:
    """Rebuild an ``np.random.Generator`` from its bit-generator state."""
    bit_generator = getattr(np.random, state["bit_generator"])()
    bit_generator.state = state
    return np.random.Generator(bit_generator)


def _reduce_generator(generator: np.random.Generator):
    return _rebuild_generator, (generator.bit_generator.state,)


class _SnapshotPickler(pickle.Pickler):
    """The engine pickler, with fast paths for the three hot object classes.

    A strict-mode world carries one ``np.random.Generator`` per sensor, and
    ``Generator.__reduce__`` is an order of magnitude slower (and ~4x
    larger) than the underlying ``bit_generator.state`` dict it wraps.
    Result buffers retain one columnar chunk per acquisition round, so a
    few dozen batches means hundreds of small ``TupleBatch`` objects whose
    per-ndarray pickle framing dominates the capture; packing each chunk's
    columns into raw bytes cuts that cost by ~3x.  And every sensor keeps
    a bounded sensed-history list of small tuples which, across a serving
    crowd, adds up to tens of thousands of pickle ops — ``_pack_memory``
    turns each into three byte columns.  The pickler's memo still
    deduplicates all three classes by object identity, so generators,
    chunks and sensors shared between subsystems come back shared.
    Nothing in the engine holds a bare ``BitGenerator`` reference, so
    wrapping a fresh one on rebuild cannot split a shared stream; restored
    chunk columns and history entries are exact-typed copies.
    """

    dispatch_table = copyreg.dispatch_table.copy()
    dispatch_table[np.random.Generator] = _reduce_generator
    dispatch_table[TupleBatch] = _reduce_tuple_batch
    dispatch_table[MobileSensor] = _reduce_sensor


def _dumps(obj) -> bytes:
    buffer = io.BytesIO()
    _SnapshotPickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(obj)
    return buffer.getvalue()


class EngineSnapshot:
    """One captured engine state, restorable into a live engine.

    Instances are immutable captures: :meth:`capture` serializes the
    engine's object graph *at call time*, so later engine mutations never
    leak into the snapshot.  A snapshot round-trips through
    :meth:`to_bytes` / :meth:`from_bytes` (the versioned, checksummed file
    format) and :meth:`restore` builds a fully independent engine from it —
    also usable purely in memory as a deep fork of a running engine.
    """

    __slots__ = ("_payload", "_meta")

    def __init__(self, payload: bytes, meta: dict) -> None:
        self._payload = payload
        self._meta = meta

    # ------------------------------------------------------------------
    @classmethod
    def capture(cls, engine) -> "EngineSnapshot":
        """Serialize the complete state of a live engine.

        Must be called at a batch boundary (the engine does this for you
        from ``run_batch``/``checkpoint``): buffers have closed their
        current batch and operator scratch buffers are empty, which is
        what makes the snapshot crash-consistent.
        """
        from ..core.query import query_id_allocator

        state = {
            "kind": _PAYLOAD_KIND,
            "batch_index": engine.batches_run,
            "next_query_id": query_id_allocator().peek(),
            "engine": engine,
        }
        try:
            payload = _dumps(state)
        except Exception as exc:
            raise RecoveryError(
                f"engine state is not serializable: {exc}; user-attached "
                f"callbacks must be picklable or detached before checkpointing"
            ) from exc
        meta = {
            "batch_index": state["batch_index"],
            "next_query_id": state["next_query_id"],
            "queries": len(engine.query_handles()),
            "views": len(engine.view_handles()),
            "size_bytes": len(payload),
        }
        return cls(payload, meta)

    # ------------------------------------------------------------------
    @property
    def batch_index(self) -> int:
        """Number of batches the captured engine had completed."""
        return self._meta["batch_index"]

    @property
    def size_bytes(self) -> int:
        """Size of the serialized payload (before file framing)."""
        return self._meta["size_bytes"]

    @property
    def queries(self) -> int:
        """Registered queries at capture time."""
        return self._meta["queries"]

    @property
    def views(self) -> int:
        """Maintained views at capture time."""
        return self._meta["views"]

    @property
    def version(self) -> int:
        """The snapshot format version this build writes."""
        return FORMAT_VERSION

    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """The snapshot in its versioned, checksummed wire format."""
        return frame_payload(self._payload)

    def write(self, path: PathLike, *, pre_replace_hook=None) -> pathlib.Path:
        """Atomically write this snapshot to a file (framed + checksummed)."""
        target = pathlib.Path(path)
        write_snapshot_file(target, self._payload, pre_replace_hook=pre_replace_hook)
        return target

    @classmethod
    def from_bytes(cls, data: bytes, *, source: str = "snapshot") -> "EngineSnapshot":
        """Parse (and checksum-verify) a framed snapshot."""
        return cls._from_payload(unframe_payload(data, source=source), source=source)

    @classmethod
    def _from_payload(cls, payload: bytes, *, source: str = "snapshot") -> "EngineSnapshot":
        state = cls._load_state(payload, source=source)
        meta = {
            "batch_index": state["batch_index"],
            "next_query_id": state["next_query_id"],
            "queries": len(state["engine"].query_handles()),
            "views": len(state["engine"].view_handles()),
            "size_bytes": len(payload),
        }
        return cls(payload, meta)

    @staticmethod
    def _load_state(payload: bytes, *, source: str = "snapshot") -> dict:
        try:
            state = pickle.loads(payload)
        except Exception as exc:
            raise RecoveryError(f"{source} does not deserialize: {exc}") from exc
        if not isinstance(state, dict) or state.get("kind") != _PAYLOAD_KIND:
            raise RecoveryError(f"{source} is not an engine snapshot payload")
        return state

    # ------------------------------------------------------------------
    def restore(self):
        """Build a live engine from this snapshot.

        The returned engine is fully independent of the captured one (the
        payload is deserialized fresh on every call) and resumes exactly
        where the capture left off: its next batch is seeded byte-identical
        to the batch the uninterrupted engine ran next.  Engine-managed
        view subscriptions are re-attached; user push subscriptions are
        not (re-subscribe after restore).  The process-wide query-id
        allocator is advanced past the snapshot's high-water mark so new
        registrations never collide with restored ids.
        """
        from ..core.query import query_id_allocator

        state = self._load_state(self._payload)
        engine = state["engine"]
        engine._reattach_after_restore()
        query_id_allocator().advance_to(state["next_query_id"])
        return engine


class CheckpointStore:
    """Writes, retains and locates checkpoint files in one directory.

    Filenames embed the batch index (``checkpoint-00000010.ckpt``) so
    lexicographic order is batch order; after each successful write the
    oldest files beyond ``retain`` are pruned.  Keeping several files is
    what gives :meth:`latest_path` its fallback: a torn or corrupt newest
    file (crash mid-write) is skipped in favour of the previous one.
    """

    def __init__(self, directory: PathLike, *, retain: int = 3) -> None:
        if retain <= 0:
            raise RecoveryError("retain must be positive")
        self._directory = pathlib.Path(directory)
        self._retain = retain

    @property
    def directory(self) -> pathlib.Path:
        """The checkpoint directory."""
        return self._directory

    def path_for(self, batch_index: int) -> pathlib.Path:
        """The checkpoint filename for a batch index."""
        return self._directory / f"checkpoint-{batch_index:08d}{SNAPSHOT_SUFFIX}"

    def write(self, snapshot: EngineSnapshot, *, pre_replace_hook=None) -> pathlib.Path:
        """Atomically write a snapshot and prune past the retention cap."""
        path = snapshot.write(
            self.path_for(snapshot.batch_index), pre_replace_hook=pre_replace_hook
        )
        self.prune()
        return path

    def prune(self) -> None:
        """Delete the oldest checkpoints beyond the retention cap."""
        paths = list_snapshots(self._directory)
        for stale in paths[: max(0, len(paths) - self._retain)]:
            try:
                stale.unlink()
            except OSError:  # pragma: no cover - racing cleanup
                pass

    def latest_path(self) -> Optional[pathlib.Path]:
        """The newest checkpoint file that passes verification."""
        return load_latest(self._directory)

    def load_latest(self) -> Optional[EngineSnapshot]:
        """The newest verifiable checkpoint, parsed (``None`` when empty)."""
        path = self.latest_path()
        if path is None:
            return None
        return load_snapshot(path)


def load_snapshot(path: PathLike) -> EngineSnapshot:
    """Read, verify and parse one snapshot file."""
    payload = read_snapshot_file(path)
    return EngineSnapshot._from_payload(payload, source=str(path))


def restore_engine(path: PathLike):
    """Restore a live engine from one snapshot file."""
    return load_snapshot(path).restore()


def restore_latest(directory: PathLike):
    """Restore from the newest good checkpoint in a directory.

    Falls back over torn/corrupt files; raises :class:`RecoveryError` when
    the directory holds no readable checkpoint at all.
    """
    store = CheckpointStore(directory)
    snapshot = store.load_latest()
    if snapshot is None:
        raise RecoveryError(
            f"no readable checkpoint in {pathlib.Path(directory)} "
            f"(files may be missing, torn or corrupt)"
        )
    return snapshot.restore()
