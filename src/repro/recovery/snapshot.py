"""Versioned, checksummed snapshots of the complete engine state.

An :class:`EngineSnapshot` captures *everything* a
:class:`~repro.core.engine.CraqrEngine` needs to continue a run as if it
had never stopped:

* the sensing world — :class:`~repro.sensing.SensorStateArrays` columns
  (positions, targets, counters, participation codes and the per-group
  participation table, reliability/quarantine, the keyed
  streams' ``moves_drawn`` counters), the participation models' per-sensor
  state (fatigue levels, distances), the simulation clock and the world's
  own stream (sensors keep no generator);
* the request/response handler — per-(attribute, cell) budgets, lifetime
  counters, incentive ledgers, the tuple-id allocator, the
  :class:`~repro.faults.FaultInjector`'s private stream and burst/stuck
  state, and the :class:`~repro.faults.SensorHealthMonitor`'s quarantine
  bookkeeping;
* the query pipeline — planner/topology/operator state including every
  operator RNG, Flatten reports (the newest ``retention_batches`` when
  retention is on) and online estimators, Thin/Partition drop
  counters, Union merge state, and the planner's paused set;
* serving state — :class:`~repro.storage.QueryResultBuffer` chunk lists
  (packed one columnar block per layout, split back into independent
  chunks on load) with exact lifetime totals,
  :class:`~repro.views.ViewFrameBuffer` frames, open pane partials and
  :class:`~repro.views.QuantileSketch` state;
* control state — budget-tuner decision history and saturation flags,
  degradation EWMAs, engine reports, batch index and the engine RNG.

The capture mechanism is deliberately *whole-object*: the engine's object
graph is serialized in one pickle payload, so shared references (the
handler's world IS the engine's world; the health monitor's state IS the
world's SoA) and every ``bit_generator.state`` are preserved exactly, and
new state added to any subsystem is captured by default instead of by
remembering to list it.  What a capture leaves out is rebuilt or not
engine state: user push subscriptions (buffers drop their subscriber
lists; user code re-subscribes — views are no subscribers, the engine
folds them), a view's aggregate object (rebuilt from the registry by
name), derived caches and an armed :class:`~repro.faults.CrashInjector`
(a restored engine never inherits a crash plan).  A restored engine needs
no re-wiring.

The recovery contract — asserted batch-for-batch in ``tests/recovery/`` —
is that a restored engine's subsequent batches are **seeded
byte-identical** to the uninterrupted run, across strict/fast-sim and
active fault plans with mitigation.

Loading is the mirror image, but narrow: a payload may name only the
globals an engine snapshot contains (:class:`_SnapshotUnpickler`).  The
frame's SHA-256 proves a file is intact, not who wrote it, so a
well-framed file that names anything else — a function, a class from
outside ``repro`` or from a ``repro`` module that opens files, sockets or
processes — is refused before that global is called, and ``getattr`` in a
payload yields only the three bound methods engine state stores.  What a
load can run is then the constructors, ``__call__`` and container methods
of admitted classes plus those three methods, and none of that code
touches a file, socket or process (the checkpoint store is admitted, but
nothing a load can reach calls its ``write`` or ``prune``).  What a
*restored* engine does next is whatever its state says: a planted engine
whose checkpoint directory points elsewhere writes there once it runs
batches.
"""

from __future__ import annotations

import copyreg
import io
import pathlib
import pickle
import types
from typing import Iterator, Optional, Tuple

import numpy as np

from ..errors import RecoveryError
from ..streams import TupleBatch
from ..streams.codec import reduce_tuple_batch
from .io import (
    FORMAT_VERSION,
    PathLike,
    SNAPSHOT_SUFFIX,
    list_snapshots,
    read_snapshot_file,
    write_snapshot_file,
)

#: Identifies the pickled payload as an engine snapshot (a second guard
#: behind the file-level magic, useful for in-memory payloads).
_PAYLOAD_KIND = "craqr-engine-snapshot"


def _rebuild_generator(state: dict) -> np.random.Generator:
    """Rebuild an ``np.random.Generator`` from its bit-generator state."""
    cls = getattr(np.random, state["bit_generator"], None)
    if not (isinstance(cls, type) and issubclass(cls, np.random.BitGenerator)):
        raise RecoveryError(f"{state['bit_generator']!r} is not a numpy bit generator")
    bit_generator = cls()
    bit_generator.state = state
    return np.random.Generator(bit_generator)


def _reduce_generator(generator: np.random.Generator):
    return _rebuild_generator, (generator.bit_generator.state,)


class _SnapshotPickler(pickle.Pickler):
    """The engine pickler, with fast paths for the two hot object classes.

    An engine carries several ``np.random.Generator``\\ s (the world's, the
    engine's, the operators', the fault injector's), and
    ``Generator.__reduce__`` is an order of magnitude slower (and ~4x
    larger) than the underlying ``bit_generator.state`` dict it wraps.
    A ``TupleBatch`` reached outside a result buffer is packed column by
    column into raw bytes (:func:`~repro.streams.codec.reduce_tuple_batch`),
    ~3x cheaper than per-ndarray pickle framing.  Result buffers retain one
    columnar chunk per acquisition round — hundreds of small batches — and
    do not go through it: each buffer's ``__getstate__`` hands its chunks
    to :func:`~repro.streams.codec.pack_tuple_batches`, one concatenated
    block per run of equal-layout chunks.  The pickler's memo still
    deduplicates generators and dispatched batches by object identity, so
    those shared between subsystems come back shared.  Nothing in the
    engine holds a bare ``BitGenerator`` reference, so wrapping a fresh one
    on rebuild cannot split a shared stream; restored chunk columns are
    exact-typed copies.
    """

    dispatch_table = copyreg.dispatch_table.copy()
    dispatch_table[np.random.Generator] = _reduce_generator
    dispatch_table[TupleBatch] = reduce_tuple_batch


def _dumps(obj) -> bytes:
    buffer = io.BytesIO()
    _SnapshotPickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(obj)
    return buffer.getvalue()


#: Globals a payload may name besides engine classes and numpy's array /
#: dtype reconstructors: the two rebuilders the pickler's ``dispatch_table``
#: writes, the no-op result handler the planner stores for queries
#: registered without a callback, the engine's checkpoint store and three
#: stdlib types.
_ADMITTED = {
    (__name__, "_rebuild_generator"),
    ("repro.streams.codec", "rebuild_tuple_batch"),
    ("repro.core.planner", "_drop_delivery"),
    (__name__, "CheckpointStore"),
    ("collections", "deque"),
    ("builtins", "slice"),
    ("pathlib", "PosixPath"),
}

#: Reached as ``numpy.*``, ``numpy.core.*`` (numpy 1) or ``numpy._core.*``.
_NUMPY_NAMES = {"ndarray", "dtype", "_reconstruct", "_frombuffer"}

#: ``repro`` modules whose classes open files, sockets or processes, or are
#: not engine state at all.  Engine state holds none of them except the
#: checkpoint store, admitted by name.
_NOT_ENGINE_STATE = (
    "repro.analysis",
    "repro.cli",
    "repro.faults.crash",
    "repro.recovery",
    "repro.serve",
)

#: The bound methods engine state stores, by name, with the class that
#: defines them: operator subscriptions, the planner's per-cell delivery,
#: the engine's delivery into result buffers and, under
#: ``store_discarded``, the discard store's recorder.  Pickle writes each
#: as ``getattr(instance, name)``.
_STORED_METHODS = {
    "accept": ("repro.streams.operator", "StreamOperator"),
    "_deliver": ("repro.core.planner", "QueryPlanner"),
    "_deliver_batch": ("repro.core.engine", "CraqrEngine"),
    "record": ("repro.storage.discarded", "DiscardedStore"),
}


def _in_package(module: str, package: str) -> bool:
    return module == package or module.startswith(package + ".")


def _is_engine_module(module: str) -> bool:
    return _in_package(module, "repro") and not any(
        _in_package(module, package) for package in _NOT_ENGINE_STATE
    )


def _guarded_getattr(obj, name: str):
    """``getattr`` that rebuilds only the methods in :data:`_STORED_METHODS`.

    The method is looked up on the class, so neither an instance attribute
    planted under that name nor any other attribute is reachable.
    """
    cls = type(obj)
    owner = _STORED_METHODS.get(name)
    method = None
    if owner is not None and any(
        (base.__module__, base.__qualname__) == owner for base in cls.__mro__
    ):
        method = getattr(cls, name, None)
    if not isinstance(method, types.FunctionType):
        raise RecoveryError(
            f"snapshot payload asks for {cls.__name__}.{name}, which is not "
            f"a method engine state stores"
        )
    return method.__get__(obj, cls)


class _SnapshotUnpickler(pickle.Unpickler):
    """Resolves only the globals an engine snapshot is made of.

    Classes of engine modules (``repro`` minus :data:`_NOT_ENGINE_STATE`),
    the names in :data:`_ADMITTED`, numpy's array and dtype reconstructors,
    and ``getattr`` as :func:`_guarded_getattr`.  Every other global raises
    :class:`RecoveryError` before it is called.
    """

    def find_class(self, module: str, name: str):
        if (module, name) == ("builtins", "getattr"):
            return _guarded_getattr
        if (module, name) in _ADMITTED:
            return super().find_class(module, name)
        if name in _NUMPY_NAMES and (
            module == "numpy" or module.startswith(("numpy.core.", "numpy._core."))
        ):
            return super().find_class(module, name)
        if _is_engine_module(module):
            found = super().find_class(module, name)
            if isinstance(found, type) and _is_engine_module(found.__module__):
                return found
        raise RecoveryError(
            f"snapshot payload refers to {module}.{name}, which is not part "
            f"of an engine snapshot"
        )


class EngineSnapshot:
    """One captured engine state, restorable into a live engine.

    Instances are immutable captures: :meth:`capture` serializes the
    engine's object graph *at call time*, so later engine mutations never
    leak into the snapshot.  A snapshot round-trips through :meth:`write` /
    :func:`load_snapshot` (the versioned, checksummed file format) and
    :meth:`restore` builds a fully independent engine from it —
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
            "queries": len(engine.query_handles()),
            "views": len(engine.view_handles()),
        }
        return cls(payload, meta)

    # ------------------------------------------------------------------
    @property
    def batch_index(self) -> int:
        """Number of batches the captured engine had completed."""
        return self._meta["batch_index"]

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
    def write(self, path: PathLike, *, pre_replace_hook=None) -> pathlib.Path:
        """Atomically write this snapshot to a file (framed + checksummed)."""
        target = pathlib.Path(path)
        write_snapshot_file(target, self._payload, pre_replace_hook=pre_replace_hook)
        return target

    @classmethod
    def _from_payload(cls, payload: bytes, *, source: str = "snapshot") -> "EngineSnapshot":
        state = cls._load_state(payload, source=source)
        meta = {
            "batch_index": state["batch_index"],
            "queries": len(state["engine"].query_handles()),
            "views": len(state["engine"].view_handles()),
        }
        return cls(payload, meta)

    @staticmethod
    def _load_state(payload: bytes, *, source: str = "snapshot") -> dict:
        try:
            state = _SnapshotUnpickler(io.BytesIO(payload)).load()
        except RecoveryError as exc:
            raise RecoveryError(f"{source} is refused: {exc}") from exc
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
        to the batch the uninterrupted engine ran next, its views folding
        as they did (the engine feeds them; there is nothing to re-wire).
        User push subscriptions are not restored (re-subscribe after
        restore).  The process-wide query-id allocator is advanced past the
        snapshot's high-water mark so new registrations never collide with
        restored ids.
        """
        from ..core.query import query_id_allocator

        state = self._load_state(self._payload)
        query_id_allocator().advance_to(state["next_query_id"])
        return state["engine"]


class CheckpointStore:
    """Writes, retains and locates checkpoint files in one directory.

    Filenames embed the batch index (``checkpoint-00000010.ckpt``) so
    lexicographic order is batch order; after each successful write the
    oldest files beyond ``retain`` are pruned.  Keeping several files is
    what gives :meth:`load_latest` its fallback: a torn or corrupt newest
    file (crash mid-write), or one the loader refuses, is skipped in favour
    of the previous one.
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
        """The file :meth:`load_latest` loads (``None`` when none loads)."""
        return next(self._loadable(), (None, None))[0]

    def load_latest(self) -> Optional[EngineSnapshot]:
        """The newest checkpoint that verifies and loads, parsed.

        Falls back over torn, corrupt and refused files alike; ``None``
        when no file loads.
        """
        return next(self._loadable(), (None, None))[1]

    def _loadable(self) -> Iterator[Tuple[pathlib.Path, EngineSnapshot]]:
        for path in reversed(list_snapshots(self._directory)):
            try:
                yield path, load_snapshot(path)
            except RecoveryError:
                continue


def load_snapshot(path: PathLike) -> EngineSnapshot:
    """Read, verify and parse one snapshot file."""
    payload = read_snapshot_file(path)
    return EngineSnapshot._from_payload(payload, source=str(path))


def restore_engine(path: PathLike):
    """Restore a live engine from one snapshot file."""
    return load_snapshot(path).restore()


def restore_latest(directory: PathLike):
    """Restore from the newest good checkpoint in a directory.

    Falls back over torn/corrupt/refused files; raises
    :class:`RecoveryError` when the directory holds no readable checkpoint
    at all.
    """
    store = CheckpointStore(directory)
    snapshot = store.load_latest()
    if snapshot is None:
        raise RecoveryError(
            f"no readable checkpoint in {pathlib.Path(directory)} "
            f"(files may be missing, torn, corrupt or refused)"
        )
    return snapshot.restore()
