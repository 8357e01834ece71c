"""Checkpoint loads build only what the engine writes.

The frame's SHA-256 proves a file is intact, not who wrote it.  These tests
plant well-framed, correctly checksummed payloads whose unpickling would
create or delete a file, and assert that the side effect never happens:
the loader refuses the global, or the attribute, before calling it.  A
raised ``RecoveryError`` alone would prove nothing — a plain
``pickle.loads`` also ends in an error once the planted call has run and
the payload turns out not to be an engine — so every planted test looks at
the file.
"""

import io
import os
import pickle

import numpy as np
import pytest

from recovery_harness import make_engine, restore_latest_fresh, run_to
from repro.core.engine import CraqrEngine
from repro.core.planner import QueryPlanner
from repro.errors import RecoveryError
from repro.recovery import CheckpointStore, EngineSnapshot, load_snapshot, write_snapshot_file
from repro.recovery.snapshot import _PAYLOAD_KIND, _SnapshotUnpickler, _rebuild_generator


def stale_checkpoints(directory):
    """Two checkpoint files a ``retain=1`` prune would cut to one."""
    directory.mkdir()
    paths = [directory / f"checkpoint-0000000{i}.ckpt" for i in (1, 2)]
    for path in paths:
        path.write_bytes(b"kept")
    return paths


class Plant:
    """Pickles as a call that creates or deletes a file when loaded."""

    def __init__(self, how, path):
        self.how, self.path = how, path

    def __reduce__(self):
        if self.how == "foreign function":
            return os.mkdir, (str(self.path),)
        if self.how == "repro function":
            return write_snapshot_file, (str(self.path), b"planted")
        if self.how == "method of a snapshot":
            # getattr(EngineSnapshot(...), "write")(path)
            return EngineSnapshot(b"planted", {}).write, (str(self.path),)
        if self.how == "method of the checkpoint store":
            # getattr(CheckpointStore(dir, retain=1), "prune")()
            return CheckpointStore(self.path.parent / "stale", retain=1).prune, ()
        # A bound method of a non-engine object: getattr(PosixPath, "touch").
        return self.path.touch, ()


HOWS = [
    "foreign function",
    "repro function",
    "method of a snapshot",
    "method of the checkpoint store",
    "method of a foreign object",
]


def planted_payload(how, path) -> bytes:
    return pickle.dumps(
        {
            "kind": _PAYLOAD_KIND,
            "batch_index": 6,
            "next_query_id": 1,
            "engine": Plant(how, path),
        }
    )


@pytest.mark.parametrize("how", HOWS)
def test_planted_checkpoint_never_runs(tmp_path, how):
    target = tmp_path / "planted"
    stale = stale_checkpoints(tmp_path / "stale")
    path = tmp_path / "checkpoint-00000006.ckpt"
    write_snapshot_file(path, planted_payload(how, target))
    with pytest.raises(RecoveryError, match="refused"):
        load_snapshot(path)
    assert not target.exists()
    assert all(p.exists() for p in stale)


@pytest.mark.parametrize("how", HOWS)
def test_restore_latest_skips_a_refused_newest_file(tmp_path, how):
    engine = make_engine(checkpoint_dir=tmp_path, every=2, retain=3)
    run_to(engine, 4)
    target = tmp_path / "planted"
    stale = stale_checkpoints(tmp_path / "stale")
    store = CheckpointStore(tmp_path)
    write_snapshot_file(store.path_for(6), planted_payload(how, target))
    restored = restore_latest_fresh(tmp_path)
    assert restored.batches_run == 4
    assert store.latest_path() == store.path_for(4)
    assert not target.exists()
    assert all(p.exists() for p in stale)


def unpickler():
    return _SnapshotUnpickler(io.BytesIO(b""))


@pytest.mark.parametrize(
    "module, name",
    [
        ("os", "system"),
        ("builtins", "eval"),
        ("builtins", "open"),
        ("numpy", "load"),
        ("repro.recovery.io", "write_snapshot_file"),  # a repro function
        ("repro.recovery.io", "os"),  # a module reached through repro
        ("repro.recovery.snapshot", "EngineSnapshot"),  # writes files
        ("repro.faults", "CrashInjector"),  # exits the process
        ("repro.serve.client", "ServeClient"),  # connects on construction
    ],
)
def test_unlisted_globals_are_refused(module, name):
    with pytest.raises(RecoveryError, match="not part of an engine snapshot"):
        unpickler().find_class(module, name)


def test_engine_classes_and_rebuilders_are_admitted():
    find = unpickler().find_class
    assert find("repro.core.engine", "CraqrEngine") is CraqrEngine
    assert find("repro.recovery.snapshot", "CheckpointStore") is CheckpointStore
    assert find("repro.recovery.snapshot", "_rebuild_generator") is _rebuild_generator
    array = np.arange(6.0).reshape(2, 3)
    loaded = _SnapshotUnpickler(io.BytesIO(pickle.dumps(array, protocol=5))).load()
    assert loaded.tobytes() == array.tobytes() and loaded.shape == (2, 3)


def test_getattr_rebuilds_only_the_stored_methods(tmp_path):
    guarded = unpickler().find_class("builtins", "getattr")
    engine = make_engine()
    assert guarded(engine, "_deliver_batch") == engine._deliver_batch
    for obj, name in [
        (engine, "checkpoint"),  # a method engine state never stores
        (engine, "_config"),  # a data attribute
        (engine, "__class__"),
        (CheckpointStore(tmp_path), "prune"),
        (tmp_path, "touch"),
    ]:
        with pytest.raises(RecoveryError, match="not a method engine state stores"):
            guarded(obj, name)


def test_getattr_ignores_an_instance_attribute_under_a_stored_name():
    guarded = unpickler().find_class("builtins", "getattr")
    planner = make_engine()._planner
    planner.__dict__["_deliver"] = print
    rebuilt = guarded(planner, "_deliver")
    assert rebuilt.__func__ is QueryPlanner._deliver and rebuilt.__self__ is planner


def test_generator_rebuilder_builds_only_bit_generators():
    state = np.random.default_rng(3).bit_generator.state
    assert _rebuild_generator(state).bit_generator.state == state
    with pytest.raises(RecoveryError, match="not a numpy bit generator"):
        _rebuild_generator({"bit_generator": "default_rng"})
