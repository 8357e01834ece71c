"""The checkpoint file format and its crash-consistency guarantees.

Covers the framing (magic/version/length/checksum), atomic writes (temp
file + fsync + rename; a crash mid-write never leaves a torn target),
detection of every corruption class, and the :class:`CheckpointStore`'s
retention and torn-newest fallback behaviour.
"""

import pickle

import pytest

from recovery_harness import (
    engine_digest,
    make_engine,
    restore_latest_fresh,
    run_to,
    simulate_fresh_process,
)
from repro.core import CraqrEngine
from repro.errors import RecoveryError
from repro.recovery import (
    CheckpointStore,
    EngineSnapshot,
    atomic_write_bytes,
    list_snapshots,
    load_latest,
    read_snapshot_file,
    write_snapshot_file,
)
from repro.recovery.io import FORMAT_VERSION, MAGIC, frame_payload, unframe_payload


class TestFraming:
    def test_frame_unframe_round_trip(self):
        payload = pickle.dumps({"hello": "world"})
        assert unframe_payload(frame_payload(payload)) == payload

    def test_frame_starts_with_magic(self):
        assert frame_payload(b"x").startswith(MAGIC)

    def test_short_file_is_rejected(self):
        with pytest.raises(RecoveryError, match="shorter than"):
            unframe_payload(b"CRQR")

    def test_bad_magic_is_rejected(self):
        framed = bytearray(frame_payload(b"payload"))
        framed[:8] = b"NOTMAGIC"
        with pytest.raises(RecoveryError, match="bad magic"):
            unframe_payload(bytes(framed))

    def test_future_format_version_is_rejected(self):
        framed = frame_payload(b"payload", version=FORMAT_VERSION + 1)
        with pytest.raises(RecoveryError, match=f"version {FORMAT_VERSION + 1}"):
            unframe_payload(framed)

    def test_format_version_is_12(self):
        assert FORMAT_VERSION == 12

    @pytest.mark.parametrize(
        "version",
        [
            # 1: the payload pickles a reference to an engine method and a
            # config field this build no longer has.
            1,
            # 2: it would unpickle into an engine whose next fits (Newton,
            # converged-or-constant) differ from the L-BFGS-B run that wrote it.
            2,
            # 3: it would unpickle into a fast-sim world whose next advance
            # skips ahead, leaving other last bits in the positions.
            3,
            # 4: every sensor is rebuilt through a reducer that unpacked its
            # sensed history; this build has neither.
            4,
            # 5: a strict world without an acquisition key, whose sensors
            # answered from their own generators: a replay delivers other tuples.
            5,
            # 6: strict sensors hold movement generators and no ``moves_drawn``
            # column: a replay moves the crowd elsewhere.
            6,
            # 7: every sensor pickles a per-row state view
            # (``ArrayBackedMobilityState``), a class this build no longer has.
            7,
            # 8: the state arrays carry a ``participation_group`` slot and
            # fatigue columns this build has not, and a fast-sim fatigue crowd
            # would replay its round-granular fatigue instead of per request.
            8,
            # 9: result buffers pickle one reduced ``TupleBatch`` per chunk
            # where this build reads one columnar block per layout.
            9,
            # 10: the world pickles a ``MobileSensor`` per row and a model
            # object per sensor, and its crowd was placed from per-sensor
            # generators: a replay starts the crowd elsewhere; its health
            # monitor keeps no run of unanswered requests.
            10,
            # 11: its crowd moved by libm ``hypot`` distances: a replay
            # moves it to other last bits than the run that wrote it.
            11,
        ],
    )
    def test_old_checkpoint_is_refused_by_version(self, version):
        # The refusal must be the version message, not whatever unpickling
        # would trip over first.
        framed = frame_payload(b"payload", version=version)
        with pytest.raises(
            RecoveryError,
            match=f"uses snapshot format version {version}; this build reads "
            f"version {FORMAT_VERSION} only",
        ):
            unframe_payload(framed, source="old.ckpt")

    def test_torn_payload_is_rejected(self):
        framed = frame_payload(b"a moderately long payload")
        with pytest.raises(RecoveryError, match="torn"):
            unframe_payload(framed[:-5])

    def test_bit_flip_is_rejected(self):
        framed = bytearray(frame_payload(b"a moderately long payload"))
        framed[-1] ^= 0x01
        with pytest.raises(RecoveryError, match="checksum mismatch"):
            unframe_payload(bytes(framed))

    def test_error_names_the_source(self):
        with pytest.raises(RecoveryError, match="badfile.ckpt"):
            unframe_payload(b"", source="badfile.ckpt")


class TestAtomicWrites:
    def test_write_creates_parents_and_leaves_no_temp(self, tmp_path):
        target = tmp_path / "deep" / "nested" / "file.bin"
        atomic_write_bytes(target, b"data")
        assert target.read_bytes() == b"data"
        assert not list(target.parent.glob("*.tmp"))

    def test_crash_before_replace_preserves_the_old_file(self, tmp_path):
        """A process dying between temp-write and rename (modelled by a
        raising hook) must leave the previous contents untouched and no
        temp file behind — the atomicity contract the crash matrix relies
        on."""
        target = tmp_path / "file.bin"
        atomic_write_bytes(target, b"old contents")

        def crash():
            raise RuntimeError("simulated power loss")

        with pytest.raises(RuntimeError):
            atomic_write_bytes(target, b"new contents", pre_replace_hook=crash)
        assert target.read_bytes() == b"old contents"
        assert not list(tmp_path.glob("*.tmp")) and not list(tmp_path.glob(".*tmp"))

    def test_snapshot_file_round_trip(self, tmp_path):
        target = tmp_path / "snap.ckpt"
        write_snapshot_file(target, b"payload bytes")
        assert read_snapshot_file(target) == b"payload bytes"

    def test_missing_file_raises_recovery_error(self, tmp_path):
        with pytest.raises(RecoveryError, match="cannot read"):
            read_snapshot_file(tmp_path / "nope.ckpt")


class TestDirectoryScanning:
    def test_list_snapshots_sorted_and_filtered(self, tmp_path):
        for name in [
            "checkpoint-00000004.ckpt",
            "checkpoint-00000002.ckpt",
            "checkpoint-00000010.ckpt",
            "notes.txt",
            ".checkpoint-00000006.ckpt.123.tmp",
        ]:
            (tmp_path / name).write_bytes(b"")
        names = [p.name for p in list_snapshots(tmp_path)]
        assert names == [
            "checkpoint-00000002.ckpt",
            "checkpoint-00000004.ckpt",
            "checkpoint-00000010.ckpt",
        ]

    def test_list_snapshots_missing_directory(self, tmp_path):
        assert list_snapshots(tmp_path / "absent") == []

    def test_load_latest_skips_unreadable_newest(self, tmp_path):
        write_snapshot_file(tmp_path / "checkpoint-00000002.ckpt", b"good")
        (tmp_path / "checkpoint-00000004.ckpt").write_bytes(b"torn garbage")
        latest = load_latest(tmp_path)
        assert latest is not None and latest.name == "checkpoint-00000002.ckpt"

    def test_load_latest_falls_back_past_a_version_1_file(self, tmp_path):
        write_snapshot_file(tmp_path / "checkpoint-00000002.ckpt", b"good")
        (tmp_path / "checkpoint-00000004.ckpt").write_bytes(
            frame_payload(b"written by an older build", version=1)
        )
        latest = load_latest(tmp_path)
        assert latest is not None and latest.name == "checkpoint-00000002.ckpt"

    def test_load_latest_empty_or_corrupt_only(self, tmp_path):
        assert load_latest(tmp_path) is None
        (tmp_path / "checkpoint-00000002.ckpt").write_bytes(b"junk")
        assert load_latest(tmp_path) is None


class TestCheckpointStore:
    def test_rejects_nonpositive_retention(self, tmp_path):
        with pytest.raises(RecoveryError, match="positive"):
            CheckpointStore(tmp_path, retain=0)

    def test_path_embeds_zero_padded_batch_index(self, tmp_path):
        store = CheckpointStore(tmp_path)
        assert store.path_for(10).name == "checkpoint-00000010.ckpt"

    def test_retention_prunes_oldest(self, tmp_path):
        """Running with every=2, retain=3 for 10 batches keeps exactly the
        three newest files — the older ones were pruned after each write."""
        engine = make_engine(checkpoint_dir=tmp_path, every=2, retain=3)
        run_to(engine, 10)
        names = [p.name for p in list_snapshots(tmp_path)]
        assert names == [
            "checkpoint-00000006.ckpt",
            "checkpoint-00000008.ckpt",
            "checkpoint-00000010.ckpt",
        ]

    def test_latest_path_falls_back_over_corrupt_newest(self, tmp_path):
        engine = make_engine(checkpoint_dir=tmp_path, every=2, retain=3)
        run_to(engine, 6)
        newest = tmp_path / "checkpoint-00000006.ckpt"
        data = bytearray(newest.read_bytes())
        data[-1] ^= 0xFF
        newest.write_bytes(bytes(data))
        store = CheckpointStore(tmp_path)
        latest = store.latest_path()
        assert latest is not None and latest.name == "checkpoint-00000004.ckpt"
        assert store.load_latest().batch_index == 4

    def test_restore_latest_on_empty_directory_raises(self, tmp_path):
        with pytest.raises(RecoveryError, match="no readable checkpoint"):
            restore_latest_fresh(tmp_path)

    def test_restore_latest_on_corrupt_only_directory_raises(self, tmp_path):
        (tmp_path / "checkpoint-00000002.ckpt").write_bytes(b"junk")
        with pytest.raises(RecoveryError, match="no readable checkpoint"):
            restore_latest_fresh(tmp_path)


class TestSnapshotFiles:
    def test_engine_snapshot_file_round_trip(self, tmp_path):
        engine = run_to(make_engine(), 3)
        snapshot = engine.snapshot()
        path = snapshot.write(tmp_path / "manual.ckpt")
        from repro.recovery import load_snapshot

        clone = load_snapshot(path)
        assert clone.batch_index == 3
        assert clone.queries == snapshot.queries
        assert clone.views == snapshot.views
        assert clone.size_bytes == snapshot.size_bytes

    def test_kind_guard_rejects_foreign_pickles(self, tmp_path):
        """A well-framed file whose payload is not an engine snapshot (say
        a BENCH metrics pickle) is rejected by the payload-kind guard."""
        path = tmp_path / "checkpoint-00000002.ckpt"
        write_snapshot_file(path, pickle.dumps([1, 2, 3]))
        from repro.recovery import load_snapshot

        with pytest.raises(RecoveryError, match="not an engine snapshot"):
            load_snapshot(path)

    def test_explicit_checkpoint_api_writes_where_told(self, tmp_path):
        engine = run_to(make_engine(), 2)
        path = engine.checkpoint(tmp_path / "here.ckpt")
        assert path == tmp_path / "here.ckpt"
        assert EngineSnapshot.from_bytes(path.read_bytes()).batch_index == 2

    def test_restore_from_one_file_replays_like_the_uninterrupted_run(self, tmp_path):
        reference = run_to(make_engine(), 5)
        engine = run_to(make_engine(), 2)
        path = engine.checkpoint(tmp_path / "here.ckpt")
        simulate_fresh_process()
        restored = CraqrEngine.restore(path)
        assert restored.batches_run == 2
        assert engine_digest(run_to(restored, 5)) == engine_digest(reference)

    def test_checkpoint_without_directory_raises(self):
        engine = run_to(make_engine(), 1)
        with pytest.raises(RecoveryError, match="no checkpoint directory"):
            engine.checkpoint()
