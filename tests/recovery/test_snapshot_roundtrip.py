"""The headline recovery contract: restored == uninterrupted, byte for byte.

Run A executes N batches uninterrupted.  Run B executes the same workload
with periodic checkpoints, "crashes" (the engine object is discarded), is
restored from the newest checkpoint and continues to N.  Across strict /
fast-sim RNG modes — with the full flaky-crowd
``FaultPlan`` + ``ResilienceConfig`` active — both runs must serve
byte-identical streams, view frames, reports and violation sets, pinned
below by golden digests.
"""

import pickle

import pytest

from recovery_harness import (
    SECOND_QUERY,
    engine_digest,
    make_engine,
    online_estimator_states,
    restore_latest_fresh,
    run_to,
)
from repro.core import CraqrEngine
from repro.errors import RecoveryError
from repro.recovery import FORMAT_VERSION, load_snapshot, write_snapshot_file
from repro.sensing import FatigueParticipation, RequestResponseHandler
from repro.sensing.handler import _PerSensorStreams, _SharedStream
from repro.storage import QueryResultBuffer
from repro.views import ContinuousView, ViewHandle

#: Golden digest of the strict-mode workload after 8 batches — pinned so a
#: determinism regression (or an unintended behaviour change anywhere in
#: the acquisition/fabrication/serving stack) fails loudly.  All four were
#: re-pinned once, by PR 21 (Newton MLE, converged-or-constant Flatten,
#: closed-form clipping scale); the two strict ones again when strict
#: sensors began to answer from keyed (Philox) streams in fused per-attribute
#: rounds, and again when they began to move from keyed streams through the
#: kernels.  All four again when every sensor began to be placed from its
#: keyed placement block, tuples began to be stamped at their sensing time
#: and Flatten began to fit over the batch window, and all four when the
#: mobility kernels' distance became ``sqrt(dx*dx + dy*dy)`` in place of
#: ``np.hypot``.  CHANGES.md lists old -> new.
GOLDEN_STRICT = "3f1db707552c77b0c4fcf620a9fa344fb97de8fd7f17e2263c71e66e9d8db6a2"
#: Same workload under shared-stream fast-sim RNG (the fused shared-stream
#: round).  The two fast-sim digests were re-pinned a second time when
#: fast-sim ``advance`` began to skip ahead (last bits of the skipped
#: walkers' positions; every draw unchanged); CHANGES.md, PR 24.
GOLDEN_FAST_SIM = "d0eed51d652050a6c11b0c9517ccaa9f5b8ce11e4dfce647410cb257dee7771c"
#: The same two with no ``FaultPlan`` and no mitigation configured.  The
#: digest is full-precision, so these also guard the wave loop's
#: timestamp arithmetic on healthy runs.
GOLDEN_STRICT_FAULT_FREE = "c4048c624399e28bf33cc6272ee97267294d44957910e4675f166a57477dd736"
GOLDEN_FAST_SIM_FAULT_FREE = "5292ee5f167367d59674b8960f616a4fe659085720e0398fc68e05a70c7f00b7"


class TestRestoreContinuesByteIdentical:
    @pytest.mark.parametrize("vectorized", [False, True], ids=["strict", "fast-sim"])
    def test_checkpoint_crash_restore_converges(self, tmp_path, vectorized):
        reference = run_to(make_engine(vectorized=vectorized), 8)
        crashed = make_engine(checkpoint_dir=tmp_path, every=2, vectorized=vectorized)
        run_to(crashed, 5)  # checkpoints landed at batches 2 and 4
        del crashed  # the "crash": all in-memory state is gone
        restored = restore_latest_fresh(tmp_path)
        assert restored.batches_run == 4
        run_to(restored, 8)
        assert engine_digest(restored) == engine_digest(reference)

    @pytest.mark.parametrize("vectorized", [False, True], ids=["strict", "fast-sim"])
    def test_online_estimators_survive_restore(self, tmp_path, vectorized):
        """``online_estimation=True``: the SGD state is part of the snapshot."""
        reference = run_to(
            make_engine(vectorized=vectorized, online_estimation=True), 8
        )
        crashed = make_engine(
            checkpoint_dir=tmp_path,
            every=2,
            vectorized=vectorized,
            online_estimation=True,
        )
        run_to(crashed, 4)  # the newest checkpoint is the live state
        # The lockstep SGD computes the events-in-window averages as one
        # column and writes them back as Python numbers: the loader admits
        # no numpy scalar.
        for _theta, updates, events in online_estimator_states(crashed).values():
            assert type(updates) is int and type(events) is float
        restored = restore_latest_fresh(tmp_path)
        live, revived = online_estimator_states(crashed), online_estimator_states(restored)
        assert revived == live
        # Some chain is past warm-up, so the SGD estimate (not the MLE
        # fallback) is what flattens the replayed batches.
        assert max(updates for _, updates, _ in live.values()) >= 40
        del crashed
        assert engine_digest(run_to(restored, 8)) == engine_digest(reference)

    @pytest.mark.parametrize("faults", [True, False], ids=["faults", "fault-free"])
    def test_strict_golden_digest_pinned(self, tmp_path, faults):
        engine = make_engine(checkpoint_dir=tmp_path, every=4, faults=faults)
        run_to(engine, 5)
        restored = run_to(restore_latest_fresh(tmp_path), 8)
        golden = GOLDEN_STRICT if faults else GOLDEN_STRICT_FAULT_FREE
        assert engine_digest(restored) == golden

    @pytest.mark.parametrize("faults", [True, False], ids=["faults", "fault-free"])
    def test_fast_sim_golden_digest_pinned(self, tmp_path, faults):
        engine = make_engine(
            checkpoint_dir=tmp_path, every=4, vectorized=True, faults=faults
        )
        run_to(engine, 5)
        restored = run_to(restore_latest_fresh(tmp_path), 8)
        golden = GOLDEN_FAST_SIM if faults else GOLDEN_FAST_SIM_FAULT_FREE
        assert engine_digest(restored) == golden

    @pytest.mark.parametrize("vectorized", [False, True], ids=["strict", "fast-sim"])
    def test_fatigue_crowd_replays_byte_identical(self, tmp_path, vectorized):
        """A fatigue crowd: each model's fatigue dict rides in the snapshot."""
        fatigue = lambda sensor_id: FatigueParticipation(
            0.8, fatigue_per_request=0.1, mean_latency=0.1
        )
        reference = run_to(make_engine(participation=fatigue, vectorized=vectorized), 6)
        crashed = make_engine(
            checkpoint_dir=tmp_path, every=3, participation=fatigue, vectorized=vectorized
        )
        run_to(crashed, 4)  # the newest checkpoint holds batch 3
        del crashed
        restored = restore_latest_fresh(tmp_path)
        assert restored.batches_run == 3
        world = restored.world
        assert any(
            sensor.participation.current_probability(sensor.sensor_id, world.now) < 0.8
            for sensor in world.sensors
        )
        assert engine_digest(run_to(restored, 6)) == engine_digest(reference)

    def test_periodic_checkpointing_is_observationally_free(self, tmp_path):
        """Capturing a snapshot must not advance any RNG or mutate state."""
        with_ckpt = run_to(make_engine(checkpoint_dir=tmp_path, every=1), 6)
        without = run_to(make_engine(), 6)
        assert engine_digest(with_ckpt) == engine_digest(without)


class TestSnapshotSemantics:
    def test_restore_is_a_deep_independent_fork(self, tmp_path):
        engine = run_to(make_engine(), 4)
        snapshot = engine.snapshot()
        fork_a = snapshot.restore()
        fork_b = snapshot.restore()
        run_to(fork_a, 8)
        # Advancing one fork leaves the other (and the original) untouched.
        assert fork_b.batches_run == 4
        assert engine.batches_run == 4
        run_to(fork_b, 8)
        assert engine_digest(fork_a) == engine_digest(fork_b)

    def test_snapshot_captures_call_time_state(self, tmp_path):
        engine = run_to(make_engine(), 4)
        snapshot = engine.snapshot()
        run_to(engine, 8)  # later mutations must not leak into the capture
        assert snapshot.restore().batches_run == 4
        assert snapshot.batch_index == 4
        assert snapshot.queries == 1
        assert snapshot.views == 1

    def test_post_restore_registrations_match_the_uninterrupted_run(self, tmp_path):
        """New queries after a restore get run-A-identical ids and streams."""
        reference = run_to(make_engine(), 4)
        reference.execute(SECOND_QUERY)
        run_to(reference, 8)

        engine = make_engine(checkpoint_dir=tmp_path, every=4)
        run_to(engine, 4)
        restored = restore_latest_fresh(tmp_path)
        restored.execute(SECOND_QUERY)
        run_to(restored, 8)
        assert restored.query("Heat").query_id == reference.query("Heat").query_id
        assert engine_digest(restored) == engine_digest(reference)

    def test_file_format_round_trips_to_the_same_digest(self, tmp_path):
        engine = run_to(make_engine(), 3)
        snapshot = engine.snapshot()
        clone = load_snapshot(snapshot.write(tmp_path / "s.ckpt"))
        assert clone.batch_index == snapshot.batch_index
        assert engine_digest(clone.restore()) == engine_digest(engine)

    def test_a_discard_store_checkpoint_of_the_old_layout_restores(self, tmp_path):
        # Each per-operator TupleStore of a store_discarded engine used to
        # pickle two statistics counters and an (always absent) spatial
        # index beside its capped deque.  A checkpoint written then carries
        # the same FORMAT_VERSION and must restore and run on unchanged —
        # the discard store's bound ``record`` included, which restore used
        # to refuse.
        reference = run_to(make_engine(store_discarded=True), 6)
        engine = run_to(make_engine(store_discarded=True), 3)
        stores = list(engine.discarded_store._stores.values())
        assert stores
        for store in stores:
            store.__dict__.update(_inserted=len(store), _evicted=0, _index=None)
        clone = load_snapshot(engine.snapshot().write(tmp_path / "old.ckpt"))
        restored = run_to(clone.restore(), 6)
        assert engine_digest(restored) == engine_digest(reference)
        assert restored.discarded_store.counts() == reference.discarded_store.counts()

    def test_a_fabricator_checkpoint_of_the_old_layout_restores(self, tmp_path):
        # The stream fabricator used to pickle two fields nothing read: a
        # delivered-tuple count per query id ever registered and a batch
        # counter.  A checkpoint written then carried the same
        # FORMAT_VERSION (13, now refused by its version); a payload of this
        # version that still carries them must restore and run on unchanged.
        reference = run_to(make_engine(), 6)
        engine = run_to(make_engine(), 3)
        fabricator = engine._fabricator
        assert not {"_delivered_per_query", "_batches"} & set(vars(fabricator))
        delivered = {handle.query_id: 40 for handle in engine.query_handles()}
        assert delivered
        vars(fabricator).update(_delivered_per_query=delivered, _batches=3)
        clone = load_snapshot(engine.snapshot().write(tmp_path / "old.ckpt"))
        assert clone.version == FORMAT_VERSION == 14
        restored = run_to(clone.restore(), 6)
        assert engine_digest(restored) == engine_digest(reference)

    def test_a_session_checkpoint_of_the_old_layout_restores(self, tmp_path, monkeypatch):
        # The engine used to keep the result buffers in ``_buffers`` beside
        # the query handles, and the views in two dicts (``_views`` of
        # views, ``_view_handles`` of their handles); a view pickled its
        # aggregate object and its buffer subscription and shared-sort
        # cache (both as None), and a buffer its query's requested rate and
        # area.  A checkpoint written then carried the same FORMAT_VERSION
        # (13, now refused by its version); a payload of this version that
        # still carries them must restore and run on unchanged.
        reference = run_to(make_engine(), 6)
        engine = run_to(make_engine(), 3)
        assert engine.view_handles()
        engine_state = CraqrEngine.__getstate__
        view_state = ContinuousView.__getstate__
        buffer_state = QueryResultBuffer.__getstate__

        def old_engine(live):
            return {
                **engine_state(live),
                "_buffers": {qid: h.buffer for qid, h in live._handles.items()},
                "_views": {name: h.view for name, h in live._views.items()},
                "_view_handles": dict(live._views),
            }

        def old_view(view):
            return {
                **view_state(view),
                "_aggregate": view._aggregate,
                "_subscription": None,
                "_shared_sort": None,
            }

        def old_buffer(buffer):
            query = engine._handles[buffer.query_id].query
            return {
                **buffer_state(buffer),
                "_requested_rate": query.rate,
                "_region_area": query.region.area,
            }

        with monkeypatch.context() as patch:
            patch.setattr(CraqrEngine, "__getstate__", old_engine)
            patch.setattr(ContinuousView, "__getstate__", old_view)
            patch.setattr(QueryResultBuffer, "__getstate__", old_buffer)
            clone = load_snapshot(engine.snapshot().write(tmp_path / "old.ckpt"))
        assert clone.version == FORMAT_VERSION == 14
        restored = clone.restore()
        assert not hasattr(restored, "_buffers")
        assert not hasattr(restored, "_view_handles")
        assert restored.view_handles()
        assert all(isinstance(h, ViewHandle) for h in restored.view_handles())
        assert engine_digest(run_to(restored, 6)) == engine_digest(reference)

    @pytest.mark.parametrize("vectorized", [False, True], ids=["strict", "fast-sim"])
    def test_a_handler_checkpoint_of_the_old_layout_restores(
        self, tmp_path, monkeypatch, vectorized
    ):
        # The handler used to hold one RNG policy per contract, pickled as
        # ``_per_sensor`` and ``_shared_stream``, and no ``_policy``.  A
        # checkpoint written then carried the same FORMAT_VERSION (13, now
        # refused by its version); a payload of this version that still
        # carries them must restore and run on unchanged.
        reference = run_to(make_engine(vectorized=vectorized), 6)
        engine = run_to(make_engine(vectorized=vectorized), 3)
        policy = type(engine.handler._policy)

        def old_layout(handler):
            state = {k: v for k, v in vars(handler).items() if k != "_policy"}
            world = handler._world
            return {
                **state,
                "_per_sensor": _PerSensorStreams(world),
                "_shared_stream": _SharedStream(world),
            }

        with monkeypatch.context() as patch:
            patch.setattr(RequestResponseHandler, "__getstate__", old_layout)
            clone = load_snapshot(engine.snapshot().write(tmp_path / "old.ckpt"))
        assert clone.version == FORMAT_VERSION == 14
        restored = clone.restore()
        assert type(restored.handler._policy) is policy
        assert restored.handler._policy._world is restored.world
        assert engine_digest(run_to(restored, 6)) == engine_digest(reference)

    def test_snapshot_bytes_grow_with_the_crowd_but_not_faster(self, tmp_path):
        # The crowd's SoA columns and RNG streams dominate the payload.
        sizes = [
            run_to(make_engine(sensor_count=count), 5).snapshot()
            .write(tmp_path / f"{count}.ckpt").stat().st_size
            for count in (100, 200, 400)
        ]
        assert sizes[0] < sizes[1] < sizes[2] < 6 * sizes[0]

    def test_unpicklable_attached_state_raises_recovery_error(self):
        engine = run_to(make_engine(), 2)
        # A user bolt-on the checkpoint cannot serialize must fail loudly
        # at capture time, not corrupt the file or crash the restore.
        engine.world.debug_probe = lambda: None
        with pytest.raises(RecoveryError, match="not serializable"):
            engine.snapshot()

    def test_push_subscribers_never_block_a_snapshot(self):
        """subscribe() wiring is excluded from capture, so even an
        unpicklable subscriber doesn't prevent checkpointing."""
        engine = run_to(make_engine(), 2)
        engine.query("Storm").subscribe(lambda batch: None)
        assert engine.snapshot().batch_index == 2

    def test_user_subscriptions_do_not_survive_restore(self):
        """Documented limit: push consumers must re-subscribe after restore."""

        class Recorder:
            def __init__(self):
                self.batches = 0

            def __call__(self, batch):
                self.batches += 1

        engine = run_to(make_engine(), 2)
        recorder = Recorder()
        engine.query("Storm").subscribe(recorder)
        restored = engine.snapshot().restore()
        before = recorder.batches
        run_to(restored, 5)
        assert recorder.batches == before  # detached: nothing fired
        # ... while the engine-managed view stayed attached and kept folding.
        assert restored.view("Rain").buffer.frames_emitted > 1

    def test_snapshot_mid_dispatch_is_rejected(self):
        engine = run_to(make_engine(), 2)
        engine._ending_batch = True
        with pytest.raises(RecoveryError, match="batch boundary"):
            engine.snapshot()
        engine._ending_batch = False

    def test_payload_kind_is_validated(self, tmp_path):
        path = tmp_path / "bogus.ckpt"
        write_snapshot_file(path, pickle.dumps({"kind": "something-else"}))
        with pytest.raises(RecoveryError, match="not an engine snapshot"):
            load_snapshot(path)
