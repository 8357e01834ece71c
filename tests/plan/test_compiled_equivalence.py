"""The compiled path's byte-identity contract, pinned across the matrix.

The compiled chain programs are the engine's only chain executor, so what
pins them at engine level is the recovery suite's committed golden digests
— strict / fast-sim RNGs, the full flaky-crowd fault plan + mitigation
bundle active, and restore-from-checkpoint.  The per-tuple operator walk
they must agree with is compared on the *same acquired rows* — deliveries,
reports, counters, discards — in ``tests/core/test_chain_differential.py``.
"""

import pytest

from recovery_harness import (
    engine_digest,
    make_engine,
    restore_latest_fresh,
    run_to,
)
from test_snapshot_roundtrip import GOLDEN_FAST_SIM, GOLDEN_STRICT


class TestCompiledGoldenEquivalence:
    @pytest.mark.parametrize("vectorized", [False, True], ids=["strict", "fast-sim"])
    def test_digest_matrix(self, vectorized):
        compiled = run_to(make_engine(vectorized=vectorized), 8)
        golden = GOLDEN_FAST_SIM if vectorized else GOLDEN_STRICT
        assert engine_digest(compiled) == golden
        # The run actually compiled (and reused) programs.
        assert compiled.plan_cache is not None
        assert compiled.plan_cache.compiles > 0
        assert compiled.plan_cache.reuses > 0

    def test_store_discarded_runs_compiled(self):
        from repro.config import BudgetConfig, EngineConfig
        from repro.core import CraqrEngine
        from recovery_harness import make_world, simulate_fresh_process

        def build(store_discarded):
            simulate_fresh_process()
            config = EngineConfig(
                grid_cells=16,
                batch_duration=1.0,
                budget=BudgetConfig(
                    initial=40, delta=10, limit=400, violation_threshold=5.0
                ),
                seed=42,
                store_discarded=store_discarded,
            )
            engine = CraqrEngine(config, make_world())
            engine.execute(
                "ACQUIRE rain FROM RECT(0, 0, 2, 2) AT RATE 8 PER KM2 PER MIN AS Storm"
            )
            return run_to(engine, 4)

        recording = build(True)
        plain = build(False)
        # The fused flatten kernel pushes the complement of its keep-mask
        # to the recorder, so recording engines compile like any other —
        # and recording changes nothing about the served streams.
        assert recording.plan_cache is not None
        assert recording.plan_cache.compiles > 0
        assert engine_digest(recording) == engine_digest(plain)
        # What was recorded is compared with the operator walk's discards
        # in tests/core/test_chain_differential.py (the ``discards`` cases).
        assert sum(recording.discarded_store.counts().values()) > 0


class TestRestoreEquivalence:
    def test_restored_compiled_run_hits_the_golden(self, tmp_path):
        # Run A: uninterrupted to 8. Run B: crash after 5, restore from the
        # batch-4 checkpoint, continue to 8. Both compiled, both golden.
        run_to(make_engine(checkpoint_dir=tmp_path, every=2), 5)
        restored = restore_latest_fresh(tmp_path)
        # The plan cache is derived state: never checkpointed, rebuilt
        # lazily on the first batch after restore.
        assert restored.plan_cache is None
        run_to(restored, 8)
        assert restored.plan_cache is not None
        assert restored.plan_cache.compiles > 0
        assert engine_digest(restored) == GOLDEN_STRICT


def view_frames(engine, name):
    """Every retained frame of one view, as comparable plain values."""
    return [
        (
            frame.frame_index,
            frame.window_start,
            frame.window_end,
            frame.keys.tolist(),
            frame.values.tobytes(),
            frame.counts.tobytes(),
        )
        for frame in engine.view(name).frames()
    ]


class TestViewsOnOneQuery:
    #: Two views on Storm with one (slide, group) signature: a 2-batch
    #: tumbling window grouped by cell, as the harness's ``Rain`` view.
    VIEWS = {
        "RainMax": "CREATE VIEW RainMax ON Storm AS MAX(value) GROUP BY CELL WINDOW 2",
        "RainSum": "CREATE VIEW RainSum ON Storm AS SUM(value) GROUP BY CELL WINDOW 2",
    }

    def build(self, names, **options):
        engine = make_engine(view=False, **options)
        for name in names:
            engine.execute(self.VIEWS[name])
        return engine

    def test_views_sharing_a_signature_emit_what_each_emits_alone(self, tmp_path):
        together = run_to(self.build(self.VIEWS), 8)
        run_to(self.build(self.VIEWS, checkpoint_dir=tmp_path, every=2), 5)
        restored = run_to(restore_latest_fresh(tmp_path), 8)
        for name in self.VIEWS:
            alone = view_frames(run_to(self.build([name]), 8), name)
            assert len(alone) == 4
            assert view_frames(together, name) == alone
            assert view_frames(restored, name) == alone

    def test_a_view_created_after_restore_folds_as_in_the_uninterrupted_run(
        self, tmp_path
    ):
        def drive(engine):
            run_to(engine, 6)
            engine.execute(
                "CREATE VIEW Late ON Storm AS MAX(value) GROUP BY CELL WINDOW 2"
            )
            return run_to(engine, 8)

        run_to(make_engine(checkpoint_dir=tmp_path, every=2), 5)
        restored = drive(restore_latest_fresh(tmp_path))
        assert restored.view("Late").frames()
        uninterrupted = drive(make_engine())
        assert engine_digest(restored) == engine_digest(uninterrupted)
