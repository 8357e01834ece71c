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
        assert recording.discarded_store.total_discarded > 0


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


class TestSharedViewSorts:
    def test_shared_sort_cache_is_byte_identical(self):
        def build(shared):
            engine = make_engine()
            # Three more views on the same query: two share the default
            # view's (slide=2, cell) signature, one sorts alone.
            engine.execute(
                "CREATE VIEW RainMax ON Storm AS MAX(value) GROUP BY CELL WINDOW 2"
            )
            engine.execute(
                "CREATE VIEW RainSum ON Storm AS SUM(value) GROUP BY CELL WINDOW 4 SLIDE 2"
            )
            engine.execute("CREATE VIEW RainCount ON Storm AS COUNT(*) WINDOW 2")
            if not shared:
                # The reference: every view sorts its own delivered batch.
                for view in engine._views.values():
                    view._shared_sort = None
            return run_to(engine, 8)

        compiled = build(True)
        assert engine_digest(compiled) == engine_digest(build(False))
        view = compiled._views["Rain"]
        cache = view._shared_sort
        assert cache is not None
        # All four views on Storm share one cache object; the three views
        # with the (slide=2, cell/region) signatures produced actual reuse.
        assert compiled._views["RainMax"]._shared_sort is cache
        assert compiled._views["RainCount"]._shared_sort is cache
        assert cache.hits > 0

    def test_views_created_after_restore_share_the_cache(self, tmp_path):
        def drive(engine):
            run_to(engine, 6)
            engine.execute(
                "CREATE VIEW Late ON Storm AS MAX(value) GROUP BY CELL WINDOW 2"
            )
            return run_to(engine, 8)

        run_to(make_engine(checkpoint_dir=tmp_path, every=2), 5)
        restored = restore_latest_fresh(tmp_path)
        drive(restored)
        assert restored._views["Late"]._shared_sort is (
            restored._views["Rain"]._shared_sort
        )
        uninterrupted = drive(make_engine())
        assert engine_digest(restored) == engine_digest(uninterrupted)
