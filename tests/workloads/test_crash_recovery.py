"""Acceptance regression for the crash-recovery scenario.

The ``crash-recovery`` workload is the flaky crowd running under periodic
crash-consistent checkpoints.  The acceptance bar: kill the engine
mid-run, restore from the last good checkpoint, replay — the replayed run
delivers exactly the same per-batch stream as an uninterrupted run of the
same seeded scenario, pinned below as a constant so any nondeterminism
(or an unintended behaviour change in the acquisition stack) fails
loudly.
"""

import pytest

from repro.core import CraqrEngine
from repro.faults import CrashInjector, CrashPoint, SimulatedCrash
from repro.workloads import crash_recovery_scenario

QUERY = "ACQUIRE rain FROM RECT(0,0,3,3) AT RATE 8 PER KM2 PER MIN AS Storm"
VIEW = "CREATE VIEW Rain ON Storm AS AVG(value) GROUP BY CELL WINDOW 2"
BATCHES = 12
CRASH_AT = 7  # mid-run, past two checkpoints (every=2 → 2, 4, 6 on disk)

#: Lifetime deliveries of the uninterrupted 12-batch reference run —
#: pinned so the scenario itself stays deterministic across changes (842
#: until the MLE solver was replaced, 857 until strict sensors answered from
#: keyed streams, 847 until they moved from keyed streams).
EXPECTED_DELIVERED = 844

SENSORS = 150  # smaller than the demo scenario's 300: CI-friendly


def build_engine(checkpoint_dir=None):
    # The scenario requires a directory; the reference run strips the
    # checkpoint config entirely, so its placeholder is never touched.
    scenario = crash_recovery_scenario(
        checkpoint_dir="unused" if checkpoint_dir is None else str(checkpoint_dir),
        sensor_count=SENSORS,
    )
    config = scenario.config
    if checkpoint_dir is None:
        from dataclasses import replace

        config = replace(config, checkpoints=None)
    engine = CraqrEngine(config, scenario.world)
    engine.execute(QUERY)
    engine.execute(VIEW)
    return engine


def delivered_trace(engine):
    return [r.tuples_delivered for r in engine.reports]


class TestCrashRecoveryScenario:
    def test_replay_after_crash_matches_uninterrupted_run(self, tmp_path):
        reference = build_engine()
        for _ in range(BATCHES):
            reference.run_batch()
        assert reference.total_tuples_delivered() == EXPECTED_DELIVERED

        crashed = build_engine(tmp_path)
        crashed.arm_crash(CrashInjector(CrashPoint.POST_MERGE, at_batch=CRASH_AT))
        with pytest.raises(SimulatedCrash):
            while True:
                crashed.run_batch()
        assert crashed.batches_run == CRASH_AT
        del crashed

        restored = CraqrEngine.restore_latest(tmp_path)
        assert restored.batches_run == 6  # newest checkpoint before the crash
        while restored.batches_run < BATCHES:
            restored.run_batch()

        assert restored.total_tuples_delivered() == EXPECTED_DELIVERED
        assert delivered_trace(restored) == delivered_trace(reference)
        ref_frames = reference.view("Rain").frames()
        res_frames = restored.view("Rain").frames()
        assert [f.values.tobytes() for f in res_frames] == [
            f.values.tobytes() for f in ref_frames
        ]

    def test_scenario_is_configured_for_recovery(self, tmp_path):
        scenario = crash_recovery_scenario(checkpoint_dir=str(tmp_path))
        assert scenario.name == "crash-recovery"
        assert scenario.config.checkpoints is not None
        assert scenario.config.checkpoints.every == 2
        assert scenario.config.checkpoints.retain == 3
        assert scenario.config.faults is not None
        assert scenario.config.resilience is not None
