"""Acceptance regression for the crash-recovery scenario.

The ``crash-recovery`` workload is the flaky crowd (``flaky_crowd_plan``
plus ``default_resilience_config`` over the rain + temperature city)
running under periodic crash-consistent checkpoints.  The acceptance bar:
kill the engine
mid-run, restore from the last good checkpoint, replay — the replayed run
delivers exactly the same per-batch stream as an uninterrupted run of the
same seeded scenario, pinned below as a constant so any nondeterminism
(or an unintended behaviour change in the acquisition stack) fails
loudly.
"""

from dataclasses import replace

import pytest

from repro.config import CheckpointConfig
from repro.core import CraqrEngine
from repro.faults import CrashInjector, CrashPoint, SimulatedCrash
from repro.workloads import (
    build_rain_temperature_world,
    default_engine_config,
    default_resilience_config,
    flaky_crowd_plan,
)

QUERY = "ACQUIRE rain FROM RECT(0,0,3,3) AT RATE 8 PER KM2 PER MIN AS Storm"
VIEW = "CREATE VIEW Rain ON Storm AS AVG(value) GROUP BY CELL WINDOW 2"
BATCHES = 12
CRASH_AT = 7  # mid-run, past two checkpoints (every=2 → 2, 4, 6 on disk)

#: Lifetime deliveries of the uninterrupted 12-batch reference run —
#: pinned so the scenario itself stays deterministic across changes (842
#: until the MLE solver was replaced, 857 until strict sensors answered from
#: keyed streams, 847 until they moved from keyed streams, 844 until every
#: sensor was placed from its keyed placement block, its tuples were stamped
#: at their sensing time and Flatten fitted over the batch window).
EXPECTED_DELIVERED = 881

SENSORS = 150  # smaller than the demo scenario's 300: CI-friendly


def build_engine(checkpoint_dir=None):
    """The flaky crowd; checkpointed every 2 batches (3 kept) into ``checkpoint_dir``."""
    config = replace(
        default_engine_config(),
        faults=flaky_crowd_plan(seed=23),
        resilience=default_resilience_config(),
    )
    if checkpoint_dir is not None:
        config = replace(
            config,
            checkpoints=CheckpointConfig(directory=str(checkpoint_dir), every=2, retain=3),
        )
    engine = CraqrEngine(config, build_rain_temperature_world(sensor_count=SENSORS, seed=11))
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
