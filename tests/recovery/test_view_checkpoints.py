"""Checkpoints of engines whose views hold state from outside ``repro``.

The snapshot loader admits only ``repro`` classes, so a view whose state
names a builtin exception or a user-defined aggregate would write a file
that every restore refuses — and ``restore_latest`` would silently fall
back to an older checkpoint, or to none once ``retain`` pruned them.  A
quarantined view keeps its error as a ``ViewError``; a view keeps its
aggregate by registered name, rebuilt on restore.
"""

import numpy as np
import pytest

from recovery_harness import engine_digest, make_engine, run_to, simulate_fresh_process
from repro.core import CraqrEngine
from repro.errors import RecoveryError, ViewError
from repro.views import Aggregate, aggregates, register_aggregate


def restore_fresh(path) -> CraqrEngine:
    """Restore one checkpoint file the way a recovery process would."""
    simulate_fresh_process()
    return CraqrEngine.restore(path)


class Range(Aggregate):
    """``max - min`` per group: an aggregate registered from outside ``repro``."""

    name = "RANGE"

    def new_state(self):
        return (np.inf, -np.inf)

    def fold(self, state, values, count):
        if len(values) == 0:
            return state
        return (min(state[0], float(values.min())), max(state[1], float(values.max())))

    def merge(self, state, other):
        return (min(state[0], other[0]), max(state[1], other[1]))

    def result(self, state):
        return state[1] - state[0]


def test_a_view_quarantined_by_a_python_error_checkpoints_and_restores(
    tmp_path, monkeypatch
):
    def divide_by_zero(self, state, values, count):
        return 1 / 0

    monkeypatch.setattr(aggregates.MinAggregate, "fold", divide_by_zero)
    view = "CREATE VIEW Low ON Storm AS MIN(value) GROUP BY CELL WINDOW 2"
    reference = make_engine()
    reference.execute(view)
    run_to(reference, 8)
    engine = make_engine()
    engine.execute(view)
    path = run_to(engine, 4).checkpoint(tmp_path / "quarantined.ckpt")
    assert not engine.view("Low").is_active()

    restored = restore_fresh(path)
    low = restored.view("Low")
    assert not low.is_active()
    assert isinstance(low.error, ViewError)
    assert str(low.error) == "ZeroDivisionError: division by zero"
    assert engine_digest(run_to(restored, 8)) == engine_digest(reference)


def test_a_view_on_a_user_registered_aggregate_checkpoints_and_restores(
    tmp_path, monkeypatch
):
    monkeypatch.setattr(aggregates, "_REGISTRY", dict(aggregates._REGISTRY))
    register_aggregate("RANGE", Range)
    view = "CREATE VIEW Spread ON Storm AS RANGE(value) GROUP BY CELL WINDOW 2"
    reference = make_engine()
    reference.execute(view)
    run_to(reference, 8)
    engine = make_engine()
    engine.execute(view)
    path = run_to(engine, 4).checkpoint(tmp_path / "range.ckpt")

    restored = run_to(restore_fresh(path), 8)
    frames = restored.view("Spread").frames()
    assert [frame.window_end for frame in frames] == [2.0, 4.0, 6.0, 8.0]
    assert any(frame.values.size for frame in frames)
    assert engine_digest(restored) == engine_digest(reference)

    del aggregates._REGISTRY["RANGE"]
    with pytest.raises(RecoveryError, match="'RANGE'.*not registered"):
        restore_fresh(path)
