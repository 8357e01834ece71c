"""No stage writes into the columns the handler acquired.

The map phase hands a batch whose rows already arrive in (cell, time)
order to the chain programs as it is, so the programs, the estimate and
the result buffers read the handler's own column arrays, not a private
copy.  A stage that wrote into one in place would silently rewrite the
acquisition record.  Here every column ``acquire_batches`` returns is
flagged non-writeable before anything else sees it — such a write raises
instead — and the run must serve exactly what an unflagged run serves, on
strict and fast-sim worlds and on the flaky crowd with checkpoints.
"""

import pytest

from recovery_harness import engine_digest, make_engine, run_to
from repro.core import StreamFabricator
from repro.sensing import RequestResponseHandler

BATCHES = 6

#: ``(make_engine options, checkpointed)`` per configuration.
CONFIGURATIONS = {
    "strict": (dict(vectorized=False, faults=False), False),
    "fast-sim": (dict(vectorized=True, faults=False), False),
    "flaky-checkpointed": (dict(vectorized=False, faults=True), True),
}


def columns(batch):
    return [batch.t, batch.x, batch.y, batch.value, batch.sensor_id, batch.tuple_id,
            *batch.extra.values()]


@pytest.fixture
def read_only_acquisition(monkeypatch):
    """Flag every acquired column read-only; record the batches and the map's pass-throughs."""
    acquired = []
    handed_on = []
    acquire = RequestResponseHandler.acquire_batches
    map_batches = StreamFabricator.map_batches_fused

    def acquire_batches(self, attribute_cells, *, duration):
        batches, report = acquire(self, attribute_cells, duration=duration)
        for batch in batches.values():
            for column in columns(batch):
                column.flags.writeable = False
        acquired.extend(batches.values())
        return batches, report

    def map_batches_fused(self, batch_per_attribute):
        mapped = map_batches(self, batch_per_attribute)
        handed_on.extend(
            batch for attribute, (batch, _segments) in mapped.items()
            if batch is batch_per_attribute[attribute]
        )
        return mapped

    monkeypatch.setattr(RequestResponseHandler, "acquire_batches", acquire_batches)
    monkeypatch.setattr(StreamFabricator, "map_batches_fused", map_batches_fused)
    return acquired, handed_on


@pytest.mark.parametrize(
    "options, checkpointed", CONFIGURATIONS.values(), ids=list(CONFIGURATIONS)
)
def test_runs_on_read_only_acquisitions_serve_the_same(options, checkpointed, tmp_path, request):
    reference = engine_digest(run_to(make_engine(**options), BATCHES))

    acquired, handed_on = request.getfixturevalue("read_only_acquisition")
    directory = {"checkpoint_dir": tmp_path, "every": 2} if checkpointed else {}
    engine = run_to(make_engine(**options, **directory), BATCHES)

    assert engine_digest(engine) == reference
    assert sum(len(batch) for batch in acquired) > 0
    assert not any(column.flags.writeable for batch in acquired for column in columns(batch))
    if checkpointed:
        assert list(tmp_path.iterdir())
    else:
        # Healthy rounds arrive in (cell, time) order: the chains read them in place.
        assert handed_on
