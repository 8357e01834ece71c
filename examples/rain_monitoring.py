"""Rain monitoring: the paper's human-sensed running example, end to end.

A moving rain front crosses the city while humans answer "is it raining
around you?" prompts.  Two rain queries with different regions and rates run
simultaneously; the script shows that

* both queries receive streams at (approximately) their requested rates even
  though human response behaviour is unreliable, and
* the fabricated boolean streams track the ground-truth rain front: the
  fraction of positive reports rises when the front crosses each region.

Run with::

    python examples/rain_monitoring.py
"""

import numpy as np

from repro import AcquisitionalQuery, CraqrEngine
from repro.geometry import Rectangle
from repro.metrics import ResultTable
from repro.streams import TupleBatch
from repro.workloads import build_rain_temperature_world, default_engine_config

#: Number of one-minute acquisition batches to simulate.
BATCHES = 30


def positive_fraction(batch) -> float:
    """Share of a batch's tuples reporting rain=True."""
    if len(batch) == 0:
        return 0.0
    return np.count_nonzero(batch.value) / len(batch)


def read_window(cursor, previous, since) -> TupleBatch:
    """The stream's tuples timestamped at or after ``since``, as columns.

    The cursor returns only what arrived since its previous read; a human
    who answered after their batch closed was delivered one read earlier,
    so the previous window is kept and re-filtered rather than rescanning
    the whole history.
    """
    batch = TupleBatch.concatenate([previous, cursor.fetch_batch()])
    return batch.select(batch.t >= since)


def main() -> None:
    world = build_rain_temperature_world(sensor_count=350, seed=23)
    engine = CraqrEngine(default_engine_config(seed=29), world)

    west = engine.register_query(
        AcquisitionalQuery("rain", Rectangle(0.0, 0.0, 2.0, 4.0), 8.0, name="west-rain")
    )
    east = engine.register_query(
        AcquisitionalQuery("rain", Rectangle(2.0, 0.0, 4.0, 4.0), 4.0, name="east-rain")
    )

    west_cursor, east_cursor = west.cursor(), east.cursor()
    west_recent = east_recent = TupleBatch.empty()

    table = ResultTable(
        "rain monitoring (per 5-batch window)",
        ["window", "west rate", "west %raining", "east rate", "east %raining"],
    )

    for batch_index in range(BATCHES):
        engine.run_batch()
        if (batch_index + 1) % 5 == 0:
            west_rate = west.achieved_rate(last_batches=5).achieved_rate
            east_rate = east.achieved_rate(last_batches=5).achieved_rate
            west_recent = read_window(west_cursor, west_recent, batch_index - 4)
            east_recent = read_window(east_cursor, east_recent, batch_index - 4)
            table.add_row(
                f"{batch_index - 3:02d}-{batch_index + 1:02d}",
                round(west_rate, 2),
                round(100 * positive_fraction(west_recent), 1),
                round(east_rate, 2),
                round(100 * positive_fraction(east_recent), 1),
            )

    table.print()

    print("\nrequested rates: west 8 /km^2/min, east 4 /km^2/min")
    print(
        "achieved (last 10 batches): "
        f"west {west.achieved_rate(last_batches=10).achieved_rate:.2f}, "
        f"east {east.achieved_rate(last_batches=10).achieved_rate:.2f}"
    )
    print(
        "budget currently allocated to the west region cells:",
        [
            engine.handler.budget_for("rain", key)
            for key in engine.planner.cells_for_query(west.query_id)
        ],
    )


if __name__ == "__main__":
    main()
