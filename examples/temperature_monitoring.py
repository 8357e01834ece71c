"""Ambient temperature monitoring: the sensor-sensed running example.

The city has two urban heat islands.  A temperature query is registered via
the declarative query language, the engine fabricates its stream, and the
script aggregates the delivered readings into a coarse temperature map that
clearly shows the heat islands — demonstrating that the fixed-rate stream is
dense enough everywhere for downstream inference, despite the skewed sensor
distribution.

Run with::

    python examples/temperature_monitoring.py
"""

import numpy as np

from repro import CraqrEngine, parse_query
from repro.query import AttributeCatalog
from repro.workloads import build_rain_temperature_world, default_engine_config

#: Number of one-minute acquisition batches to simulate.
BATCHES = 25

#: Side of the coarse output temperature map.
MAP_SIDE = 4


def main() -> None:
    world = build_rain_temperature_world(sensor_count=320, seed=37)
    engine = CraqrEngine(default_engine_config(seed=41), world)
    catalog = AttributeCatalog.default()

    statement = parse_query(
        "ACQUIRE temp FROM RECT(0, 0, 4, 4) AT RATE 6 PER KM2 PER MIN AS CityTemp"
    )
    catalog.validate_attribute(statement.attribute)
    handle = engine.register_query(statement.to_query())
    print("registered:", handle.query.label, "rate", handle.query.rate, "/km^2/min")

    engine.run(BATCHES)

    estimate = handle.achieved_rate(last_batches=10)
    print(f"achieved rate over the last 10 batches: {estimate.achieved_rate:.2f} /km^2/min "
          f"(requested {estimate.requested_rate:.2f})")

    # Aggregate the delivered readings into a MAP_SIDE x MAP_SIDE temperature map.
    region = world.region
    sums = np.zeros((MAP_SIDE, MAP_SIDE))
    counts = np.zeros((MAP_SIDE, MAP_SIDE), dtype=int)
    for item in handle.results():
        q = min(int((item.x - region.x_min) / region.width * MAP_SIDE), MAP_SIDE - 1)
        r = min(int((item.y - region.y_min) / region.height * MAP_SIDE), MAP_SIDE - 1)
        sums[r, q] += float(item.value)
        counts[r, q] += 1

    print("\nmean reported temperature per 1 km x 1 km block (deg C), north at the top:")
    for r in reversed(range(MAP_SIDE)):
        cells = []
        for q in range(MAP_SIDE):
            if counts[r, q] == 0:
                cells.append("   -- ")
            else:
                cells.append(f"{sums[r, q] / counts[r, q]:6.1f}")
        print("  " + " ".join(cells))

    print("\nreadings per block (shows the acquired stream covers the whole region):")
    for r in reversed(range(MAP_SIDE)):
        print("  " + " ".join(f"{counts[r, q]:6d}" for q in range(MAP_SIDE)))

    ground_truth = world.field_for("temp")
    print("\nground-truth mean temperature at the two heat-island centres vs the corner:")
    spots = {
        "island A": (region.width * 0.3, region.height * 0.3),
        "island B": (region.width * 0.75, region.height * 0.6),
        "corner": (region.width * 0.02, region.height * 0.02),
    }
    x, y = np.array(list(spots.values())).T
    means = ground_truth.mean_values(np.full(len(spots), world.now), x, y)
    for label, mean in zip(spots, means.tolist()):
        print(f"  {label:9s} {mean:6.1f} deg C")


if __name__ == "__main__":
    main()
