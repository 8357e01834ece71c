"""E-faults: fault-scenario throughput.

The flaky-crowd and cell-outage scenarios (retries, quarantine bookkeeping,
degradation tracking all active) must sustain a sane batch rate; their
throughput is recorded to ``BENCH_scenarios.json`` so the mitigation
stack's cost is tracked across PRs.

Fault-free rounds run the same wave loop as faulty ones (there is no
separate zero-fault body to compare against), so what the fault subsystem
costs a healthy engine is read off the end-to-end harness
(``benchmarks/e2e``: ``crowd_fast`` / ``crowd_strict`` vs ``flaky_ckpt``).
"""

import time

import pytest

from repro.core import CraqrEngine
from repro.workloads import cell_outage_scenario, flaky_crowd_scenario


class TestFaultScenarioThroughput:
    @pytest.mark.parametrize(
        "name, factory, query, batches",
        [
            (
                "flaky_crowd",
                flaky_crowd_scenario,
                "ACQUIRE temp FROM RECT(0,0,4,4) AT RATE 8 PER KM2 PER MIN AS Heat",
                10,
            ),
            (
                "cell_outage",
                cell_outage_scenario,
                "ACQUIRE temp FROM RECT(0,0,2,2) AT RATE 10 PER KM2 PER MIN AS Quad",
                16,
            ),
        ],
    )
    def test_scenario_batch_throughput(
        self, name, factory, query, batches, record_scenario_metric
    ):
        scenario = factory()
        engine = CraqrEngine(scenario.config, scenario.world)
        engine.execute(query)
        start = time.perf_counter()
        engine.run(batches)
        elapsed = time.perf_counter() - start
        per_second = batches / elapsed
        delivered = engine.total_tuples_delivered()
        record_scenario_metric(
            f"{name}_batches_per_s",
            per_second,
            unit="batches/s",
            detail={
                "batches": batches,
                "tuples_delivered": delivered,
                "retries": sum(r.handler.retries_sent for r in engine.reports),
                "timeouts": sum(r.handler.timeouts for r in engine.reports),
                "quarantined": engine.health_monitor.summary().quarantined,
            },
        )
        # The mitigation stack must not make interactive use impossible.
        assert per_second > 2.0
        assert delivered > 0
