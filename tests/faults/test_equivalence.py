"""Strict vs fast-sim statistical equivalence per fault model.

The strict path draws faults per cell wave, the fused fast-sim path once
per attribute wave, so their injector streams diverge — the contract is
distributional: for the same plan, the injected drop rate, timeout rate
and corruption counters agree within sampling tolerance over a few
thousand requests.
"""

import numpy as np
import pytest

from repro.faults import BurstDropModel, FaultPlan, ResilienceConfig
from tests.faults.test_retry_health import make_handler, make_world, run_rounds


def fault_rates(*, vectorized, faults, resilience=None, rounds=6):
    world = make_world(vectorized=vectorized, sensor_count=1500, seed=41)
    handler = make_handler(world, budget=60, faults=faults, resilience=resilience)
    reports = run_rounds(handler, world, "temp", rounds=rounds)
    injector = handler.faults
    requests = sum(r.requests_sent for r in reports)
    responses = sum(r.responses_received for r in reports)
    timeouts = sum(r.timeouts for r in reports)
    return {
        "requests": requests,
        "response_rate": responses / requests,
        "drop_rate": injector.drops_injected / injector.requests_seen,
        "timeout_rate": timeouts / requests,
        "outlier_rate": injector.outliers_injected / injector.requests_seen,
        "inflation_rate": injector.latencies_inflated / injector.requests_seen,
    }


def assert_close(strict, fused, key, abs_tol):
    assert strict[key] == pytest.approx(fused[key], abs=abs_tol), key


class TestStrictFusedEquivalence:
    def test_iid_drops(self):
        plan = FaultPlan(seed=7, drop_probability=0.3)
        strict = fault_rates(vectorized=False, faults=plan)
        fused = fault_rates(vectorized=True, faults=plan)
        # Participation is Bernoulli(0.8), so drops / requests ~ 0.8 * 0.3.
        for stats in (strict, fused):
            assert stats["drop_rate"] == pytest.approx(0.24, abs=0.03)
        assert_close(strict, fused, "drop_rate", 0.03)
        assert_close(strict, fused, "response_rate", 0.04)

    def test_bursty_drops(self):
        plan = FaultPlan(
            seed=8,
            burst=BurstDropModel(
                enter_probability=0.1, exit_probability=0.4, drop_probability=0.9
            ),
        )
        strict = fault_rates(vectorized=False, faults=plan)
        fused = fault_rates(vectorized=True, faults=plan)
        assert strict["drop_rate"] > 0.05
        assert_close(strict, fused, "drop_rate", 0.05)

    def test_latency_inflation_and_deadline_timeouts(self):
        plan = FaultPlan(
            seed=9, latency_inflation_probability=0.2, latency_inflation_factor=20.0
        )
        resilience = ResilienceConfig(deadline=0.5, health=None)
        strict = fault_rates(vectorized=False, faults=plan, resilience=resilience)
        fused = fault_rates(vectorized=True, faults=plan, resilience=resilience)
        # An inflated response at factor 20 essentially always misses the
        # deadline: timeouts / requests ~ participation * inflation rate.
        for stats in (strict, fused):
            assert stats["inflation_rate"] == pytest.approx(0.2 * 0.8, abs=0.03)
            assert stats["timeout_rate"] > 0.08
        assert_close(strict, fused, "timeout_rate", 0.04)
        assert_close(strict, fused, "response_rate", 0.04)

    def test_outlier_injection(self):
        plan = FaultPlan(seed=10, outlier_probability=0.15, outlier_scale=40.0)
        strict = fault_rates(vectorized=False, faults=plan)
        fused = fault_rates(vectorized=True, faults=plan)
        for stats in (strict, fused):
            assert stats["outlier_rate"] == pytest.approx(0.15 * 0.8, abs=0.03)
        assert_close(strict, fused, "outlier_rate", 0.03)

    def test_stuck_fraction_designation_is_plan_seeded(self):
        plan = FaultPlan(seed=11, stuck_fraction=0.25)
        strict_world = make_world(vectorized=False, sensor_count=1500, seed=41)
        fused_world = make_world(vectorized=True, sensor_count=1500, seed=42)
        strict_handler = make_handler(strict_world, faults=plan)
        fused_handler = make_handler(fused_world, faults=plan)
        # Same plan seed, same crowd size -> the same stuck designation,
        # independent of the crowd seed and RNG mode.
        strict_stuck = np.flatnonzero(strict_handler.faults._stuck)
        assert np.array_equal(strict_stuck, np.flatnonzero(fused_handler.faults._stuck))
        assert len(strict_stuck) == pytest.approx(0.25 * 1500, abs=60)
