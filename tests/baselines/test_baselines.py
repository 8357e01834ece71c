"""Unit tests for the baseline acquisition strategies."""

import numpy as np
import pytest

from repro.baselines import NaivePerQueryEngine, UniformSamplingAcquirer
from repro.config import BudgetConfig, EngineConfig
from repro.core import AcquisitionalQuery
from repro.errors import CraqrError, QueryError
from repro.geometry import Rectangle
from repro.pointprocess import (
    ConstantIntensity,
    EventBatch,
    InhomogeneousMDPP,
    fit_linear_intensity_mle,
    flatten_events,
)
from repro.streams import SensorTuple
from scaffolding import HotspotIntensity
from tests.conftest import make_world

REGION = Rectangle(0, 0, 4, 4)


def make_config(seed=1):
    return EngineConfig(
        grid_cells=16,
        batch_duration=1.0,
        budget=BudgetConfig(initial=40, delta=10, limit=400),
        seed=seed,
    )


class TestNaivePerQueryEngine:
    def test_register_and_run(self):
        world = make_world(REGION, seed=2)
        engine = NaivePerQueryEngine(make_config(), world)
        result = engine.register_query(AcquisitionalQuery("temp", Rectangle(0, 0, 2, 2), 10.0))
        engine.run(5)
        assert engine.batches_run == 5
        assert len(result.per_batch_counts) == 5
        assert result.achieved_rate(1.0) == pytest.approx(10.0, rel=0.4)

    def test_duplicate_registration_rejected(self):
        world = make_world(REGION, seed=3)
        engine = NaivePerQueryEngine(make_config(), world)
        query = AcquisitionalQuery("temp", Rectangle(0, 0, 1, 1), 5.0)
        engine.register_query(query)
        with pytest.raises(QueryError):
            engine.register_query(query)

    def test_invalid_query_rejected(self):
        world = make_world(REGION, seed=4)
        engine = NaivePerQueryEngine(make_config(), world)
        with pytest.raises(QueryError):
            engine.register_query(AcquisitionalQuery("temp", Rectangle(0, 0, 0.5, 0.5), 5.0))

    def test_run_requires_positive_batches(self):
        world = make_world(REGION, seed=5)
        engine = NaivePerQueryEngine(make_config(), world)
        with pytest.raises(QueryError):
            engine.run(0)

    def test_requests_scale_with_query_count(self):
        # The defining property of the naive strategy: acquisition cost grows
        # linearly with the number of identical queries, because nothing is
        # shared.
        region = Rectangle(0, 0, 2, 2)

        def run_with(n_queries):
            world = make_world(REGION, seed=6)
            engine = NaivePerQueryEngine(make_config(seed=6), world)
            for i in range(n_queries):
                engine.register_query(AcquisitionalQuery("temp", region, 10.0 + i))
            engine.run(2)
            return engine.total_requests_sent()

        assert run_with(4) == pytest.approx(4 * run_with(1), rel=0.01)

    def test_delivered_tuples_counted(self):
        world = make_world(REGION, seed=7)
        engine = NaivePerQueryEngine(make_config(), world)
        result = engine.register_query(AcquisitionalQuery("temp", Rectangle(0, 0, 2, 2), 8.0))
        engine.run(3)
        assert engine.total_tuples_delivered() == len(result.delivered)
        assert engine.total_responses_received() >= len(result.delivered)

    def test_non_converged_fit_is_replaced_by_the_constant_rate(self):
        # The engine's estimator contract: tuples confined to the lower 40%
        # of the query region have no maximum-likelihood fit (the likelihood
        # is unbounded), so the batch is flattened with its empirical mean
        # rate — not with whatever theta the solver stopped at.
        query = AcquisitionalQuery("temp", Rectangle(0, 0, 2, 2), 8.0)
        rng = np.random.default_rng(17)
        items = [
            SensorTuple(
                tuple_id=i, attribute="temp", t=float(t), x=float(2 * x),
                y=float(0.8 * y), value=20.0, sensor_id=i,
            )
            for i, (t, x, y) in enumerate(rng.random((90, 3)))
        ]
        batch = EventBatch.from_rows([(it.t, it.x, it.y) for it in items])
        t_min, t_max = batch.time_span()
        assert not fit_linear_intensity_mle(batch, query.region, t_min, t_min + 1.0).converged
        engine = NaivePerQueryEngine(make_config(seed=9), make_world(REGION, seed=8))
        kept = engine._flatten_to_rate(items, query, 1.0)
        expected = flatten_events(
            batch, ConstantIntensity(90 / 4.0), 8.0 * 4.0, rng=np.random.default_rng(9)
        )
        assert [it.tuple_id for it in kept] == np.flatnonzero(expected.keep_mask).tolist()


class TestUniformSamplingAcquirer:
    def make_items(self, seed=0):
        rng = np.random.default_rng(seed)
        intensity = HotspotIntensity(2.0, ((0.25, 0.25, 600.0, 0.1),))
        batch = InhomogeneousMDPP(intensity, Rectangle(0, 0, 1, 1)).sample(5.0, rng=rng)
        return [
            SensorTuple(tuple_id=i, attribute="rain", t=float(t), x=float(x), y=float(y))
            for i, (t, x, y) in enumerate(zip(batch.t, batch.x, batch.y))
        ]

    def test_sample_counts(self):
        acquirer = UniformSamplingAcquirer(np.random.default_rng(1))
        items = self.make_items()
        kept = acquirer.sample(items, 50)
        assert len(kept) == 50
        assert acquirer.kept_total == 50
        assert acquirer.seen_total == len(items)

    def test_sample_more_than_available_keeps_all(self):
        acquirer = UniformSamplingAcquirer(np.random.default_rng(2))
        items = self.make_items()
        assert len(acquirer.sample(items, 10 * len(items))) == len(items)

    def test_sample_negative_target_rejected(self):
        with pytest.raises(CraqrError):
            UniformSamplingAcquirer().sample([], -1)

    def test_sample_to_rate(self):
        acquirer = UniformSamplingAcquirer(np.random.default_rng(3))
        items = self.make_items()
        kept = acquirer.sample_to_rate(items, rate=30.0, area=1.0, duration=1.0)
        assert len(kept) == 30
        with pytest.raises(CraqrError):
            acquirer.sample_to_rate(items, rate=0.0, area=1.0, duration=1.0)

    def test_uniform_sampling_preserves_skew(self):
        # The skew of the raw arrivals survives uniform sampling: the hotspot
        # quadrant keeps the majority of the kept tuples.
        acquirer = UniformSamplingAcquirer(np.random.default_rng(4))
        items = self.make_items(seed=5)
        kept = acquirer.sample(items, len(items) // 3)
        hotspot = [item for item in kept if item.x < 0.5 and item.y < 0.5]
        assert len(hotspot) > 0.5 * len(kept)
