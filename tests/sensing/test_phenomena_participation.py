"""Unit tests for phenomena fields, participation models and incentives."""

import numpy as np
import pytest

from repro.errors import CraqrError
from repro.geometry import Grid, Rectangle
from repro.sensing import (
    AlwaysRespond,
    BernoulliParticipation,
    FatigueParticipation,
    FlatIncentive,
    LinearIncentiveResponse,
    RainField,
    RandomWaypointMobility,
    RequestResponseHandler,
    SensingWorld,
    TemperatureField,
    WorldConfig,
    incentive_boost,
)
from repro.sensing.participation import ParticipationModel, exponential_latency
from repro.sensing.phenomena import PhenomenonField

REGION = Rectangle(0.0, 0.0, 4.0, 4.0)


class TestRainField:
    def test_probability_high_inside_band(self):
        field = RainField(REGION, band_width=1.0, period=40.0)
        center = field.band_center(0.0)
        assert field.rain_probability(0.0, center, 1.0) > 0.9

    def test_probability_low_far_from_band(self):
        field = RainField(REGION, band_width=0.5, period=40.0)
        center = field.band_center(0.0)
        far = (center + 2.0) % REGION.width
        assert field.rain_probability(0.0, far, 1.0) < 0.1

    def test_band_moves_over_time(self):
        field = RainField(REGION, band_width=0.5, period=40.0)
        assert field.band_center(0.0) != field.band_center(10.0)

    def test_value_is_boolean(self):
        field = RainField(REGION)
        assert isinstance(field.value(0.0, 1.0, 1.0, rng=np.random.default_rng(0)), bool)

    def test_values_from_uniforms_rains_at_the_band_probability(self):
        field = RainField(REGION, band_width=1.0, period=40.0, p_rain_inside=0.9)
        n = 20_000
        u0, u1 = np.random.default_rng(3).random((2, n))
        x = np.full(n, field.band_center(0.0))
        values = field.values_from_uniforms(np.zeros(n), x, np.ones(n), u0, u1)
        assert values.dtype == bool
        assert values.mean() == pytest.approx(0.9, abs=0.01)
        # A pure function of the uniforms: one request alone answers the same.
        assert field.values_from_uniforms(np.zeros(1), x[:1], np.ones(1), u0[:1], u1[:1])[0] == values[0]

    def test_validation(self):
        with pytest.raises(CraqrError):
            RainField(REGION, band_width=0.0)
        with pytest.raises(CraqrError):
            RainField(REGION, p_rain_inside=0.1, p_rain_outside=0.9)


class TestTemperatureField:
    def test_diurnal_cycle(self):
        field = TemperatureField(REGION, base=20.0, diurnal_amplitude=5.0, period=100.0, noise_std=0.0)
        assert field.mean_value(25.0, 1.0, 1.0) == pytest.approx(25.0)
        assert field.mean_value(75.0, 1.0, 1.0) == pytest.approx(15.0)

    def test_heat_island_raises_temperature(self):
        field = TemperatureField(
            REGION, base=20.0, diurnal_amplitude=0.0, heat_islands=((2.0, 2.0, 3.0, 0.5),), noise_std=0.0
        )
        assert field.mean_value(0.0, 2.0, 2.0) == pytest.approx(23.0)
        assert field.mean_value(0.0, 0.1, 0.1) < 20.5

    def test_noise_applied(self):
        field = TemperatureField(REGION, noise_std=1.0)
        rng = np.random.default_rng(1)
        values = {field.value(0.0, 1.0, 1.0, rng=rng) for _ in range(5)}
        assert len(values) > 1

    def test_values_from_uniforms_adds_gaussian_noise(self):
        field = TemperatureField(REGION, noise_std=0.5)
        n = 40_000
        u0, u1 = np.random.default_rng(4).random((2, n))
        values = field.values_from_uniforms(np.zeros(n), np.ones(n), np.ones(n), u0, u1)
        noise = values - field.mean_value(0.0, 1.0, 1.0)
        assert noise.mean() == pytest.approx(0.0, abs=0.01)
        assert noise.std() == pytest.approx(0.5, rel=0.02)
        quiet = TemperatureField(REGION, noise_std=0.0)
        assert quiet.values_from_uniforms(
            np.zeros(2), np.ones(2), np.ones(2), u0[:2], u1[:2]
        ).tolist() == [quiet.mean_value(0.0, 1.0, 1.0)] * 2

    def test_base_fallback_seeds_value_from_the_uniforms(self):
        class Jittered(PhenomenonField):
            def value(self, t, x, y, rng=None):
                return x + rng.random()

        field = Jittered()
        u0, u1 = np.random.default_rng(5).random((2, 6))
        xs = np.arange(6.0)
        first = field.values_from_uniforms(np.zeros(6), xs, xs, u0, u1)
        again = field.values_from_uniforms(np.zeros(3), xs[3:], xs[3:], u0[3:], u1[3:])
        assert first.dtype == np.float64
        assert first[3:].tolist() == again.tolist()
        assert np.all((first >= xs) & (first < xs + 1.0))

    def test_validation(self):
        with pytest.raises(CraqrError):
            TemperatureField(REGION, period=0.0)
        with pytest.raises(CraqrError):
            TemperatureField(REGION, noise_std=-1.0)
        with pytest.raises(CraqrError):
            TemperatureField(REGION, heat_islands=((0.0, 0.0, 1.0, 0.0),))


class TestVectorisedFallback:
    """``PhenomenonField.values`` for a field that only defines ``value``."""

    class NoisyDistance(PhenomenonField):
        attribute = "distance"

        def value(self, t, x, y, rng=None):
            return float(np.hypot(x, y)) + t + float(rng.normal(0.0, 0.1))

    def test_loops_value_and_draws_in_order(self):
        field = self.NoisyDistance()
        t, x, y = np.array([0.0, 1.0, 2.0]), np.array([3.0, 0.0, 1.0]), np.array([4.0, 1.0, 0.0])
        out = field.values(t, x, y, rng=np.random.default_rng(5))
        rng = np.random.default_rng(5)
        expected = [field.value(float(a), float(b), float(c), rng=rng) for a, b, c in zip(t, x, y)]
        assert out.dtype == object
        assert out.tolist() == expected


class TestParticipationModels:
    def test_always_respond(self):
        for uniforms in ((0.0, 0.0), (0.5, 0.5), (1.0 - 2.0 ** -53, 1.0 - 2.0 ** -53)):
            decision = AlwaysRespond().decide(0, 0.0, uniforms)
            assert decision.responds and decision.latency == 0.0

    def test_bernoulli_probability_zero_latency(self):
        model = BernoulliParticipation(1.0, mean_latency=0.0, max_probability=1.0)
        decision = model.decide(0, 0.0, np.random.default_rng(0).random(2))
        assert decision.responds
        assert decision.latency == 0.0

    def test_bernoulli_respects_probability(self):
        model = BernoulliParticipation(0.3)
        rng = np.random.default_rng(1)
        responses = sum(model.decide(0, 0.0, rng.random(2)).responds for _ in range(2000))
        assert responses / 2000 == pytest.approx(0.3, abs=0.05)

    def test_bernoulli_incentive_boost(self):
        model = BernoulliParticipation(0.3, max_probability=0.9)
        rng = np.random.default_rng(2)
        boosted = sum(
            model.decide(0, 0.0, rng.random(2), incentive_multiplier=2.0).responds
            for _ in range(2000)
        )
        assert boosted / 2000 == pytest.approx(0.6, abs=0.05)

    def test_exponential_latency_has_its_mean(self):
        u = np.random.default_rng(6).random(40_000)
        latencies = exponential_latency(0.2, u)
        assert latencies.min() >= 0.0
        assert latencies.mean() == pytest.approx(0.2, rel=0.02)
        # The scalar spelling rounds like the array one, element for element.
        assert [exponential_latency(0.2, v) for v in u[:500].tolist()] == latencies[:500].tolist()

    def test_exponential_latency_is_zero_at_zero(self):
        assert exponential_latency(0.2, 0.0) == 0.0
        assert exponential_latency(0.0, 0.75) == 0.0

    def test_exponential_latency_grows_with_the_uniform(self):
        latencies = exponential_latency(0.5, np.linspace(0.0, 0.999, 50))
        assert np.all(np.diff(latencies) > 0)
        assert latencies[-1] == pytest.approx(-0.5 * np.log(0.001))

    def test_always_respond_ignores_incentives(self):
        decision = AlwaysRespond().decide(0, 0.0, (0.5, 0.5), incentive_multiplier=0.1)
        assert decision.responds and decision.latency == 0.0

    def test_a_model_without_parameters_must_decide_itself(self):
        class Undecided(ParticipationModel):
            pass

        with pytest.raises(NotImplementedError):
            Undecided().decide(0, 0.0, (0.1, 0.1))

    def test_bernoulli_validation(self):
        with pytest.raises(CraqrError):
            BernoulliParticipation(0.0)
        with pytest.raises(CraqrError):
            BernoulliParticipation(0.5, mean_latency=-1.0)
        with pytest.raises(CraqrError):
            BernoulliParticipation(0.5, max_probability=0.2)

    def test_fatigue_reduces_probability(self):
        model = FatigueParticipation(0.8, fatigue_per_request=0.1, recovery_per_time=0.0)
        rng = np.random.default_rng(4)
        initial = model.current_probability(1, 0.0)
        for _ in range(5):
            model.decide(1, 0.0, rng.random(2))
        assert model.current_probability(1, 0.0) < initial

    def test_fatigue_recovers_over_time(self):
        model = FatigueParticipation(
            0.8, fatigue_per_request=0.2, recovery_per_time=0.1, min_probability=0.1
        )
        rng = np.random.default_rng(5)
        for _ in range(3):
            model.decide(1, 0.0, rng.random(2))
        tired = model.current_probability(1, 0.0)
        rested = model.current_probability(1, 100.0)
        assert rested > tired

    def test_fatigue_floor(self):
        model = FatigueParticipation(
            0.5, fatigue_per_request=1.0, recovery_per_time=0.0, min_probability=0.2
        )
        rng = np.random.default_rng(6)
        for _ in range(10):
            model.decide(1, 0.0, rng.random(2))
        assert model.current_probability(1, 0.0) == pytest.approx(0.2)


class TestIncentiveCapUnification:
    """All participation models cap boosted probabilities at max_probability."""

    def boosted_rate(self, model, *, multiplier, seed, trials=4000):
        rng = np.random.default_rng(seed)
        responses = sum(
            model.decide(1, 0.0, rng.random(2), incentive_multiplier=multiplier).responds
            for _ in range(trials)
        )
        return responses / trials

    def test_fatigue_caps_boost_at_max_probability(self):
        model = FatigueParticipation(
            0.6, fatigue_per_request=0.0, max_probability=0.7
        )
        assert self.boosted_rate(model, multiplier=10.0, seed=8) == pytest.approx(
            0.7, abs=0.03
        )

    def test_bernoulli_caps_boost_at_max_probability(self):
        model = BernoulliParticipation(0.4, max_probability=0.7)
        assert self.boosted_rate(model, multiplier=10.0, seed=9) == pytest.approx(
            0.7, abs=0.03
        )

    def test_max_probability_validation(self):
        with pytest.raises(CraqrError):
            FatigueParticipation(0.8, max_probability=0.5)
        with pytest.raises(CraqrError):
            FatigueParticipation(0.8, max_probability=1.5)

    def test_max_probability_exposed(self):
        assert FatigueParticipation(0.5, max_probability=0.9).max_probability == 0.9


class RecordingFatigue(FatigueParticipation):
    """A fatigue model that records the ``(sensor_id, t)`` of every decision."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.requests = []

    def decide(self, sensor_id, t, uniforms, *, incentive_multiplier=1.0):
        self.requests.append((sensor_id, t))
        return super().decide(
            sensor_id, t, uniforms, incentive_multiplier=incentive_multiplier
        )


class TestVectorStateProtocol:
    """Stateful models under the vectorised RNG contract.

    A fast-sim world keeps no vector state for them: each model holds its
    per-sensor state itself, and every request reaches its ``decide``.
    """

    def make_handler(self, participation, *, sensor_count, budget, side=2):
        """``(world, handler)`` of a fast-sim world over ``participation``."""
        world = SensingWorld(
            WorldConfig(
                region=REGION, sensor_count=sensor_count, seed=23, vectorized_rng=True
            ),
            mobility_factory=lambda r: RandomWaypointMobility(r, speed=0.4),
            participation_factory=participation,
        )
        world.register_field(RainField(REGION))
        return world, RequestResponseHandler(
            world, Grid(REGION, side=side), default_budget=budget
        )

    def test_fatigue_vector_matches_scalar_recurrence(self):
        models = {}

        def participation(sensor_id):
            models[sensor_id] = RecordingFatigue(
                0.8, fatigue_per_request=0.1, recovery_per_time=0.02, min_probability=0.1
            )
            return models[sensor_id]

        world, handler = self.make_handler(participation, sensor_count=60, budget=30)
        cells = list(handler.grid.cells())
        for _ in range(3):
            handler.acquire_batches({"rain": cells}, duration=1.0)
            world.advance(2.0)

        # Replay each sensor's requests through the scalar recurrence: the
        # model's state after fast-sim rounds is exactly its per-request state.
        t_end = world.now
        asked = 0
        for sensor_id, model in models.items():
            level, last = 0.0, None
            for _, t in model.requests:
                if last is not None:
                    level = max(0.0, level - 0.02 * max(t - last, 0.0))
                level, last = level + 0.1, t
            if last is not None:
                level = max(0.0, level - 0.02 * (t_end - last))
            asked += len(model.requests) > 0
            assert model.current_probability(sensor_id, t_end) == pytest.approx(
                max(0.8 - level, 0.1)
            )
        assert asked > 0

    def test_fatigue_vector_commit_handles_repeated_rows(self):
        models = {}

        def participation(sensor_id):
            models[sensor_id] = RecordingFatigue(
                0.8, fatigue_per_request=0.01, recovery_per_time=0.0, min_probability=0.0
            )
            return models[sensor_id]

        # 24 sensors against 40 requests a cell: cells are sampled with
        # replacement, so a sensor answers several requests in one round.
        world, handler = self.make_handler(participation, sensor_count=24, budget=40)
        handler.acquire_batches({"rain": list(handler.grid.cells())}, duration=1.0)
        counts = {sensor_id: len(model.requests) for sensor_id, model in models.items()}
        assert max(counts.values()) >= 2
        for sensor_id, model in models.items():
            assert model.current_probability(sensor_id, 1.0) == pytest.approx(
                0.8 - 0.01 * counts[sensor_id]
            )

    def test_stationary_models_have_no_vector_state(self):
        # The one capability a model declares is ``vector_params``: stationary
        # models have them, stateful ones do not, and none carries vector state.
        assert BernoulliParticipation(0.5).vector_params() is not None
        assert AlwaysRespond().vector_params() is not None
        assert FatigueParticipation(0.5).vector_params() is None
        for name in (
            "vector_state_columns", "vector_state_key", "vector_static_params",
            "init_vector_state", "vector_probabilities", "vector_commit",
        ):
            assert not hasattr(ParticipationModel, name)
            assert not hasattr(FatigueParticipation, name)


class TestIncentives:
    def test_boost_is_one_without_payment(self):
        assert incentive_boost(0.0) == pytest.approx(1.0)

    def test_boost_saturates(self):
        assert incentive_boost(100.0, saturation=3.0) == pytest.approx(3.0, abs=1e-3)

    def test_boost_monotone(self):
        assert incentive_boost(1.0) > incentive_boost(0.5) > incentive_boost(0.1)

    def test_boost_validation(self):
        with pytest.raises(CraqrError):
            incentive_boost(-1.0)
        with pytest.raises(CraqrError):
            incentive_boost(1.0, saturation=0.5)

    def test_flat_incentive_tracks_spending(self):
        scheme = FlatIncentive(0.5)
        scheme.payment_for_request()
        scheme.payment_for_request()
        assert scheme.total_spent == pytest.approx(1.0)
        assert scheme.payments == 2

    def test_flat_incentive_multiplier(self):
        assert FlatIncentive(0.0).multiplier() == pytest.approx(1.0)
        assert FlatIncentive(1.0).multiplier() > 1.0

    def test_adaptive_controller_raises_payment_on_violation(self):
        controller = LinearIncentiveResponse(FlatIncentive(0.0), step=0.2, max_payment=1.0)
        new_payment = controller.adjust(violation_percent=50.0, threshold=5.0)
        assert new_payment == pytest.approx(0.2)

    def test_adaptive_controller_lowers_payment_when_ok(self):
        controller = LinearIncentiveResponse(FlatIncentive(0.4), step=0.2, max_payment=1.0)
        assert controller.adjust(violation_percent=0.0, threshold=5.0) == pytest.approx(0.2)

    def test_adaptive_controller_saturates(self):
        controller = LinearIncentiveResponse(FlatIncentive(0.9), step=0.2, max_payment=1.0)
        controller.adjust(violation_percent=50.0, threshold=5.0)
        assert controller.saturated
