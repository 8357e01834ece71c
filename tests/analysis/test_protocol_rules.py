"""CRQ2xx — batch-protocol completeness fixtures."""

from __future__ import annotations

from repro.analysis.registry import all_codes

from lint_harness import codes


def test_step_batch_without_batch_key_flagged(lint):
    report = lint(
        {
            "mobility.py": """\
            class DriftMobility:
                def step_batch(self, rows, dt):
                    pass
            """
        }
    )
    assert codes(report) == ["CRQ201"]


def test_batch_key_without_step_batch_flagged(lint):
    report = lint(
        {
            "mobility.py": """\
            class DriftMobility:
                def batch_key(self):
                    return ("drift",)
            """
        }
    )
    assert codes(report) == ["CRQ201"]


def test_paired_batch_protocol_is_clean(lint):
    report = lint(
        {
            "mobility.py": """\
            class DriftMobility:
                def batch_key(self):
                    return ("drift",)

                def step_batch(self, rows, dt):
                    pass
            """
        }
    )
    assert codes(report) == []


def test_skip_ahead_without_its_own_kernel_flagged(lint):
    report = lint(
        {
            "mobility.py": """\
            class EagerWaypoint(RandomWaypointMobility):
                def skip_ahead(self, arrays, indices, duration):
                    return indices
            """
        }
    )
    assert codes(report) == ["CRQ201"]


def test_skip_ahead_taking_an_rng_flagged(lint):
    report = lint(
        {
            "mobility.py": """\
            class DriftMobility:
                def batch_key(self):
                    return ("drift",)

                def step_batch(self, arrays, indices, dt, rng):
                    pass

                def skip_ahead(self, arrays, indices, duration, rng):
                    return indices
            """
        }
    )
    assert codes(report) == ["CRQ201"]


def test_draw_free_skip_ahead_beside_its_kernel_is_clean(lint):
    report = lint(
        {
            "mobility.py": """\
            class DriftMobility:
                def batch_key(self):
                    return ("drift",)

                def step_batch(self, arrays, indices, dt, rng):
                    pass

                def skip_ahead(self, arrays, indices, duration):
                    return indices
            """
        }
    )
    assert codes(report) == []


def test_initial_state_batch_taking_an_rng_flagged(lint):
    report = lint(
        {
            "mobility.py": """\
            class DriftMobility(MobilityModel):
                def initial_state_batch(self, arrays, sel, block, rng):
                    pass
            """
        }
    )
    assert codes(report) == ["CRQ201"]


def test_scalar_initial_state_on_a_mobility_model_flagged(lint):
    # Found through the base chain: Drifter -> Walker -> MobilityModel.
    report = lint(
        {
            "models.py": """\
            class Walker(MobilityModel):
                def initial_state_batch(self, arrays, sel, block):
                    pass
            """,
            "drift.py": """\
            class Drifter(Walker):
                def initial_state(self, rng):
                    return None
            """,
        }
    )
    assert codes(report) == ["CRQ201"]
    assert "Drifter" in report.findings[0].message


def test_keyed_placement_kernel_is_clean(lint):
    # And a class outside the mobility hierarchy may have any initial_state.
    report = lint(
        {
            "mobility.py": """\
            class DriftMobility(MobilityModel):
                def initial_state_batch(self, arrays, sel, block):
                    pass

            class Thermostat:
                def initial_state(self, rng):
                    return 20.0
            """
        }
    )
    assert codes(report) == []


def test_inline_suppression_waives_a_scalar_initial_state(lint):
    report = lint(
        {
            "mobility.py": """\
            class LegacyMobility(MobilityModel):  # craqr: ignore[CRQ201] - migration shim
                def initial_state(self, rng):
                    return None
            """
        }
    )
    assert codes(report) == []
    assert report.suppressed == 1


def test_full_vector_state_protocol_is_clean(lint):
    # Participation models declare no vector-state protocol any more, so no
    # rule asks a model with these methods for a complete set of them.
    report = lint(
        {
            "participation.py": """\
            class FlakyParticipation:
                def vector_state_columns(self):
                    return ("streak",)

                def vector_state_key(self):
                    return ("flaky",)

                def vector_static_params(self):
                    return ()

                def init_vector_state(self, n):
                    pass

                def vector_probabilities(self, params, state, now):
                    return state

                def vector_commit(self, state, responded):
                    pass
            """
        }
    )
    assert codes(report) == []


def test_inline_suppression_waives_protocol_finding(lint):
    report = lint(
        {
            "mobility.py": """\
            class DriftMobility:  # craqr: ignore[CRQ201] - prototype
                def step_batch(self, rows, dt):
                    pass
            """
        }
    )
    assert codes(report) == []
    assert report.suppressed == 1


def test_operator_without_lowering_is_clean_and_crq203_stays_retired(lint):
    # CRQ203 asked operators for a lowering into the deleted plan graph;
    # the code is retired with its subject and its number is not reused.
    report = lint(
        {
            "ops.py": """\
            class RawOperator(OneToOneOperator):
                def process_batch(self, batch):
                    return batch
            """
        }
    )
    assert codes(report) == []
    assert "CRQ203" not in all_codes()
