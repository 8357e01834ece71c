"""CRQ1xx — RNG stream discipline fixtures."""

from __future__ import annotations

from lint_harness import codes


def test_stdlib_random_import_flagged(lint):
    report = lint({"mod.py": "import random\n"})
    assert codes(report) == ["CRQ101"]


def test_from_random_import_flagged(lint):
    report = lint({"mod.py": "from random import shuffle\n"})
    assert codes(report) == ["CRQ101"]


def test_global_numpy_stream_call_flagged(lint):
    report = lint(
        {
            "mod.py": """\
            import numpy as np

            def draw():
                return np.random.random(4)
            """
        }
    )
    assert codes(report) == ["CRQ102"]


def test_unseeded_default_rng_flagged(lint):
    report = lint(
        {
            "mod.py": """\
            import numpy as np

            def fresh():
                return np.random.default_rng()
            """
        }
    )
    assert codes(report) == ["CRQ103"]


def test_unseeded_seed_sequence_flagged(lint):
    # OS entropy through the key-derivation door is still OS entropy.
    report = lint(
        {
            "mod.py": """\
            import numpy as np

            def key():
                return int(np.random.SeedSequence().generate_state(1)[0])
            """
        }
    )
    assert codes(report) == ["CRQ103"]


def test_rng_param_fallback_flagged_as_crq104(lint):
    report = lint(
        {
            "mod.py": """\
            import numpy as np

            def sample(n, rng=None):
                rng = rng if rng is not None else np.random.default_rng()
                return rng.normal(size=n)
            """
        }
    )
    assert codes(report) == ["CRQ104"]


def test_rng_param_global_draw_flagged_as_crq104(lint):
    report = lint(
        {
            "mod.py": """\
            import numpy as np

            def sample(n, rng):
                return np.random.normal(size=n)
            """
        }
    )
    assert codes(report) == ["CRQ104"]


def test_one_code_per_site_never_both(lint):
    # Regression: the scope walker used to re-scan function statements at
    # module context and emit CRQ103 alongside CRQ104 for the same call.
    report = lint(
        {
            "mod.py": """\
            import numpy as np

            class Sampler:
                def __init__(self, rng=None):
                    self._rng = rng if rng is not None else np.random.default_rng()
            """
        }
    )
    assert codes(report) == ["CRQ104"]


def test_seeded_construction_is_clean(lint):
    report = lint(
        {
            "mod.py": """\
            import numpy as np

            def make(seed, parent):
                a = np.random.default_rng(seed)
                b = np.random.default_rng(parent.integers(0, 2 ** 63 - 1))
                c = np.random.default_rng(seed=seed)
                d = np.random.SeedSequence(seed, spawn_key=(7,)).generate_state(1)
                return a, b, c, d
            """
        }
    )
    assert codes(report) == []


def test_sanctioned_module_may_create_unseeded_stream(lint):
    report = lint(
        {
            "repro/__init__.py": "",
            "repro/rng.py": """\
            import numpy as np

            def ensure_rng(rng=None):
                if rng is not None:
                    return rng
                return np.random.default_rng()
            """,
        },
        # The committed manifest names kernels in the real repro/rng.py,
        # which this stand-in does not define.
        hot_paths=[],
    )
    assert codes(report) == []


def test_inline_suppression_waives_rng_finding(lint):
    report = lint(
        {
            "mod.py": """\
            import numpy as np

            def fresh():
                return np.random.default_rng()  # craqr: ignore[CRQ103] - interactive helper
            """
        }
    )
    assert codes(report) == []
    assert report.suppressed == 1
