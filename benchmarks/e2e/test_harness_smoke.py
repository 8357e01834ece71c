"""Smoke test of the e2e harness (collected by the tier-1 ``pytest -x -q``).

Runs every workload for 3 timed batches through the same code path as the
benchmark command, on shrunken crowds so the whole file stays within ~10 s,
and asserts that every metric ``BENCHMARK.json`` names is emitted with a
finite value and every output check passes.  No timing is asserted.
"""

import dataclasses
import json
import math
import pathlib
import subprocess

import pytest

from repro.config import BudgetConfig

import run
from workloads import WORKLOADS, pinned

HERE = pathlib.Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())

#: Shrunken inputs: same layers, same checks, seconds instead of minutes.
SMALL = {
    "estimate64": dict(budget=pinned(60)),
    "crowd_fast": dict(sensors=3_000, budget=pinned(100)),
    "crowd_strict": dict(sensors=300, budget=pinned(30)),
    "flaky_ckpt": dict(
        sensors=300, budget=BudgetConfig(initial=40, delta=10, limit=80, floor=20),
        checkpoint_every=2,
    ),
    "served": dict(subscriptions=20),
}


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric_and_passes_its_checks(name):
    workload = dataclasses.replace(WORKLOADS[name], **SMALL.get(name, {}))
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        result, lines = run.run_one(
            workload, 7, seconds=None, batches=3, warmup=1, trace=trace,
            setup_budget_s=0.0,
        )
        assert result["correct"], "\n".join(lines)
        assert result["failed"] == 0 and result["attempted"] >= 1
        expected = {metric["name"]: metric["unit"] for metric in SPEC[section]}
        assert set(result["metrics"]) == set(expected)
        for metric, entry in result["metrics"].items():
            assert entry["unit"] == expected[metric]
            assert math.isfinite(entry["value"]), metric


def test_workloads_match_benchmark_json():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]


def test_out_directory_is_ignored_by_the_local_gitignore():
    assert "out/" in (HERE / ".gitignore").read_text().split()
    if not (HERE.parents[1] / ".git").exists():
        pytest.skip("not a git checkout")
    ignored = subprocess.run(
        ["git", "check-ignore", "-q", str(HERE / "out" / "results.json")],
        cwd=HERE,
    )
    assert ignored.returncode == 0
