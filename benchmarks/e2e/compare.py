"""Compare two result files of ``run.py``: ``compare.py A.json B.json``.

A is the base (the parent commit, or the first of two sets of one commit), B
the candidate.  Per workload and end-to-end metric it prints both medians,
the ratio B/A *with its base*, the bound ``BENCHMARK.json`` fixes, and a
verdict:

``ok``          B's median is not worse than A's by more than the bound;
``worse``       it is;
``unresolved``  a side's own run-to-run spread (distance between its
                quartiles over its median, known once ``run.py --repeats``
                gave it four runs or more) is wider than the bound, and not
                every run of B reads better than every run of A.

For anything worse it lists the per-layer ``_ms`` metrics that moved most,
and it lists every count-type per-layer metric that differs between the two
files (with ``--batches`` runs of one seed and one commit, none may).
Exits 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys

BENCHMARK = pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def spread(values) -> float:
    """Distance between the quartiles as a share of the median (0 when the
    sample is too small to have quartiles)."""
    if len(values) < 4:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(a, b, better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    if max(spread(a), spread(b)) > bound:
        if max(sign * v for v in b) < min(sign * v for v in a):
            return "ok"
        return "unresolved"
    worse_by = sign * (statistics.median(b) - statistics.median(a))
    return "worse" if worse_by > bound * statistics.median(a) else "ok"


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__)
        return 2
    base_path, cand_path = argv[1], argv[2]
    base = json.loads(pathlib.Path(base_path).read_text())["workloads"]
    cand = json.loads(pathlib.Path(cand_path).read_text())["workloads"]
    spec = json.loads(BENCHMARK.read_text())
    any_worse = False
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in base or workload not in cand:
            continue
        print(f"{workload}")
        worse_here = False
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = base[workload]["end_to_end"][name]["values"]
            b = cand[workload]["end_to_end"][name]["values"]
            result = verdict(a, b, metric["better"], metric["bound"])
            med_a, med_b = statistics.median(a), statistics.median(b)
            print(
                f"  {name:<24} A {med_a:>14.4f}  B {med_b:>14.4f} {metric['unit']:<5}"
                f" B/A {med_b / med_a:6.3f}x of base {base_path}"
                f"  bound {metric['bound']:.2f} ({metric['better']} is better)"
                f"  {result}"
            )
            worse_here = worse_here or result == "worse"
        layers_a = base[workload]["per_layer"]
        layers_b = cand[workload]["per_layer"]
        if worse_here:
            any_worse = True
            moved = sorted(
                (
                    (statistics.median(layers_b[m]["values"])
                     - statistics.median(layers_a[m]["values"]), m)
                    for m in layers_a
                    if m.endswith("_ms") and m in layers_b
                ),
                key=lambda item: -abs(item[0]),
            )
            print("  per-layer _ms metrics that moved most (B - A, per batch):")
            for delta, m in moved[:6]:
                print(f"    {m:<40} {delta:+10.4f} ms")
        differing = [
            m for m, entry in layers_a.items()
            if entry["unit"] == "count" and m in layers_b
            and statistics.median(entry["values"])
            != statistics.median(layers_b[m]["values"])
        ]
        if differing:
            print(f"  count metrics that differ: {', '.join(differing)}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
