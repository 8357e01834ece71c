"""The CrAQR end-to-end benchmark: one command, five workloads.

    python3 benchmarks/e2e/run.py [--seed 42] [--workload NAME]

prints every end-to-end and per-layer metric by name with its unit, checks
the outputs, and exits non-zero on a failed check.  Without ``--trace`` it
runs each workload twice in fresh processes — untraced for the end-to-end
numbers, traced for the per-layer breakdown — and saves both to
``benchmarks/e2e/out/results.json`` for ``compare.py``.

With ``--workload NAME --trace 0|1`` it is one run in this process, whose
last line of output is the result object ``BENCHMARK.json`` describes.
``--seconds`` times batches for that long; ``--batches`` (or neither: the
workload's own count) times exactly that many, which makes every count-type
metric repeat exactly for a seed.  See README.md for the glossary.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import signal
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent

#: One run must end well inside the driver's 180 s limit.
WATCHDOG_SECONDS = 170

#: Share of a traced run's time budget spent on its untraced reference.
REFERENCE_SHARE = 1 / 3


def _alarm(_signum, _frame):
    raise TimeoutError(f"run exceeded {WATCHDOG_SECONDS} s")


def _bootstrap() -> None:
    """Entry-point only: make ``src`` and this directory importable, and cap
    BLAS threads.  The engine is single-threaded; BLAS workers spin-waiting
    on its 4x4 problems would only fight the load generator for the second
    core.  Set before numpy is imported, inherited by every child process."""
    sys.path[:0] = [str(HERE), str(HERE.parents[1] / "src")]
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")


#: Seconds of set-ups per untraced run (never fewer than 3 set-ups, never
#: more than 15), so that the median of a cheap set-up is as steady as that
#: of a dear one.
SETUP_BUDGET_S = 2.0


def run_one(
    workload, seed, *, seconds, batches, warmup, trace, setup_budget_s=SETUP_BUDGET_S
):
    """One workload, one mode, in this process.  Returns the result dict and
    the lines describing it."""
    import harness
    import served
    from tracer import Tracer

    if seconds is None and batches is None:
        batches = workload.batches
    if warmup is None:
        warmup = workload.warmup

    def limits(share):
        """A traced run's two phases share its time, or each get "one
        quarter of the timed batch count"."""
        return dict(
            seconds=None if seconds is None else seconds * share,
            batches=None if batches is None else max(2, batches // 4),
            warmup=warmup,
        )

    backend = (served.Served if workload.subscriptions else harness.InProcess)(
        workload, seed
    )
    try:
        if not trace:
            repeats = min(15, max(3, int(setup_budget_s / backend.setup_only())))
            for _ in range(repeats - 2):
                backend.setup_only()
            run = backend.run_phase(seconds=seconds, batches=batches, warmup=warmup)
            metrics = harness.end_to_end_metrics(run, backend.setup_s(), backend.box)
            lines = [f"  set-ups {len(backend.setups)}, timed batches {len(run.latencies)} "
                     f"in 10 segments, warm-up {warmup}",
                     f"  as measured: batch_ms_p50 "
                     f"{harness.percentile(run.latencies, 50) * 1e3:.4f} ms, box at "
                     f"{statistics.median(run.probes) / backend.box.best:.3f}x its "
                     f"best probe (timings below are at full box speed)"]
        else:
            reference = backend.run_phase(**limits(REFERENCE_SHARE))
            tracer = Tracer()
            tracer.install()
            try:
                run = backend.run_phase(tracer=tracer, **limits(1 - REFERENCE_SHARE))
            finally:
                tracer.uninstall()
            metrics = backend.layer_metrics(tracer, run, reference)
            tracer.write(
                harness.OUT_DIR / f"trace_{workload.name}.json",
                workload=workload.name, seed=seed, first_timed=warmup,
            )
            common = min(len(reference.digests), len(run.digests))
            run.check(
                reference.digests[:common] == run.digests[:common],
                f"traced and untraced runs diverge within their first "
                f"{common} batches",
            )
            run.problems += reference.problems
            run.attempted += reference.attempted
            run.failed += reference.failed
            lines = [f"  traced batches {len(run.latencies)}, untraced reference "
                     f"{len(reference.latencies)}, warm-up {warmup}"]
    finally:
        backend.close()

    failed = run.attempted if run.problems else run.failed
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    samples = len(run.latencies)
    lines += [
        f"  {metric:<42} {entry['value']:>14.4f} {entry['unit']:<6} (n={samples})"
        for metric, entry in metrics.items()
    ]
    lines.append(f"  {'failed_ops_ratio':<42} {failed / run.attempted:>14.4f} ratio  "
                 f"({failed} of {run.attempted} operations)")
    lines.append(f"  digest {harness.run_digest(run.digests)} over "
                 f"{len(run.digests)} batches (printed, not pinned)")
    lines += [f"  CHECK FAILED: {problem}" for problem in run.problems[:20]]
    lines.append(f"  checks: {'FAILED' if run.problems else 'ok'}")
    return result, lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, help="time batches for this long")
    parser.add_argument("--batches", type=int, help="time exactly this many batches")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="one run in this process: 0 untraced, 1 traced")
    parser.add_argument("--repeats", type=int, default=1,
                        help="complete sets to run when --trace is not given")
    args = parser.parse_args()
    _bootstrap()
    from workloads import WORKLOADS

    if args.workload is not None and args.workload not in WORKLOADS:
        parser.error(f"unknown workload; pick one of {', '.join(WORKLOADS)}")
    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        signal.signal(signal.SIGALRM, _alarm)
        signal.alarm(WATCHDOG_SECONDS)
        result, lines = run_one(
            WORKLOADS[args.workload], args.seed, seconds=args.seconds, batches=args.batches,
            warmup=None, trace=bool(args.trace),
        )
        signal.alarm(0)
        mode = "traced" if args.trace else "untraced"
        print(f"workload {args.workload}  seed {args.seed}  {mode}")
        print("\n".join(lines))
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    return run_all(args)


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    import numpy

    from workloads import WORKLOADS

    names = [args.workload] if args.workload else list(WORKLOADS)
    passthrough = ["--seed", str(args.seed)]
    for flag in ("seconds", "batches"):
        if getattr(args, flag) is not None:
            passthrough += [f"--{flag}", str(getattr(args, flag))]
    workloads: dict = {}
    ok = True
    for _ in range(args.repeats):
        for name in names:
            entry = workloads.setdefault(
                name, {"correct": True, "attempted": 0, "failed": 0,
                       "end_to_end": {}, "per_layer": {}}
            )
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                done = subprocess.run(
                    [sys.executable, __file__, "--workload", name,
                     "--trace", str(trace)] + passthrough,
                    stdout=subprocess.PIPE, text=True,
                )
                *lines, last = done.stdout.rstrip("\n").split("\n")
                print("\n".join(lines), flush=True)
                if done.returncode not in (0, 1) or not last.startswith("{"):
                    print(f"  run exited with code {done.returncode}")
                    ok = entry["correct"] = False
                    continue
                result = json.loads(last)
                ok = ok and result["correct"]
                entry["correct"] = entry["correct"] and result["correct"]
                entry["attempted"] += result["attempted"]
                entry["failed"] += result["failed"]
                for metric, value in result["metrics"].items():
                    kept = entry[section].setdefault(
                        metric, {"values": [], "unit": value["unit"]}
                    )
                    kept["values"].append(value["value"])
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    payload = {
        "seed": args.seed,
        "environment": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "machine": platform.machine(),
        },
        "workloads": workloads,
    }
    (out / "results.json").write_text(json.dumps(payload, indent=1) + "\n")
    print(f"results written to {out / 'results.json'}; all checks "
          f"{'ok' if ok else 'FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
