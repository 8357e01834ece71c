"""Command-line interface for the CrAQR reproduction.

Lets a user run acquisitional queries against one of the stock simulated
scenarios without writing Python::

    python -m repro.cli run \
        --scenario rain-temperature --batches 20 \
        --query "ACQUIRE rain FROM RECT(0,0,2,2) AT RATE 10 PER KM2 PER MIN AS Storm" \
        --query "ACQUIRE temp FROM RECT(1,1,3,3) AT RATE 6 PER KM2 PER MIN AS Heat"

    python -m repro.cli scenarios           # list available scenarios
    python -m repro.cli attributes          # list the attribute catalog
    python -m repro.cli repl                # interactive live-engine session
    python -m repro.cli recover --checkpoint-dir ckpts --batches 5

The ``run`` sub-command prints, per query, the requested and achieved rates
and (optionally, ``--show-samples``) the first tuples of each fabricated
stream.  The ``repl`` sub-command keeps one engine alive and feeds it
statements line by line — ``ACQUIRE`` to register, ``run N`` to advance
batch windows, ``ALTER <name> SET RATE ...`` / ``SET REGION ...`` to
replan in flight, ``SHOW QUERIES`` for the session table, ``STOP <name>``
to deregister, and the continuous-view surface: ``CREATE VIEW Rainfall ON
Storm AS AVG(value) GROUP BY CELL WINDOW 5``, ``SHOW VIEWS``, ``frames
Rainfall`` to render the latest closed windows as a table, and ``DROP
VIEW Rainfall``.

Crash recovery: ``run``/``repl`` take ``--checkpoint-dir`` (plus
``--checkpoint-every N``) to write periodic crash-consistent checkpoints,
the repl's ``checkpoint``/``restore`` commands drive the same machinery by
hand, and ``recover`` restores the newest good checkpoint of an
interrupted run and continues it.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from dataclasses import replace as dataclass_replace
from typing import Callable, Dict, Optional, Sequence, TextIO, Tuple

from .config import CheckpointConfig
from .core import CraqrEngine
from .errors import CraqrError
from .metrics import ResultTable
from .query import (
    AttributeCatalog,
    frames_table,
    health_text,
    parse_queries,
    sessions_table,
    views_table,
)
from .sensing import SensingWorld
from .workloads import (
    build_hotspot_world,
    build_rain_temperature_world,
    build_stationary_world,
    build_uniform_world,
    cell_outage_plan,
    default_engine_config,
    default_resilience_config,
    flaky_crowd_plan,
)

#: Scenario name -> (description, world builder).
SCENARIOS: Dict[str, tuple] = {
    "rain-temperature": (
        "4x4 km city, 300 random-waypoint sensors, rain front + heat islands",
        build_rain_temperature_world,
    ),
    "uniform": (
        "4x4 km city with roughly uniform sensor coverage",
        build_uniform_world,
    ),
    "hotspot": (
        "4x4 km city with sensors clustered around two hotspots (skew stress case)",
        build_hotspot_world,
    ),
    "flaky-crowd": (
        "rain + temperature city with an unreliable crowd (drops, stuck "
        "sensors, outliers, latency spikes) answered by retries + quarantine",
        build_rain_temperature_world,
    ),
    "cell-outage": (
        "stationary crowd whose lower-left cells go dark for a window; "
        "quarantine + probation re-admission drive post-outage recovery",
        build_stationary_world,
    ),
    "crash-recovery": (
        "the flaky crowd under periodic crash-consistent checkpoints; pair "
        "with --checkpoint-dir to survive (and recover from) process kills",
        build_rain_temperature_world,
    ),
}


def _scenario_options(*, retention: bool) -> argparse.ArgumentParser:
    """The parent parser of the sub-commands that run a scenario engine.

    Built once per sub-command: argparse hands a parent's option objects
    to every child, so ``run``'s ``set_defaults`` would otherwise change
    the ``repl`` and ``serve`` defaults too.
    """
    options = argparse.ArgumentParser(add_help=False)
    options.add_argument(
        "--scenario",
        choices=sorted(SCENARIOS),
        default="rain-temperature",
        help="which simulated world to acquire from",
    )
    options.add_argument("--sensors", type=int, default=300, help="number of mobile sensors")
    options.add_argument("--grid-cells", type=int, default=16, help="grid cells h (perfect square)")
    options.add_argument("--seed", type=int, default=7, help="random seed")
    if retention:
        options.add_argument(
            "--retention-batches",
            type=int,
            default=None,
            metavar="N",
            help="bound engine memory to the last N batches (default: keep everything)",
        )
    options.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help="write periodic crash-consistent checkpoints into this directory",
    )
    options.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="N",
        help="checkpoint every N batches (with --checkpoint-dir; run defaults "
        "to 10, repl and serve checkpoint only on a 'checkpoint' request)",
    )
    return options


def _check_scenario_options(args: argparse.Namespace) -> None:
    """Refuse non-positive values of the optional scenario-engine options."""
    if args.retention_batches is not None and args.retention_batches <= 0:
        raise CraqrError("--retention-batches must be positive")
    if args.checkpoint_every is not None and args.checkpoint_every <= 0:
        raise CraqrError("--checkpoint-every must be positive")


def _scenario_engine(args: argparse.Namespace) -> Tuple[str, CraqrEngine]:
    """The named scenario's description and a fresh engine over its world.

    The fault scenarios attach their :class:`~repro.faults.FaultPlan` and
    mitigation bundle on top of the shared defaults; the stock scenarios
    run fault-free (and therefore byte-identical to pre-fault builds).
    ``--checkpoint-dir`` turns on periodic crash-consistent checkpoints for
    *any* scenario (``crash-recovery`` is the flaky crowd tuned for it).
    """
    description, builder = SCENARIOS[args.scenario]
    world: SensingWorld = builder(sensor_count=args.sensors, seed=args.seed)
    config = default_engine_config(
        grid_cells=args.grid_cells,
        seed=args.seed + 1,
        retention_batches=args.retention_batches,
    )
    if args.scenario in ("flaky-crowd", "crash-recovery"):
        config = dataclass_replace(
            config,
            faults=flaky_crowd_plan(),
            resilience=default_resilience_config(),
        )
    elif args.scenario == "cell-outage":
        config = dataclass_replace(
            config,
            faults=cell_outage_plan(),
            resilience=default_resilience_config(),
        )
    if args.checkpoint_dir is not None:
        config = dataclass_replace(
            config,
            checkpoints=CheckpointConfig(
                directory=args.checkpoint_dir, every=args.checkpoint_every
            ),
        )
    return description, CraqrEngine(config, world)


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="CrAQR: crowdsensed data acquisition using multi-dimensional point processes",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run = subparsers.add_parser(
        "run",
        parents=[_scenario_options(retention=False)],
        help="run acquisitional queries on a simulated scenario",
    )
    run.set_defaults(checkpoint_every=10, retention_batches=None)
    run.add_argument(
        "--query",
        action="append",
        dest="queries",
        required=True,
        help="a declarative ACQUIRE statement (repeatable)",
    )
    run.add_argument("--batches", type=int, default=20, help="acquisition batches to run")
    run.add_argument(
        "--show-samples",
        type=int,
        default=0,
        metavar="N",
        help="print the first N tuples of each fabricated stream",
    )

    subparsers.add_parser(
        "repl",
        parents=[_scenario_options(retention=True)],
        help="interactive session: drive a live engine with ACQUIRE/ALTER/STOP/SHOW QUERIES",
    )

    recover = subparsers.add_parser(
        "recover",
        help="restore the newest good checkpoint and continue the run",
    )
    recover.add_argument(
        "--checkpoint-dir",
        required=True,
        metavar="DIR",
        help="directory holding the checkpoints of the interrupted run",
    )
    recover.add_argument(
        "--batches",
        type=int,
        default=0,
        metavar="N",
        help="batches to run after restoring (default 0: just report the state)",
    )

    serve = subparsers.add_parser(
        "serve",
        parents=[_scenario_options(retention=True)],
        help="serve a live engine over TCP/websocket: statements, cursor "
        "reads with resumable offsets, and push subscriptions",
    )
    serve.add_argument("--host", default="127.0.0.1", help="address to bind (default 127.0.0.1)")
    serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="port to bind (default 0: pick an ephemeral port and print it)",
    )
    serve.add_argument(
        "--batch-interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help="run one engine batch every SECONDS server-side "
        "(default: batches run only on client 'run' requests)",
    )
    serve.add_argument(
        "--backpressure",
        choices=("skip", "disconnect"),
        default="skip",
        help="default policy when a subscriber's queue fills: drop to "
        "latest and report the skipped count, or drop the client",
    )
    serve.add_argument(
        "--queue-events",
        type=int,
        default=64,
        metavar="N",
        help="default per-subscription send-queue capacity in events",
    )

    subparsers.add_parser("scenarios", help="list the available simulated scenarios")
    subparsers.add_parser("attributes", help="list the attribute catalog")
    return parser


def _command_scenarios(out: Callable[[str], None]) -> int:
    table = ResultTable("available scenarios", ["name", "description"])
    for name, (description, _) in sorted(SCENARIOS.items()):
        table.add_row(name, description)
    out(table.render())
    return 0


def _command_attributes(out: Callable[[str], None]) -> int:
    catalog = AttributeCatalog.default()
    table = ResultTable("attribute catalog", ["attribute", "kind", "value type", "description"])
    for name in catalog.names():
        info = catalog.get(name)
        table.add_row(name, info.kind.value, info.value_type.__name__, info.description)
    out(table.render())
    return 0


def _command_run(args: argparse.Namespace, out: Callable[[str], None]) -> int:
    description, engine = _scenario_engine(args)
    out(f"scenario '{args.scenario}': {description}")

    statements = []
    for text in args.queries:
        statements.extend(parse_queries(text))
    handles = []
    for statement in statements:
        handles.append(engine.register_query(statement.to_query()))
    out(f"registered {len(handles)} queries; running {args.batches} batches ...")

    engine.run(args.batches)

    table = ResultTable(
        "acquired crowdsensed streams",
        ["query", "attribute", "area", "requested rate", "achieved rate", "tuples"],
    )
    for handle in handles:
        estimate = handle.achieved_rate()
        table.add_row(
            handle.query.label,
            handle.query.attribute,
            round(handle.query.region.area, 2),
            round(estimate.requested_rate, 2),
            round(estimate.achieved_rate, 2),
            handle.buffer.total_tuples,
        )
    out(table.render())
    out(
        f"requests sent: {engine.total_requests_sent()}   "
        f"raw tuples acquired: {engine.total_tuples_acquired()}   "
        f"tuples delivered: {engine.total_tuples_delivered()}"
    )
    if args.show_samples > 0:
        for handle in handles:
            out(f"\nfirst tuples of {handle.query.label} (t, x, y, value):")
            for item in handle.results()[: args.show_samples]:
                out(f"  ({item.t:8.2f}, {item.x:6.2f}, {item.y:6.2f}, {item.value})")
    store = engine.checkpoint_store
    if store is not None:
        latest = store.latest_path()
        if latest is not None:
            out(
                f"checkpoints in {store.directory} (latest: {latest.name}); "
                f"resume with: python -m repro.cli recover "
                f"--checkpoint-dir {store.directory}"
            )
    return 0


def _command_recover(args: argparse.Namespace, out: Callable[[str], None]) -> int:
    engine = CraqrEngine.restore_latest(args.checkpoint_dir)
    out(
        f"restored engine at batch {engine.batches_run} "
        f"({len(engine.query_handles())} queries, "
        f"{len(engine.view_handles())} views, "
        f"{engine.total_tuples_delivered()} tuples delivered so far)"
    )
    if args.batches > 0:
        engine.run(args.batches)
        out(f"ran {args.batches} more batch(es); {engine.batches_run} total")
    sessions = engine.sessions()
    if sessions:
        out(sessions_table(sessions).render())
    views = engine.views()
    if views:
        out(views_table(views).render())
    return 0


_REPL_HELP = """\
statements (case-insensitive keywords, ';'-separable):
  ACQUIRE <attr> FROM RECT(x0,y0,x1,y1) [AT] RATE <r> [PER KM2 [PER MIN]] [AS <name>]
  ALTER <name> SET RATE <r> [PER KM2 [PER MIN]]
  ALTER <name> SET REGION RECT(x0,y0,x1,y1)
  STOP <name>
  SHOW QUERIES
  CREATE VIEW <name> ON <query> AS <AGG>(value) [GROUP BY CELL|ATTRIBUTE] WINDOW <dur> [SLIDE <dur>]
  DROP VIEW <name>
  SHOW VIEWS
  EXPLAIN <query|view>
repl commands:
  run [N]          advance N batch windows (default 1)
  frames <view> [N]  show the last N frames of a view (default 5)
  health <query>   per-cell timeout/drop/retry stats + quarantined sensors
  checkpoint [path]  write a crash-consistent checkpoint (path optional with
                   --checkpoint-dir)
  restore <path>   replace the live engine with a checkpointed one
                   (<path> may be a checkpoint file or a checkpoint dir)
  help             this text
  quit/exit        leave the repl"""


def _repl_run(engine: CraqrEngine, rest: str) -> Tuple[CraqrEngine, str]:
    try:
        batches = int(rest.strip() or "1")
    except ValueError:
        raise CraqrError(f"'run' takes a batch count, got {rest.strip()!r}") from None
    engine.run(batches)
    return engine, f"ran {batches} batch(es); {engine.batches_run} total"


def _repl_frames(engine: CraqrEngine, rest: str) -> Tuple[CraqrEngine, str]:
    parts = rest.split()
    if not 1 <= len(parts) <= 2:
        raise CraqrError("'frames' takes a view name and an optional count")
    try:
        count = int(parts[1]) if len(parts) == 2 else 5
    except ValueError:
        raise CraqrError(f"'frames' takes a count, got {parts[1]!r}") from None
    if count <= 0:
        raise CraqrError("the frame count must be positive")
    handle = engine.view(parts[0])
    frames = handle.frames()[-count:]
    if not frames:
        return engine, f"view {handle.name}: no frames closed yet"
    return engine, frames_table(handle, frames).render()


def _repl_checkpoint(engine: CraqrEngine, rest: str) -> Tuple[CraqrEngine, str]:
    parts = rest.split()
    if len(parts) > 1:
        raise CraqrError("'checkpoint' takes at most one path")
    path = engine.checkpoint(parts[0] if parts else None)
    return engine, (
        f"checkpointed batch {engine.batches_run} to {path} "
        f"({path.stat().st_size} bytes)"
    )


def _repl_restore(engine: CraqrEngine, rest: str) -> Tuple[CraqrEngine, str]:
    parts = rest.split()
    if len(parts) != 1:
        raise CraqrError("'restore' takes exactly one checkpoint file or directory")
    target = pathlib.Path(parts[0])
    if target.is_dir():
        engine = CraqrEngine.restore_latest(target)
    else:
        engine = CraqrEngine.restore(target)
    return engine, (
        f"restored engine at batch {engine.batches_run} "
        f"({len(engine.query_handles())} queries, "
        f"{len(engine.view_handles())} views)"
    )


def _repl_health(engine: CraqrEngine, rest: str) -> Tuple[CraqrEngine, str]:
    parts = rest.split()
    if len(parts) != 1:
        raise CraqrError("'health' takes exactly one query name")
    return engine, health_text(engine, engine.query(parts[0]))


#: repl command word -> ``(engine, rest of the line) -> (engine, text)``;
#: ``restore`` hands back the engine that replaces the live one.
_REPL_COMMANDS: Dict[str, Callable[[CraqrEngine, str], Tuple[CraqrEngine, str]]] = {
    "run": _repl_run,
    "frames": _repl_frames,
    "checkpoint": _repl_checkpoint,
    "restore": _repl_restore,
    "health": _repl_health,
}


def _command_repl(
    args: argparse.Namespace,
    out: Callable[[str], None],
    in_stream: TextIO,
) -> int:
    description, engine = _scenario_engine(args)
    out(f"scenario '{args.scenario}': {description}")
    out("CrAQR repl — type 'help' for statements, 'quit' to leave.")
    interactive = in_stream is sys.stdin and sys.stdin.isatty()
    while True:
        if interactive:
            sys.stdout.write("craqr> ")
            sys.stdout.flush()
        line = in_stream.readline()
        if not line:  # EOF
            break
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        lowered = line.lower()
        if lowered in ("quit", "exit"):
            break
        if lowered == "help":
            out(_REPL_HELP)
            continue
        word, _, rest = line.partition(" ")
        command = _REPL_COMMANDS.get(word.lower())
        if command is not None:
            try:
                engine, text = command(engine, rest)
            except CraqrError as exc:
                text = f"error: {exc}"
            out(text)
            continue
        try:
            outcomes = engine.execute_script(line, on_error="continue")
        except CraqrError as exc:  # the line does not parse
            out(f"error: {exc}")
            continue
        for outcome in outcomes:
            out(outcome.row["text"])
    out(
        f"bye: {engine.batches_run} batches run, "
        f"{engine.total_tuples_delivered()} tuples delivered"
    )
    return 0


def _command_serve(args: argparse.Namespace, out: Callable[[str], None]) -> int:
    """Serve one scenario engine until SIGINT/SIGTERM or a shutdown op."""
    import asyncio
    import contextlib
    import signal

    from .serve import ServeConfig, Server
    from .serve.protocol import PROTOCOL

    description, engine = _scenario_engine(args)
    server = Server(
        engine,
        ServeConfig(
            host=args.host,
            port=args.port,
            batch_interval=args.batch_interval,
            backpressure=args.backpressure,
            queue_events=args.queue_events,
        ),
    )

    async def _main() -> None:
        host, port = await server.start()
        out(f"scenario '{args.scenario}': {description}")
        cadence = (
            f"one batch every {args.batch_interval:g}s"
            if args.batch_interval
            else "client-driven batches"
        )
        out(f"serving {PROTOCOL} on {host}:{port} ({cadence}); ctrl-c stops")
        # The smoke tests parse the banner from a subprocess pipe — make
        # sure it is visible before the first client connects.
        sys.stdout.flush()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError, RuntimeError):
                loop.add_signal_handler(
                    signum, lambda: loop.create_task(server.stop())
                )
        await server.serve_forever()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
    out(
        f"serve done: {engine.batches_run} batches run, "
        f"{engine.total_tuples_delivered()} tuples delivered"
    )
    return 0


def main(
    argv: Optional[Sequence[str]] = None,
    out: Callable[[str], None] = print,
    in_stream: Optional[TextIO] = None,
) -> int:
    """CLI entry point; returns a process exit code.

    ``in_stream`` feeds the ``repl`` sub-command (defaults to stdin; tests
    pass a ``StringIO`` script).
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "scenarios":
            return _command_scenarios(out)
        if args.command == "attributes":
            return _command_attributes(out)
        if args.command == "run":
            if args.batches <= 0:
                raise CraqrError("--batches must be positive")
            _check_scenario_options(args)
            return _command_run(args, out)
        if args.command == "recover":
            if args.batches < 0:
                raise CraqrError("--batches must be non-negative")
            return _command_recover(args, out)
        if args.command == "repl":
            _check_scenario_options(args)
            return _command_repl(args, out, in_stream if in_stream is not None else sys.stdin)
        if args.command == "serve":
            _check_scenario_options(args)
            if args.queue_events <= 0:
                raise CraqrError("--queue-events must be positive")
            return _command_serve(args, out)
        parser.error(f"unknown command {args.command!r}")
        return 2
    except CraqrError as exc:
        out(f"error: {exc}")
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in examples
    sys.exit(main())
