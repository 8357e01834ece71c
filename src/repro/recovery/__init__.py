"""Crash-consistent checkpoints and deterministic recovery.

This package makes the engine process itself fault-tolerant, completing
the robustness story PR 6 started on the data plane:

* :class:`EngineSnapshot` — a versioned, checksummed capture of the
  *complete* engine state (world SoA + every RNG stream, handler budgets
  and ledgers, buffer chunks, view panes and sketches, tuner history,
  health/degradation monitors, the session/view catalog);
* :class:`CheckpointStore` + :class:`~repro.config.CheckpointConfig` —
  atomic temp-file+rename+fsync writes of retained checkpoint files, with
  checksum-verified loads that build only engine classes and fall back
  over torn or refused files;
* :func:`restore_engine` / :func:`restore_latest` — rebuild a live engine
  whose subsequent batches are seeded byte-identical to an uninterrupted
  run (the contract pinned by ``tests/recovery/``).

Crash *injection* lives in :mod:`repro.faults` (:class:`CrashPoint`,
:class:`CrashInjector`); the CLI surfaces recovery through the ``recover``
sub-command and the repl's ``checkpoint``/``restore`` commands.
"""

from .io import (
    FORMAT_VERSION,
    atomic_write_bytes,
    list_snapshots,
    load_latest,
    read_snapshot_file,
    write_snapshot_file,
)
from .snapshot import (
    CheckpointStore,
    EngineSnapshot,
    load_snapshot,
    restore_engine,
    restore_latest,
)

__all__ = [
    "FORMAT_VERSION",
    "atomic_write_bytes",
    "list_snapshots",
    "load_latest",
    "read_snapshot_file",
    "write_snapshot_file",
    "CheckpointStore",
    "EngineSnapshot",
    "load_snapshot",
    "restore_engine",
    "restore_latest",
]
