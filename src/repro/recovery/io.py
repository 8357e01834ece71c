"""Crash-consistent file I/O for the checkpoint subsystem.

Two guarantees matter here:

* **Atomicity** — a snapshot file either exists with its complete contents
  or does not exist at all.  :func:`atomic_write_bytes` writes to a
  temporary file in the *same directory*, flushes and fsyncs it, then
  ``os.replace``\\ s it over the target (atomic on POSIX within one
  filesystem) and fsyncs the directory so the rename itself survives a
  power loss.  A process crash at any point leaves either the old file,
  no file, or a stray ``*.tmp`` that readers ignore — never a torn target.
* **Integrity** — every snapshot file carries a small header (magic bytes,
  format version, payload length, SHA-256 of the payload).
  :func:`read_snapshot_file` verifies all of it and raises
  :class:`~repro.errors.RecoveryError` on any mismatch, so a truncated or
  bit-flipped file is *detected* rather than deserialised into garbage;
  :func:`load_latest` then falls back to the previous retained checkpoint.
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import struct
from typing import List, Optional, Union

from ..errors import RecoveryError

PathLike = Union[str, os.PathLike]

#: Snapshot file magic: "CrAQR ChecKpoint".
MAGIC = b"CRQRCKPT"

#: Current snapshot format version.  Bumped on any incompatible change to
#: the header layout or the pickled payload structure — or to what a
#: restored engine computes next, since restore-then-replay must be
#: byte-identical to the run that wrote the file (2: the engine's
#: per-tuple delivery callback and ``EngineConfig.columnar`` are gone and
#: result buffers hold ``TupleBatch`` chunks only; 3: the MLE is the damped
#: Newton solver and only a converged fit flattens a batch, so the same
#: state yields different tuples, and ``FlattenBatchReport`` carries
#: ``estimator``; 4: fast-sim ``advance`` skips ahead — a waypoint walker
#: with no event in the window moves in one stride, so a fast-sim
#: checkpoint of an older build replays different position bits; 5: sensors
#: keep no sensed history, so the sensor reducer and its packed columns are
#: gone from the payload; 6: strict sensors answer from keyed streams in
#: fused per-attribute rounds — the world and its sensors carry an
#: ``acquisition_key`` and a restored strict engine draws other answers
#: than the build that wrote a version-5 file; 7: strict sensors move from
#: keyed streams through the kernels — the SoA carries ``moves_drawn``, a
#: sensor whose model has a kernel carries no generator, and a restored
#: strict engine moves its crowd elsewhere than the build that wrote a
#: version-6 file; 8: every mobility model moves through its kernel — a
#: sensor carries no per-row state view, generator or scratch state, the
#: world no list of kernel-less rows, and the state-view class is gone; 9:
#: stateful participation is decided per request under both contracts —
#: the SoA has no participation-group column or extra state columns, a
#: fatigue model keeps its state in its own dict, and a fast-sim fatigue
#: crowd no longer commits fatigue once per round; 10: a result buffer's
#: retained chunks are one columnar block per layout, not one reduced
#: ``TupleBatch`` each — bounding the Flatten report history by
#: ``retention_batches`` changes what is captured, not what a restored
#: engine computes; 11: sensors are placed from keyed blocks and the world
#: keeps one model object per group, row-to-group codes and no sensor
#: views — the sensor class is gone from the payload, and a restored world
#: was placed elsewhere than the build that wrote a version-10 file; 12:
#: the mobility kernels compute distances as ``sqrt(dx*dx + dy*dy)``, not
#: ``hypot`` — a restored engine moves its crowd to other last bits than
#: the build that wrote a version-11 file; 13: the handler, the clock, a
#: view and its frame buffer no longer pickle the round, tick,
#: pre-origin-drop and evicted-tuple counters nothing read).
FORMAT_VERSION = 13

#: Header layout after the magic: version (u32), payload length (u64),
#: SHA-256 digest (32 bytes), all little-endian.
_HEADER = struct.Struct("<IQ32s")

#: Filename suffix of checkpoint files written by :class:`CheckpointStore`.
SNAPSHOT_SUFFIX = ".ckpt"


def _fsync_directory(directory: pathlib.Path) -> None:
    """fsync a directory so a just-performed rename is durable."""
    try:
        fd = os.open(str(directory), os.O_RDONLY)
    except OSError:  # pragma: no cover - non-POSIX directory semantics
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fsync unsupported on the fs
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path: PathLike, data: bytes, *, pre_replace_hook=None) -> None:
    """Write ``data`` to ``path`` atomically (temp file + fsync + replace).

    The temporary file lives next to the target so the final
    ``os.replace`` stays within one filesystem and is atomic; concurrent
    writers are disambiguated by pid.  Readers never observe a partial
    target file.  ``pre_replace_hook`` runs after the temp file is durable
    but before the rename — the crash-injection harness uses it to model a
    process dying mid-checkpoint, which must leave the previous target
    intact.
    """
    target = pathlib.Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.parent / f".{target.name}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        if pre_replace_hook is not None:
            pre_replace_hook()
        os.replace(tmp, target)
    finally:
        if tmp.exists():  # a crash simulation or error left the temp behind
            try:
                tmp.unlink()
            except OSError:  # pragma: no cover - racing cleanup
                pass
    _fsync_directory(target.parent)


def frame_payload(payload: bytes, *, version: int = FORMAT_VERSION) -> bytes:
    """Wrap a serialized snapshot payload in the versioned, checksummed frame."""
    digest = hashlib.sha256(payload).digest()
    return MAGIC + _HEADER.pack(version, len(payload), digest) + payload


def unframe_payload(data: bytes, *, source: str = "snapshot") -> bytes:
    """Verify a framed snapshot and return the raw payload.

    Raises :class:`RecoveryError` with a caller-actionable message on a
    short file, wrong magic, unknown version, truncated payload or
    checksum mismatch.
    """
    header_size = len(MAGIC) + _HEADER.size
    if len(data) < header_size:
        raise RecoveryError(
            f"{source} is not a CrAQR snapshot: {len(data)} bytes is shorter "
            f"than the {header_size}-byte header"
        )
    if data[: len(MAGIC)] != MAGIC:
        raise RecoveryError(
            f"{source} is not a CrAQR snapshot (bad magic bytes)"
        )
    version, length, digest = _HEADER.unpack_from(data, len(MAGIC))
    if version != FORMAT_VERSION:
        raise RecoveryError(
            f"{source} uses snapshot format version {version}; this build "
            f"reads version {FORMAT_VERSION} only"
        )
    payload = data[header_size:]
    if len(payload) != length:
        raise RecoveryError(
            f"{source} is torn: header promises {length} payload bytes, "
            f"file holds {len(payload)}"
        )
    if hashlib.sha256(payload).digest() != digest:
        raise RecoveryError(f"{source} is corrupt: payload checksum mismatch")
    return payload


def write_snapshot_file(path: PathLike, payload: bytes, *, pre_replace_hook=None) -> None:
    """Atomically write a framed snapshot file."""
    atomic_write_bytes(path, frame_payload(payload), pre_replace_hook=pre_replace_hook)


def read_snapshot_file(path: PathLike) -> bytes:
    """Read and verify a snapshot file, returning the raw payload."""
    target = pathlib.Path(path)
    try:
        data = target.read_bytes()
    except OSError as exc:
        raise RecoveryError(f"cannot read snapshot {target}: {exc}") from exc
    return unframe_payload(data, source=str(target))


def list_snapshots(directory: PathLike) -> List[pathlib.Path]:
    """The checkpoint files in a directory, oldest first (by batch index).

    Checkpoint filenames embed the batch index zero-padded
    (``checkpoint-00000010.ckpt``), so lexicographic order is batch order.
    Temporary files and foreign names are ignored.
    """
    root = pathlib.Path(directory)
    if not root.is_dir():
        return []
    return sorted(
        p for p in root.iterdir()
        if p.name.startswith("checkpoint-") and p.name.endswith(SNAPSHOT_SUFFIX)
    )


def load_latest(directory: PathLike) -> Optional[pathlib.Path]:
    """The newest checkpoint in ``directory`` whose frame and checksum verify.

    Tries newest-first and falls back over torn or corrupt files (the
    crash-mid-write case: the latest file may be damaged, the one before
    it is good).  Returns ``None`` when the directory holds no readable
    checkpoint at all.  The payload is not loaded; to skip files the
    loader refuses as well, use
    :meth:`~repro.recovery.CheckpointStore.latest_path`.
    """
    for path in reversed(list_snapshots(directory)):
        try:
            read_snapshot_file(path)
        except RecoveryError:
            continue
        return path
    return None
