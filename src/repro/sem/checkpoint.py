"""Lightweight checkpointing for semi-external runs.

FlashGraph "is also tolerant to in-memory failures, allowing recovery
in SEM routines through lightweight checkpointing" (Section 2). The
state a SEM run needs to resume is exactly its O(n) in-memory
footprint. For k-means that is the assignments, MTI upper bounds, the
persistent per-cluster sums/counts, current/previous centroids and the
iteration counter; for any other MM algorithm it is whatever its
``export_state()`` returns (GMM: means/variances/weights/ll_history,
Yinyang: its group bounds, ...). Row data never needs checkpointing --
it is already durable on SSD.

Every SEM run (knors and ``run_mm_sem``) writes format version 4: a
manifest naming the owning algorithm (``"kmeans"`` for knors and
``KmeansMM`` alike), the iteration to resume at and JSON scalar state,
plus a sequence-numbered ``checkpoint-<seq>.npz`` holding the named
arrays.

Durability protocol: each save writes its arrays to a fresh
sequence-numbered file (never overwriting the arrays a live manifest
references), then commits by atomically renaming the manifest over
``checkpoint.json``. The manifest rename is the *only* commit point,
so a crash at any instant -- mid-array-write, between tmp-write and
rename, or before garbage collection -- leaves the previous checkpoint
fully loadable (the crash-matrix tests inject crashes at each point
via :mod:`repro.faults`).

Integrity: the manifest records a CRC32 of the whole arrays file plus
one CRC32 per stored array. :func:`load_checkpoint` verifies both,
raising :class:`~repro.errors.CorruptionError` on any mismatch -- a
flipped bit on the simulated SSD is always *detected*, never silently
resumed from.

Older k-means checkpoints still load, as algorithm ``"kmeans"`` with
the same array names: v3 (fixed k-means field set, same protocol and
CRCs), v2 (no CRCs) and v1 (a single ``checkpoint.npz`` renamed
arrays-then-manifest; its window where an old manifest could pair with
newly renamed arrays is what v2 closed). Malformed input of any
version fails typed, naming the directory and the bad key or array:
:class:`~repro.errors.IoSubsystemError` for a manifest that is
missing, unparseable or mistyped, :class:`~repro.errors.CorruptionError`
for arrays that do not match it.

The paper disables checkpointing during performance evaluation
(Section 8.5), and so do the benches; the integration and fault tests
exercise crash/recovery.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.errors import CorruptionError, IoSubsystemError, WorkerCrashError
from repro.mem import current_manager
from repro.resilience.integrity import array_crc32, crc32_bytes

_MANIFEST = "checkpoint.json"
_V1_ARRAYS = "checkpoint.npz"
_FORMAT_VERSION = 4
#: The arrays every v1-v3 (k-means) checkpoint carries.
_KMEANS_ARRAYS = ("centroids", "prev_centroids", "assignment")


@dataclass
class CheckpointState:
    """One SEM run's resumable state, whatever the format version.

    ``arrays`` holds the O(n)/O(k) ndarray state under algorithm-chosen
    names; ``scalars`` holds JSON-representable scalar state;
    ``iteration`` is the index to resume at; ``algorithm`` names the
    owner (v1-v3 checkpoints load as ``"kmeans"``).
    """

    iteration: int
    algorithm: str
    arrays: dict[str, np.ndarray]
    scalars: dict
    n_changed: int
    params: dict


def _read_manifest(directory: Path) -> dict | None:
    """The committed manifest, or None when absent, unparseable or not
    a JSON object."""
    path = directory / _MANIFEST
    if not path.is_file():
        return None
    try:
        manifest = json.loads(path.read_bytes())
    except ValueError:  # bad JSON or invalid UTF-8
        return None
    return manifest if isinstance(manifest, dict) else None


def _arrays_path(directory: Path, manifest: dict) -> Path | None:
    """The existing arrays file a manifest references, version-aware."""
    version = manifest.get("format_version")
    name = manifest.get("arrays")
    if version == 1:
        name = _V1_ARRAYS
    elif version not in (2, 3, _FORMAT_VERSION) or not isinstance(name, str):
        return None
    path = directory / name
    return path if "/" not in name and path.is_file() else None


def _field(manifest: dict, key: str, kind: type, directory: Path) -> Any:
    """``manifest[key]``, typed-failing when absent or not a ``kind``."""
    value = manifest.get(key)
    if isinstance(value, kind) and not (
        kind is int and isinstance(value, bool)
    ):
        return value
    got = f"got {type(value).__name__}" if key in manifest else "missing"
    raise IoSubsystemError(
        f"checkpoint manifest in {directory}: {key!r} must be "
        f"{kind.__name__}, {got}"
    )


def save_checkpoint(
    directory: str | Path,
    state: CheckpointState,
    *,
    crash_point: str | None = None,
) -> Path:
    """Atomically persist a checkpoint, replacing any previous one.

    ``crash_point`` (injected by a :class:`~repro.faults.FaultPlan`)
    raises :class:`~repro.errors.WorkerCrashError` at the named stage
    of the protocol; the previous checkpoint stays loadable at every
    stage, and ``committed-no-gc`` leaves the *new* one loadable with
    one stale arrays file the next save collects.
    """
    if not state.arrays:
        raise IoSubsystemError("a checkpoint must carry at least one array")
    for name in state.arrays:
        if "/" in name:
            raise IoSubsystemError(
                f"checkpoint array name {name!r} must not contain '/'"
            )
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    previous = _read_manifest(directory) or {}
    seq = previous.get("seq", 0)
    seq = (seq if isinstance(seq, int) else 0) + 1
    arrays_name = f"checkpoint-{seq:08d}.npz"

    # Serialize and checksum a snapshot staged in manager-owned buffers:
    # the transient O(n) spike is visible to (and chargeable against)
    # the memory plane, and pooled buffers are reused across periodic
    # saves. The copies are bit-for-bit, so bytes and CRCs are unchanged.
    mem = current_manager()
    staged = {}
    try:
        for name, arr in state.arrays.items():
            staged[name] = mem.alloc(
                arr.shape, arr.dtype, tag=f"checkpoint/{name}"
            )
            np.copyto(staged[name], arr, casting="no")
        with open(directory / arrays_name, "wb") as fh:
            np.savez(fh, **staged)
        file_crc = crc32_bytes((directory / arrays_name).read_bytes())
        array_crcs = {
            name: array_crc32(arr) for name, arr in staged.items()
        }
    finally:
        for arr in staged.values():
            mem.free(arr)
    if crash_point == "arrays-written":
        raise WorkerCrashError(
            "injected crash: arrays written, manifest not committed"
        )

    tmp_manifest = directory / (_MANIFEST + ".tmp")
    tmp_manifest.write_text(
        json.dumps(
            {
                "format_version": _FORMAT_VERSION,
                "seq": seq,
                "arrays": arrays_name,
                "file_crc32": file_crc,
                "array_crc32": array_crcs,
                "algorithm": state.algorithm,
                "iteration": state.iteration,
                "n_changed": state.n_changed,
                "scalars": state.scalars,
                "params": state.params,
            }
        )
    )
    if crash_point == "manifest-tmp-written":
        raise WorkerCrashError(
            "injected crash: between manifest tmp-write and rename"
        )

    # The single atomic commit point.
    tmp_manifest.replace(directory / _MANIFEST)
    if crash_point == "committed-no-gc":
        raise WorkerCrashError(
            "injected crash: committed, stale arrays not collected"
        )

    # Garbage-collect arrays files no manifest references (previous
    # generations, plus leftovers from crashed saves).
    for path in directory.glob("checkpoint-*.npz"):
        if path.name != arrays_name:
            path.unlink(missing_ok=True)
    (directory / _V1_ARRAYS).unlink(missing_ok=True)
    return directory


def _read_arrays(arrays_path: Path) -> dict[str, np.ndarray]:
    """Every array in an ``.npz`` file; CorruptionError if unreadable."""
    try:
        with np.load(arrays_path) as data:
            return {name: data[name] for name in data.files}
    except Exception as exc:
        # The zip and .npy parsers raise BadZipFile, EOFError,
        # ValueError, OSError, ... on damaged bytes.
        raise CorruptionError(
            f"checkpoint arrays file {arrays_path} is unreadable "
            f"({type(exc).__name__}: {exc})"
        ) from exc


def load_checkpoint(directory: str | Path) -> CheckpointState:
    """Load the checkpoint in ``directory`` (format v1-v4).

    Raises :class:`~repro.errors.IoSubsystemError` when there is no
    checkpoint or its manifest is malformed, and
    :class:`~repro.errors.CorruptionError` when the arrays fail their
    CRC32s or do not match the manifest.
    """
    directory = Path(directory)
    manifest = _read_manifest(directory)
    if manifest is None:
        if (directory / _MANIFEST).exists():
            raise IoSubsystemError(
                f"corrupt checkpoint manifest in {directory}"
            )
        raise IoSubsystemError(f"no checkpoint in {directory}")
    version = manifest.get("format_version")
    if version not in (1, 2, 3, _FORMAT_VERSION):
        raise IoSubsystemError(
            f"unsupported checkpoint version {version!r} in {directory}"
        )
    arrays_path = _arrays_path(directory, manifest)
    if arrays_path is None:
        raise IoSubsystemError(
            f"checkpoint manifest in {directory} references missing "
            f"arrays"
        )
    def field(key: str, kind: type) -> Any:
        return _field(manifest, key, kind, directory)

    iteration = field("iteration", int)
    n_changed = field("n_changed", int)
    params = field("params", dict)
    if version == _FORMAT_VERSION:
        algorithm, scalars = field("algorithm", str), field("scalars", dict)
        wanted = None
    else:
        algorithm, scalars = "kmeans", {}
        if version == 1:
            has_ub = has_sums = field("has_pruning_state", bool)
        else:
            has_ub, has_sums = field("has_ub", bool), field("has_sums", bool)
        wanted = list(_KMEANS_ARRAYS)
        wanted += ["ub"] if has_ub else []
        wanted += ["sums", "counts"] if has_sums else []

    want_crcs = {}
    if version >= 3:
        want_crcs = field("array_crc32", dict)
        want = field("file_crc32", int)
        got = crc32_bytes(arrays_path.read_bytes())
        if got != want:
            raise CorruptionError(
                f"checkpoint arrays file {arrays_path} failed CRC32 "
                f"(stored {want:#010x}, computed {got:#010x})"
            )
    arrays = _read_arrays(arrays_path)
    for name in [*want_crcs, *(wanted or ())]:
        if name not in arrays:
            raise CorruptionError(
                f"checkpoint arrays file {arrays_path} lacks array "
                f"{name!r} its manifest declares"
            )
    for name, want in want_crcs.items():
        got = array_crc32(arrays[name])
        if got != want:
            raise CorruptionError(
                f"checkpoint array {name!r} in {directory} failed CRC32 "
                f"(stored {want!r}, computed {got})"
            )
    if wanted is not None:
        arrays = {name: arrays[name] for name in wanted}
    return CheckpointState(
        iteration=iteration, algorithm=algorithm, arrays=arrays,
        scalars=scalars, n_changed=n_changed, params=params,
    )


def has_checkpoint(directory: str | Path) -> bool:
    """Is there a loadable checkpoint in ``directory``?"""
    directory = Path(directory)
    manifest = _read_manifest(directory)
    return bool(manifest and _arrays_path(directory, manifest))


def corrupt_checkpoint(directory: str | Path) -> int:
    """Flip one byte mid-file in the committed arrays file.

    Fault-injection helper for the ``corruption``/``checkpoint`` site:
    simulates a bit flip on the durable medium after the save
    committed. Returns the byte offset that was flipped so the event
    can report it. Raises :class:`~repro.errors.IoSubsystemError` when
    there is no checkpoint to corrupt.
    """
    directory = Path(directory)
    manifest = _read_manifest(directory)
    arrays_path = manifest and _arrays_path(directory, manifest)
    if not arrays_path:
        raise IoSubsystemError(f"no checkpoint to corrupt in {directory}")
    size = arrays_path.stat().st_size
    offset = size // 2
    with open(arrays_path, "r+b") as fh:
        fh.seek(offset)
        byte = fh.read(1)
        fh.seek(offset)
        fh.write(bytes([byte[0] ^ 0xFF]))
    return offset


def discard_checkpoint(directory: str | Path) -> int:
    """Quarantine a corrupt checkpoint: remove all its files.

    Returns the number of files removed. After a discard the directory
    reports no checkpoint, so recovery falls back to a from-scratch
    restart -- slower in simulated time, but never resumes from bad
    state.
    """
    directory = Path(directory)
    removed = 0
    candidates = [directory / _MANIFEST, directory / (_MANIFEST + ".tmp"),
                  directory / _V1_ARRAYS]
    candidates.extend(directory.glob("checkpoint-*.npz"))
    for path in candidates:
        if path.exists():
            path.unlink()
            removed += 1
    return removed
