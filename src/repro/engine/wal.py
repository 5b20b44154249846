"""Durable serving state: write-ahead mutation log + atomic snapshots.

A long-lived serving engine (:mod:`repro.serve`) absorbs row churn
through the delta journal (:mod:`repro.engine.delta`) — but before this
module every committed mutation lived only in memory.  A crash or
OOM-kill lost the entire revision history, and a client whose mutation
response was lost in flight could not safely retry: resending an insert
might apply it twice.  This module makes the serving tier *restartable
into the exact state it died in*:

* **Write-ahead log** (:class:`WriteAheadLog`).  Every acknowledged
  mutation is appended as one CRC-framed record before the response is
  released: the committed-state transition (the engine's
  :class:`~repro.engine.delta.DeltaEvent` stream — net deletes by old
  id plus appended rows, float64 bits preserved exactly via raw-byte
  encoding), the resulting monotone revision id, and — when the client
  supplied one — the idempotency key with the full response body.  The
  frame makes each record atomic: a crash mid-append leaves a torn tail
  that is detected (length/CRC) and truncated on the next open, so a
  record is either completely durable or never happened.  A CRC failure
  *inside* the log (a flipped bit in an already-synced record, not a
  torn tail) raises :class:`~repro.exceptions.CorruptStateError` — the
  suffix after it is acknowledged state that can no longer be trusted,
  and serving a silently wrong matrix is the one unacceptable outcome.
* **Atomic snapshots** (:func:`write_snapshot` / :func:`load_snapshot`).
  The committed matrix, its revision (the WAL watermark) and the
  idempotency table, written with the same mkstemp + fsync +
  ``os.replace`` discipline as the checksummed tuning profile: readers
  see either the previous snapshot or the complete new one, never a
  torn file.  A snapshot holds no tuning profile; each boot reads the
  one it is configured with.  The header is CRC-framed
  and the matrix bytes carry a sha256, so a corrupted snapshot is
  detected and *skipped* (recovery falls back to the previous one plus
  a longer WAL suffix).
* **Recovery** (:meth:`DurableStore.load` + :func:`replay_commits`).
  Boot loads the newest valid snapshot, replays the WAL records beyond
  its watermark through the ordinary mutation path
  (:func:`repro.engine.delta.replay_event`), and lands — by the delta
  layer's bit-identity contract — in a state where every query answers
  bit-identically to an engine that never crashed, including the
  revision counter itself (restored from the snapshot watermark so
  response ``revision`` fields line up across restarts).

The unit of logging is the **commit record**, not the individual
journal call: one record carries every delta event a mutation barrier
produced *plus* its idempotency key and response.  That single-frame
atomicity is what makes exactly-once work: if the record is durable the
retry finds the key and replays the stored response; if it is torn away
the mutation never happened and the retry applies it fresh.  There is
no window where the state change survived but the key did not.

:class:`DurableStore` ties the pieces to one ``data-dir``::

    data-dir/
      LOCK                    # flock-held lock (pid inside is diagnostic only)
      wal.log                 # CRC-framed commit records since the last snapshot
      snapshot-<revision>.snap  # atomic snapshots, newest + previous kept

The LOCK file is held via ``fcntl.flock``: the kernel releases the lock
the instant the holding process dies, so crash recovery needs no stale-
pid probing and two concurrent reclaimers can never both win (the pid
written inside is kept purely for operator diagnostics).  On platforms
without ``fcntl`` a legacy pid-file protocol is used instead.

Snapshots are taken on a size/age policy (``snapshot_wal_bytes`` /
``snapshot_interval_s``) and on graceful drain; each successful
snapshot truncates the WAL (its records are covered by the watermark)
and prunes all but the newest ``keep_snapshots`` files.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import struct
import tempfile
import time
import zlib
from dataclasses import dataclass, field

import numpy as np

try:  # POSIX; the legacy pid-file protocol covers platforms without it
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None  # type: ignore[assignment]

from repro.exceptions import CorruptStateError, DataDirLockedError, ValidationError

__all__ = [
    "Commit",
    "DurableStore",
    "Snapshot",
    "WriteAheadLog",
    "load_snapshot",
    "replay_commits",
    "write_snapshot",
]

_WAL_MAGIC = b"RWAL1\r\n\x00"  # 8 bytes; \r\n catches text-mode mangling
_SNAP_MAGIC = b"RSNAP1\n\x00"
_FRAME = struct.Struct("<II")  # payload length, crc32(payload)
# Sanity bound on one record's declared payload length: anything larger
# is treated as corruption, not an allocation request.
_MAX_RECORD_BYTES = 1 << 30

# Legacy pid-file protocol only (no-fcntl platforms): lock paths held by
# live DurableStore instances in THIS process.  A lock file naming our
# own pid is a genuine conflict only while its store is open here;
# otherwise it is a leftover of an earlier incarnation (the in-process
# crash-simulation path) and is stale.  The flock protocol needs none of
# this: each open() takes its own file description, so a second store in
# the same process conflicts naturally and a closed fd releases the lock
# exactly the way a dead process would.
_HELD_LOCKS: set[str] = set()


def _pack_array(arr: np.ndarray) -> dict:
    """JSON-safe exact encoding of an ndarray (raw bytes, not decimal).

    Mutation rows include ties, duplicates and denormals whose bits must
    survive the log verbatim; base64 of the C-contiguous buffer is
    exact by construction, with no float-repr round-trip to audit.
    """
    arr = np.ascontiguousarray(arr)
    return {
        "dtype": arr.dtype.str,
        "shape": list(arr.shape),
        "data": base64.b64encode(arr.tobytes()).decode("ascii"),
    }


def _unpack_array(payload: dict) -> np.ndarray:
    try:
        raw = base64.b64decode(payload["data"], validate=True)
        arr = np.frombuffer(raw, dtype=np.dtype(payload["dtype"]))
        return arr.reshape(payload["shape"]).copy()
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptStateError(f"WAL record carries an undecodable array: {exc}") from None


def _fsync_dir(directory: str) -> None:
    """Make a rename/create in ``directory`` durable (best-effort off-POSIX)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir fds
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


# ----------------------------------------------------------------------
# commit records


@dataclass(frozen=True)
class Commit:
    """One acknowledged mutation: its delta events, key and response.

    ``events`` is a list of ``(deleted_ids, inserted_rows)`` pairs in
    the order the engine committed them (a single barrier normally
    produces exactly one); ``revision`` is the engine revision after the
    last of them.  ``key``/``response`` carry the exactly-once contract:
    a retry bearing ``key`` is answered with ``response`` verbatim,
    without touching the engine.
    """

    revision: int
    events: tuple
    key: str | None = None
    response: dict | None = None

    def to_payload(self) -> bytes:
        body = {
            "revision": int(self.revision),
            "events": [
                {"deleted_ids": _pack_array(d), "inserted_rows": _pack_array(r)}
                for d, r in self.events
            ],
            "key": self.key,
            "response": self.response,
        }
        return json.dumps(body, separators=(",", ":")).encode("utf-8")

    @classmethod
    def from_payload(cls, payload: bytes) -> "Commit":
        # Unknown keys are ignored: older records may carry a "meta" field.
        try:
            body = json.loads(payload.decode("utf-8"))
            events = tuple(
                (_unpack_array(ev["deleted_ids"]), _unpack_array(ev["inserted_rows"]))
                for ev in body["events"]
            )
            return cls(
                revision=int(body["revision"]),
                events=events,
                key=body.get("key"),
                response=body.get("response"),
            )
        except CorruptStateError:
            raise
        except (KeyError, TypeError, ValueError, UnicodeDecodeError) as exc:
            raise CorruptStateError(
                f"WAL record payload is not a valid commit: {exc}"
            ) from None


def _scan_frames(raw: bytes, *, source: str) -> tuple[list[bytes], int]:
    """Parse CRC frames out of ``raw``; returns (payloads, clean_length).

    Torn tails — a header or payload cut short by a crash mid-append —
    are expected and reported via ``clean_length`` (the caller truncates
    there).  A CRC mismatch on a frame whose bytes are *fully present*
    is a flipped bit inside acknowledged history and raises
    :class:`CorruptStateError` instead: truncating would silently erase
    durable state.
    """
    payloads: list[bytes] = []
    offset = len(_WAL_MAGIC)
    while True:
        header = raw[offset : offset + _FRAME.size]
        if len(header) < _FRAME.size:
            return payloads, offset  # torn (or clean) tail: no full header
        length, crc = _FRAME.unpack(header)
        if length > _MAX_RECORD_BYTES:
            raise CorruptStateError(
                f"{source}: record at byte {offset} declares an implausible "
                f"length ({length} bytes); the log is corrupted"
            )
        start = offset + _FRAME.size
        payload = raw[start : start + length]
        if len(payload) < length:
            return payloads, offset  # torn tail: payload cut short
        if zlib.crc32(payload) != crc:
            raise CorruptStateError(
                f"{source}: record at byte {offset} failed its CRC with the "
                "full record present — a bit flip inside acknowledged "
                "history, not a torn tail; refusing to serve a silently "
                "wrong state (restore from a snapshot/backup)"
            )
        payloads.append(payload)
        offset = start + length
        if offset == len(raw):
            return payloads, offset


class WriteAheadLog:
    """Append-only CRC-framed record log with torn-tail recovery.

    Opening scans the whole file: a valid prefix is kept (and the torn
    tail, if any, truncated in place); the handle then appends with an
    ``fsync`` per :meth:`append` so an acknowledged record survives
    power loss.  Revisions must arrive strictly increasing — a
    regression means two writers or a replayed handle, both fatal.
    """

    def __init__(self, path) -> None:
        self.path = os.fspath(path)
        self.commits: list[Commit] = []  # recovered at open, then not grown
        fresh = not os.path.exists(self.path)
        self._fh = open(self.path, "a+b")
        try:
            if fresh:
                self._fh.write(_WAL_MAGIC)
                self._fh.flush()
                os.fsync(self._fh.fileno())
                _fsync_dir(os.path.dirname(self.path) or ".")
            else:
                self._recover()
        except BaseException:
            self._fh.close()
            raise
        self.last_revision = self.commits[-1].revision if self.commits else 0

    def _recover(self) -> None:
        self._fh.seek(0)
        raw = self._fh.read()
        if raw[: len(_WAL_MAGIC)] != _WAL_MAGIC:
            raise CorruptStateError(
                f"{self.path} does not start with the WAL magic; it is not a "
                "repro write-ahead log (or its head was overwritten)"
            )
        payloads, clean = _scan_frames(raw, source=self.path)
        self.commits = [Commit.from_payload(p) for p in payloads]
        revisions = [c.revision for c in self.commits]
        if any(b <= a for a, b in zip(revisions, revisions[1:])):
            raise CorruptStateError(
                f"{self.path}: commit revisions are not strictly increasing "
                f"({revisions}); the log was written by overlapping servers"
            )
        if clean < len(raw):
            # Torn tail from a crash mid-append: the record was never
            # acknowledged (the fsync+reply happens after the write), so
            # dropping it is correct — and mandatory, or the next append
            # would interleave with garbage.
            self._fh.truncate(clean)
            self._fh.flush()
            os.fsync(self._fh.fileno())
        self._fh.seek(0, os.SEEK_END)

    @property
    def size_bytes(self) -> int:
        return self._fh.tell()

    def append(self, commit: Commit) -> None:
        """Frame, append and fsync one commit record."""
        if commit.revision <= self.last_revision:
            raise ValidationError(
                f"WAL revisions must be strictly increasing: got "
                f"{commit.revision} after {self.last_revision}"
            )
        payload = commit.to_payload()
        self._fh.write(_FRAME.pack(len(payload), zlib.crc32(payload)) + payload)
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self.last_revision = commit.revision

    def reset(self) -> None:
        """Empty the log (its records are covered by a durable snapshot)."""
        self._fh.seek(0)
        self._fh.truncate(0)
        self._fh.write(_WAL_MAGIC)
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self.commits = []

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()


# ----------------------------------------------------------------------
# snapshots


@dataclass(frozen=True)
class Snapshot:
    """One recovered snapshot: matrix + watermark + server-side tables."""

    values: np.ndarray
    revision: int
    idempotency: dict[str, dict] = field(default_factory=dict)


def write_snapshot(
    path,
    values: np.ndarray,
    revision: int,
    *,
    idempotency: dict[str, dict] | None = None,
) -> None:
    """Atomically persist a snapshot (mkstemp + fsync + ``os.replace``).

    Layout: 8-byte magic, CRC-framed JSON header (shape/dtype, the
    revision watermark, the idempotency table and the matrix sha256),
    then the raw C-contiguous float64 matrix bytes.
    A crash mid-write leaves only the temp file; readers never see a
    torn snapshot.
    """
    path = os.fspath(path)
    matrix = np.ascontiguousarray(np.asarray(values, dtype=np.float64))
    body = matrix.tobytes()
    header = json.dumps(
        {
            "schema": 1,
            "revision": int(revision),
            "shape": list(matrix.shape),
            "dtype": matrix.dtype.str,
            "matrix_sha256": hashlib.sha256(body).hexdigest(),
            "idempotency": idempotency or {},
        },
        separators=(",", ":"),
    ).encode("utf-8")
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".snapshot-", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(_SNAP_MAGIC)
            handle.write(_FRAME.pack(len(header), zlib.crc32(header)))
            handle.write(header)
            handle.write(body)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        _fsync_dir(directory)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:  # pragma: no cover - already replaced/removed
            pass
        raise


def load_snapshot(path) -> Snapshot:
    """Load and integrity-check one snapshot file.

    Raises :class:`CorruptStateError` on any mismatch (magic, header
    CRC, matrix checksum, truncated body) — the caller falls back to an
    older snapshot rather than serving doubtful state.  Header keys not
    modelled here are ignored: older files carry an ``"extra"`` field
    and a pinned tuning ``"profile"``.
    """
    path = os.fspath(path)
    with open(path, "rb") as handle:
        raw = handle.read()
    if raw[: len(_SNAP_MAGIC)] != _SNAP_MAGIC:
        raise CorruptStateError(f"{path}: bad snapshot magic")
    offset = len(_SNAP_MAGIC)
    frame = raw[offset : offset + _FRAME.size]
    if len(frame) < _FRAME.size:
        raise CorruptStateError(f"{path}: snapshot header truncated")
    length, crc = _FRAME.unpack(frame)
    header_raw = raw[offset + _FRAME.size : offset + _FRAME.size + length]
    if len(header_raw) < length or zlib.crc32(header_raw) != crc:
        raise CorruptStateError(f"{path}: snapshot header failed its CRC")
    try:
        header = json.loads(header_raw.decode("utf-8"))
        shape = tuple(int(s) for s in header["shape"])
        dtype = np.dtype(header["dtype"])
        revision = int(header["revision"])
        idempotency = dict(header.get("idempotency") or {})
    except (KeyError, TypeError, ValueError, UnicodeDecodeError) as exc:
        raise CorruptStateError(f"{path}: snapshot header is malformed: {exc}") from None
    body = raw[offset + _FRAME.size + length :]
    expected = int(np.prod(shape)) * dtype.itemsize
    if len(body) != expected:
        raise CorruptStateError(
            f"{path}: snapshot body is {len(body)} bytes, header promises {expected}"
        )
    if hashlib.sha256(body).hexdigest() != header.get("matrix_sha256"):
        raise CorruptStateError(f"{path}: snapshot matrix failed its sha256")
    values = np.frombuffer(body, dtype=dtype).reshape(shape).copy()
    return Snapshot(values=values, revision=revision, idempotency=idempotency)


# ----------------------------------------------------------------------
# recovery replay


def replay_commits(engine, commits, *, idempotency: dict | None = None) -> int:
    """Replay WAL commits beyond the engine's current revision.

    Each commit's delta events run through the ordinary mutation path
    (:func:`repro.engine.delta.replay_event`), so the recovered engine
    is bit-identical — matrix, orderings, quantized stores, every query
    answer — to an engine that lived through the original mutations
    (the delta layer's contract, pinned by the WAL hypothesis suite).
    The revision after each commit is cross-checked against the record;
    a mismatch means the snapshot and log disagree about history.
    Returns the number of commits applied.
    """
    from repro.engine.delta import replay_event

    applied = 0
    for commit in commits:
        if commit.revision <= engine.revision:
            continue  # covered by the snapshot watermark
        if commit.revision != engine.revision + len(commit.events):
            raise CorruptStateError(
                f"WAL replay found a revision gap: commit {commit.revision} "
                f"cannot follow engine revision {engine.revision} with "
                f"{len(commit.events)} events (snapshot and log disagree)"
            )
        for deleted_ids, inserted_rows in commit.events:
            replay_event(engine, deleted_ids, inserted_rows)
        if engine.revision != commit.revision:
            raise CorruptStateError(
                f"WAL replay landed on revision {engine.revision} where the "
                f"log recorded {commit.revision}; refusing to serve"
            )
        if idempotency is not None and commit.key is not None:
            idempotency[commit.key] = commit.response
        applied += 1
    return applied


# ----------------------------------------------------------------------
# the data-dir manager


class DurableStore:
    """One serving data directory: lock, WAL handle, snapshot policy.

    Open it, :meth:`load` the recovered state, replay, then
    :meth:`attach` the engine so every committed mutation's delta events
    are buffered for the next :meth:`commit` (one fsync'd record per
    acknowledged mutation).  :meth:`snapshot` persists the settled state
    and truncates the log.  Everything is single-threaded by contract:
    the serving layer calls commit/snapshot on the engine dispatch
    thread only.
    """

    WAL_NAME = "wal.log"
    LOCK_NAME = "LOCK"
    SNAPSHOT_PREFIX = "snapshot-"
    SNAPSHOT_SUFFIX = ".snap"

    def __init__(
        self,
        data_dir,
        *,
        snapshot_wal_bytes: int = 4 * 2**20,
        snapshot_interval_s: float | None = None,
        keep_snapshots: int = 2,
        max_idempotency_keys: int = 65536,
    ) -> None:
        self.data_dir = os.fspath(data_dir)
        if snapshot_wal_bytes < 1:
            raise ValidationError("snapshot_wal_bytes must be positive")
        if keep_snapshots < 1:
            raise ValidationError("keep_snapshots must be at least 1")
        self.snapshot_wal_bytes = int(snapshot_wal_bytes)
        self.snapshot_interval_s = snapshot_interval_s
        self.keep_snapshots = int(keep_snapshots)
        self.max_idempotency_keys = int(max_idempotency_keys)
        self._wal: WriteAheadLog | None = None
        self._locked = False
        self._lock_fd: int | None = None  # flock protocol; None under legacy
        self._engine = None
        self._subscriber = None
        self._pending_events: list = []
        self._last_snapshot_t = time.monotonic()
        self.stats = {
            "commits": 0,
            "snapshots": 0,
            "recovered_revision": 0,
            "replayed_commits": 0,
            "idempotent_replays": 0,
        }

    # -- lifecycle ------------------------------------------------------
    def open(self) -> "DurableStore":
        """Create the directory, take the flock, open the WAL."""
        os.makedirs(self.data_dir, exist_ok=True)
        self._acquire_lock()
        try:
            self._wal = WriteAheadLog(os.path.join(self.data_dir, self.WAL_NAME))
        except BaseException:
            self._release_lock()
            raise
        return self

    def close(self) -> None:
        """Release handles and the lock (no snapshot — callers decide)."""
        self.detach()
        if self._wal is not None:
            self._wal.close()
            self._wal = None
        self._release_lock()

    def abandon(self) -> None:
        """Drop in-process handles but leave the disk exactly as a crash
        would: WAL untruncated, lock file still present.  Test harnesses
        use this to simulate SIGKILL without leaking file descriptors.
        Closing the lock fd releases the flock exactly the way process
        death would, so the next :meth:`open` acquires it cleanly while
        the stale pid file stays behind as the crash left it.
        """
        self.detach()
        if self._wal is not None:
            self._wal.close()
            self._wal = None
        if self._lock_fd is not None:
            os.close(self._lock_fd)  # kernel drops the flock, as death would
            self._lock_fd = None
        self._locked = False  # the file stays; forget we own it
        _HELD_LOCKS.discard(os.path.realpath(self._lock_path()))

    def __enter__(self) -> "DurableStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _lock_path(self) -> str:
        return os.path.join(self.data_dir, self.LOCK_NAME)

    def _acquire_lock(self) -> None:
        if fcntl is None:  # pragma: no cover - non-POSIX
            self._acquire_lock_pidfile()
            return
        path = self._lock_path()
        payload = f"{os.getpid()}\n".encode("ascii")
        while True:
            fd = os.open(path, os.O_CREAT | os.O_RDWR, 0o644)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                holder = self._lock_pid_hint(fd)
                os.close(fd)
                raise DataDirLockedError(
                    f"data dir {self.data_dir!r} is locked"
                    + (f" by pid {holder}" if holder is not None else "")
                    + "; two servers must not share a WAL"
                ) from None
            # The flock binds to the inode we opened; if a releasing
            # owner unlinked the file between our open and our flock, we
            # hold a lock on a dead inode while a rival may hold one on
            # the live path.  Re-check identity and retry — at most once
            # per release, so this terminates.
            try:
                same_inode = os.fstat(fd).st_ino == os.stat(path).st_ino
            except FileNotFoundError:
                same_inode = False
            if not same_inode:
                os.close(fd)
                continue
            # Lock held.  The pid inside is diagnostic only: liveness is
            # the flock itself (released by the kernel on process death),
            # never a pid probe — so two concurrent reclaimers of a dead
            # holder's LOCK can't both win, they serialize on the flock.
            os.ftruncate(fd, 0)
            os.write(fd, payload)
            os.fsync(fd)
            self._lock_fd = fd
            self._locked = True
            return

    @staticmethod
    def _lock_pid_hint(fd: int) -> int | None:
        """Best-effort pid recorded in the LOCK file (diagnostics only)."""
        try:
            data = os.pread(fd, 64, 0)
            return int(data.split()[0])
        except (OSError, ValueError, IndexError):
            return None

    def _acquire_lock_pidfile(self) -> None:  # pragma: no cover - non-POSIX
        """Legacy pid-file protocol for platforms without ``fcntl``.

        Subject to the inherent probe-then-unlink race between two
        concurrent stale-lock reclaimers; POSIX builds use the flock
        protocol above, which closes it.
        """
        path = self._lock_path()
        payload = f"{os.getpid()}\n".encode("ascii")
        while True:
            try:
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
            except FileExistsError:
                holder = self._lock_holder(path)
                if holder is not None:
                    raise DataDirLockedError(
                        f"data dir {self.data_dir!r} is locked by live pid "
                        f"{holder}; two servers must not share a WAL"
                    ) from None
                # Stale lock: the holder died (e.g. SIGKILL) without
                # releasing.  Reclaim it — this is the normal crash-
                # recovery path, not an error.
                try:
                    os.unlink(path)
                except FileNotFoundError:
                    pass
                continue
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
                handle.flush()
                os.fsync(handle.fileno())
            self._locked = True
            _HELD_LOCKS.add(os.path.realpath(path))
            return

    @staticmethod
    def _lock_holder(path: str) -> int | None:  # pragma: no cover - non-POSIX
        """Legacy protocol: live pid holding ``path``, or None if stale."""
        try:
            with open(path, "rb") as handle:
                pid = int(handle.read().split()[0])
        except (OSError, ValueError, IndexError):
            return None  # unreadable lock = stale
        if pid == os.getpid():
            # Our own pid: live only while a store in this process holds
            # it; an unregistered leftover (abandoned incarnation) is
            # stale.
            return pid if os.path.realpath(path) in _HELD_LOCKS else None
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return None
        except PermissionError:  # pragma: no cover - pid exists, other user
            return pid
        return pid

    def _release_lock(self) -> None:
        if not self._locked:
            return
        # Unlink while still holding the flock: a racer that opened the
        # doomed inode before the unlink will flock it successfully only
        # after our close, then detect the path/inode mismatch and retry
        # against the live path.
        try:
            os.unlink(self._lock_path())
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
        if self._lock_fd is not None:
            os.close(self._lock_fd)
            self._lock_fd = None
        self._locked = False
        _HELD_LOCKS.discard(os.path.realpath(self._lock_path()))

    # -- recovery -------------------------------------------------------
    def _snapshot_files(self) -> list[tuple[int, str]]:
        """(revision, path) of every snapshot file, newest first."""
        found = []
        for name in os.listdir(self.data_dir):
            if not (
                name.startswith(self.SNAPSHOT_PREFIX)
                and name.endswith(self.SNAPSHOT_SUFFIX)
            ):
                continue
            stem = name[len(self.SNAPSHOT_PREFIX) : -len(self.SNAPSHOT_SUFFIX)]
            try:
                revision = int(stem)
            except ValueError:
                continue
            found.append((revision, os.path.join(self.data_dir, name)))
        found.sort(reverse=True)
        return found

    def load(self) -> tuple[Snapshot | None, list[Commit]]:
        """Newest valid snapshot + the WAL commits beyond its watermark.

        A snapshot that fails its integrity check is skipped in favor of
        the next-older one (whose longer WAL suffix is still in the
        log).  With no usable snapshot but a non-empty WAL, recovery
        refuses to guess the base state and raises — except when the
        log's history is complete from revision zero, which the caller
        can replay onto the boot matrix.
        """
        if self._wal is None:
            raise ValidationError("DurableStore.load() requires open() first")
        snapshot = None
        skipped: list[str] = []
        for _revision, path in self._snapshot_files():
            try:
                snapshot = load_snapshot(path)
                break
            except CorruptStateError:
                skipped.append(path)
        if snapshot is None and skipped:
            # Snapshot files exist but none passes its integrity check:
            # durable state provably existed and cannot be reconstructed
            # (the WAL was truncated when the newest snapshot was cut).
            # Booting "fresh" here would silently serve pre-snapshot
            # state — refuse instead.
            raise CorruptStateError(
                f"every snapshot under {self.data_dir!r} failed its "
                f"integrity check ({len(skipped)} corrupt); the durable "
                "state cannot be recovered — restore from a backup or "
                "delete the directory to deliberately start over"
            )
        watermark = snapshot.revision if snapshot is not None else 0
        commits = [c for c in self._wal.commits if c.revision > watermark]
        if commits and snapshot is None and commits[0].revision != 1:
            raise CorruptStateError(
                f"no usable snapshot under {self.data_dir!r} and the WAL "
                f"starts at revision {commits[0].revision}: the base "
                "state is unrecoverable"
            )
        self.stats["recovered_revision"] = (
            commits[-1].revision if commits else watermark
        )
        self.stats["replayed_commits"] = len(commits)
        return snapshot, commits

    # -- logging --------------------------------------------------------
    def attach(self, engine) -> None:
        """Subscribe to the engine's delta stream (post-recovery only).

        Every effective compaction buffers one ``(deleted_ids,
        inserted_rows)`` pair; the next :meth:`commit` drains the buffer
        into a single durable record.  Attach *after* replay, or the
        replayed events would be re-logged.
        """
        if self._engine is not None:
            raise ValidationError("DurableStore is already attached to an engine")
        self._engine = engine
        self._subscriber = engine.subscribe_delta(self._on_delta)

    def detach(self) -> None:
        if self._engine is not None and self._subscriber is not None:
            self._engine.unsubscribe_delta(self._subscriber)
        self._engine = None
        self._subscriber = None
        self._pending_events = []

    def _on_delta(self, event) -> None:
        self._pending_events.append(
            (
                np.asarray(event.deleted_ids, dtype=np.int64),
                np.asarray(event.inserted_rows, dtype=np.float64),
            )
        )

    def commit(self, key: str | None, response: dict | None, revision: int) -> None:
        """Durably record one acknowledged mutation (events + key + response).

        Must run on the engine dispatch thread, after the mutation
        compacted and before its response is released: the fsync here is
        the moment the mutation becomes guaranteed-replayable, which is
        the moment an acknowledgment becomes safe to send.  The record
        carries the delta events buffered since the last commit (the
        :meth:`attach` subscription).
        """
        if self._wal is None:
            raise ValidationError("DurableStore.commit() requires open() first")
        events, self._pending_events = self._pending_events, []
        self._wal.append(
            Commit(revision=int(revision), events=tuple(events), key=key, response=response)
        )
        self.stats["commits"] += 1

    def should_snapshot(self) -> bool:
        """Size/age policy: is a snapshot due?"""
        if self._wal is None:
            return False
        if self._wal.size_bytes >= self.snapshot_wal_bytes:
            return True
        return (
            self.snapshot_interval_s is not None
            and self._wal.size_bytes > len(_WAL_MAGIC)
            and time.monotonic() - self._last_snapshot_t >= self.snapshot_interval_s
        )

    def snapshot(
        self,
        values: np.ndarray,
        revision: int,
        *,
        idempotency: dict[str, dict] | None = None,
    ) -> str:
        """Write a snapshot at ``revision``, truncate the WAL, prune old files."""
        if self._wal is None:
            raise ValidationError("DurableStore.snapshot() requires open() first")
        path = os.path.join(
            self.data_dir,
            f"{self.SNAPSHOT_PREFIX}{int(revision):016d}{self.SNAPSHOT_SUFFIX}",
        )
        write_snapshot(path, values, revision, idempotency=idempotency)
        # Only after the snapshot is durable may the WAL records it
        # covers be dropped; a crash in between replays them harmlessly
        # (their revisions sit at or below the new watermark).
        self._wal.reset()
        pruned = False
        for _rev, old in self._snapshot_files()[self.keep_snapshots :]:
            try:
                os.unlink(old)
                pruned = True
            except OSError:  # pragma: no cover - concurrent cleanup
                pass
        if pruned:
            # Make the unlinks durable: without a directory fsync a
            # machine-level crash can resurrect pruned snapshot files,
            # and a resurrected *newer-named* file from an earlier
            # incarnation would shadow real state on the next boot.
            _fsync_dir(self.data_dir)
        self._last_snapshot_t = time.monotonic()
        self.stats["snapshots"] += 1
        return path

    @property
    def wal_bytes(self) -> int:
        return self._wal.size_bytes if self._wal is not None else 0

    @property
    def last_snapshot_age_s(self) -> float:
        """Seconds since the last snapshot (or since open, before one)."""
        return time.monotonic() - self._last_snapshot_t

    @property
    def wal_dirty(self) -> bool:
        """True when the WAL holds records not yet covered by a snapshot."""
        return self._wal is not None and self._wal.size_bytes > len(_WAL_MAGIC)
