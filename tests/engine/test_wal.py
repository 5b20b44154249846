"""Tests for the durability layer (:mod:`repro.engine.wal`).

The load-bearing property: recovery — newest valid snapshot + WAL
suffix replayed through the ordinary mutation path — reconstructs an
engine **bit-identical** to one that never crashed, for any mutation
sequence (ties, duplicate rows, denormal scales), any crash point
(including torn record tails), and with maintained views driven by the
replay.  Alongside: unit coverage for record framing, torn-tail
truncation vs bit-flip rejection, snapshot integrity and fallback,
revision monotonicity, the pid lock, and replay under an installed
``FaultInjector``.
"""

import base64
import hashlib
import json
import os
import struct
import tempfile
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    Commit,
    DurableStore,
    FaultInjector,
    MDRCView,
    ScoreEngine,
    WriteAheadLog,
    load_snapshot,
    replay_commits,
    write_snapshot,
)
from repro.engine.faults import injected
from repro.exceptions import (
    CorruptStateError,
    DataDirLockedError,
    ValidationError,
)


def _commit(revision, deleted=(), inserted=None, key=None, response=None):
    deleted = np.asarray(deleted, dtype=np.int64)
    inserted = (
        np.empty((0, 3)) if inserted is None else np.asarray(inserted, dtype=np.float64)
    )
    return Commit(
        revision=revision, events=((deleted, inserted),), key=key, response=response
    )


# ----------------------------------------------------------------------
# record framing


def test_wal_roundtrip(tmp_path):
    path = tmp_path / "wal.log"
    rows = np.array([[5e-324, 1.0, 1.0], [0.5, 0.5, 0.5]])
    wal = WriteAheadLog(path)
    wal.append(_commit(1, [0, 4], rows, key="a", response={"indices": [7, 8]}))
    wal.append(_commit(2, [1], None))
    wal.close()

    wal = WriteAheadLog(path)
    assert [c.revision for c in wal.commits] == [1, 2]
    first = wal.commits[0]
    assert first.key == "a" and first.response == {"indices": [7, 8]}
    deleted, inserted = first.events[0]
    assert np.array_equal(deleted, [0, 4])
    # The denormal survives the log bit-for-bit (raw-byte encoding).
    assert inserted.tobytes() == rows.tobytes()
    assert wal.commits[1].key is None and wal.commits[1].response is None
    wal.close()


def test_wal_torn_tail_truncated(tmp_path):
    path = tmp_path / "wal.log"
    wal = WriteAheadLog(path)
    wal.append(_commit(1, [0]))
    wal.close()
    clean_size = os.path.getsize(path)

    # A crash mid-append leaves a frame whose payload is cut short.
    payload = _commit(2, [1]).to_payload()
    with open(path, "ab") as fh:
        fh.write(struct.pack("<II", len(payload), zlib.crc32(payload)))
        fh.write(payload[: len(payload) // 2])

    wal = WriteAheadLog(path)
    assert [c.revision for c in wal.commits] == [1]
    wal.close()
    assert os.path.getsize(path) == clean_size  # tail physically removed

    # A bare torn header (not even length+crc complete) also truncates.
    with open(path, "ab") as fh:
        fh.write(b"\x07")
    wal = WriteAheadLog(path)
    assert [c.revision for c in wal.commits] == [1]
    wal.close()


def test_wal_bit_flip_is_fatal(tmp_path):
    path = tmp_path / "wal.log"
    wal = WriteAheadLog(path)
    wal.append(_commit(1, [0], key="k", response={"deleted": 1}))
    wal.append(_commit(2, [1]))
    wal.close()

    raw = bytearray(open(path, "rb").read())
    raw[len(raw) // 2] ^= 0x10  # flip one bit inside acknowledged history
    open(path, "wb").write(bytes(raw))

    with pytest.raises(CorruptStateError):
        WriteAheadLog(path)


def test_wal_rejects_foreign_file_and_bad_lengths(tmp_path):
    path = tmp_path / "wal.log"
    path.write_bytes(b"not a wal at all, definitely")
    with pytest.raises(CorruptStateError):
        WriteAheadLog(path)

    path2 = tmp_path / "wal2.log"
    wal = WriteAheadLog(path2)
    wal.close()
    with open(path2, "ab") as fh:  # implausible declared length = corruption
        fh.write(struct.pack("<II", 1 << 31, 0) + b"x" * 64)
    with pytest.raises(CorruptStateError):
        WriteAheadLog(path2)


def test_wal_revisions_must_increase(tmp_path):
    wal = WriteAheadLog(tmp_path / "wal.log")
    wal.append(_commit(3, [0]))
    with pytest.raises(ValidationError):
        wal.append(_commit(3, [1]))
    with pytest.raises(ValidationError):
        wal.append(_commit(2, [1]))
    wal.close()

    # A log whose recorded revisions regress (two overlapping writers)
    # is rejected at open, not silently replayed.
    path = tmp_path / "regress.log"
    wal = WriteAheadLog(path)
    wal.append(_commit(5, [0]))
    wal.close()
    payload = _commit(4, [1]).to_payload()
    with open(path, "ab") as fh:
        fh.write(struct.pack("<II", len(payload), zlib.crc32(payload)) + payload)
    with pytest.raises(CorruptStateError):
        WriteAheadLog(path)


# ----------------------------------------------------------------------
# snapshots


def test_snapshot_roundtrip(tmp_path):
    path = tmp_path / "snap"
    values = np.array([[5e-324, 1.0], [1.0, 1.0], [0.25, -0.25]])
    idem = {"key-1": {"indices": [3], "revision": 7}}
    profile = {"schema": 1, "chunk_bytes": 12345}
    write_snapshot(path, values, 7, idempotency=idem, profile=profile)
    snap = load_snapshot(path)
    assert snap.revision == 7
    assert snap.values.tobytes() == values.tobytes()
    assert snap.idempotency == idem
    assert snap.profile == profile


@pytest.mark.parametrize("where", ["magic", "header", "body", "truncate"])
def test_snapshot_corruption_detected(tmp_path, where):
    path = tmp_path / "snap"
    write_snapshot(path, np.ones((4, 2)), 1)
    raw = bytearray(path.read_bytes())
    if where == "magic":
        raw[0] ^= 0xFF
    elif where == "header":
        raw[14] ^= 0x01
    elif where == "body":
        raw[-3] ^= 0x01
    else:
        raw = raw[:-5]
    path.write_bytes(bytes(raw))
    with pytest.raises(CorruptStateError):
        load_snapshot(path)


def test_store_falls_back_to_older_snapshot(tmp_path):
    store = DurableStore(tmp_path, keep_snapshots=2).open()
    older = np.full((3, 2), 0.25)
    store.snapshot(older, 5)
    newer = np.full((3, 2), 0.75)
    store.snapshot(newer, 9)
    # Corrupt the newest snapshot: recovery must use revision 5.
    newest = max(
        p for p in os.listdir(tmp_path) if p.startswith("snapshot-")
    )
    raw = bytearray((tmp_path / newest).read_bytes())
    raw[-1] ^= 0xFF
    (tmp_path / newest).write_bytes(bytes(raw))
    store.close()

    store = DurableStore(tmp_path).open()
    snap, commits = store.load()
    assert snap.revision == 5 and snap.values.tobytes() == older.tobytes()
    store.close()


def test_store_refuses_unanchored_wal(tmp_path):
    """No snapshot + a WAL that does not start at revision 1 = no base."""
    store = DurableStore(tmp_path).open()
    store._wal.append(_commit(4, [0]))
    store.close()
    store = DurableStore(tmp_path).open()
    with pytest.raises(CorruptStateError):
        store.load()
    store.close()


def test_snapshot_truncates_wal_and_prunes(tmp_path):
    store = DurableStore(tmp_path, keep_snapshots=2).open()
    store._wal.append(_commit(1, [0], key="a", response={"x": 1}))
    assert store.wal_dirty
    for rev in (1, 2, 3):
        store.snapshot(np.ones((2, 2)) * rev, rev, idempotency={"a": {"x": rev}})
    assert not store.wal_dirty
    snaps = [p for p in os.listdir(tmp_path) if p.startswith("snapshot-")]
    assert len(snaps) == 2  # oldest pruned
    store.close()

    # Reopened: the newest snapshot carries its key table, and no WAL
    # record below its watermark survives.
    store = DurableStore(tmp_path).open()
    snap, commits = store.load()
    assert snap.revision == 3 and snap.idempotency == {"a": {"x": 3}}
    assert commits == [] and not store.wal_dirty
    store.close()


# ----------------------------------------------------------------------
# the lock


def test_lock_conflict_and_stale_reclaim(tmp_path):
    store = DurableStore(tmp_path).open()
    # A live holder blocks a second open — liveness is the flock itself,
    # not the pid written inside the file.
    with pytest.raises(DataDirLockedError):
        DurableStore(tmp_path).open()
    # Doctoring the pid content changes nothing while the flock is held:
    # it is diagnostic only.
    (tmp_path / "LOCK").write_bytes(b"1\n")
    with pytest.raises(DataDirLockedError):
        DurableStore(tmp_path).open()

    # A dead holder's flock vanished with it (abandon() closes the fd the
    # way SIGKILL would): reclaimed silently even though the stale pid
    # file is still on disk.
    store.abandon()
    assert (tmp_path / "LOCK").exists()
    store = DurableStore(tmp_path).open()
    assert (tmp_path / "LOCK").read_bytes().split()[0] == str(os.getpid()).encode()
    store.close()
    assert not (tmp_path / "LOCK").exists()


# ----------------------------------------------------------------------
# recovery replay (bit-identity, hypothesis-pinned)


@st.composite
def churn_case(draw):
    n0 = draw(st.integers(min_value=5, max_value=16))
    d = draw(st.integers(min_value=2, max_value=3))
    scale = draw(st.sampled_from([1.0, 1e-300, 1e150]))
    grid = st.integers(min_value=-2, max_value=2)
    base = draw(
        st.lists(
            st.lists(grid, min_size=d, max_size=d), min_size=n0, max_size=n0
        )
    )
    matrix = np.asarray(base, dtype=np.float64) * scale
    n_ops = draw(st.integers(min_value=1, max_value=5))
    ops = []
    n = n0
    for _ in range(n_ops):
        if n <= 3 or draw(st.booleans()):
            m = draw(st.integers(min_value=1, max_value=4))
            rows = draw(
                st.lists(
                    st.lists(grid, min_size=d, max_size=d), min_size=m, max_size=m
                )
            )
            ops.append(("insert", np.asarray(rows, dtype=np.float64) * scale))
            n += m
        else:
            count = draw(st.integers(min_value=1, max_value=min(3, n - 3)))
            idx = draw(
                st.lists(
                    st.integers(min_value=0, max_value=n - 1),
                    min_size=count,
                    max_size=count,
                    unique=True,
                )
            )
            ops.append(("delete", sorted(idx)))
            n -= count
    snapshot_after = draw(st.integers(min_value=0, max_value=len(ops)))
    crash_after = draw(st.integers(min_value=snapshot_after, max_value=len(ops)))
    tear_tail = draw(st.booleans())
    return matrix, ops, snapshot_after, crash_after, tear_tail


def _apply(engine, op):
    kind, payload = op
    if kind == "insert":
        engine.insert_rows(payload)
    else:
        engine.delete_rows(payload)
    engine.compact()


@settings(max_examples=30, deadline=None)
@given(case=churn_case())
def test_recovery_bit_identical_to_uninterrupted(case):
    matrix, ops, snapshot_after, crash_after, tear_tail = case
    with tempfile.TemporaryDirectory() as td:
        # The never-crashed oracle lives through every mutation.
        oracle = ScoreEngine(matrix)
        oracle_view = MDRCView(oracle, 2)

        # The durable engine logs each mutation; "crash" = stop logging
        # after `crash_after` ops (+ optionally a torn half-record).
        store = DurableStore(td).open()
        engine = ScoreEngine(matrix)
        store.attach(engine)
        idem = {}
        for i, op in enumerate(ops):
            _apply(oracle, op)
            if i < crash_after:
                _apply(engine, op)
                key = f"op-{i}"
                response = {"revision": engine.revision}
                idem[key] = response
                store.commit(key, response, engine.revision)
                if i + 1 == snapshot_after:
                    store.snapshot(
                        engine.values, engine.revision, idempotency=dict(idem)
                    )
        engine.close()
        store.abandon()  # the crash: WAL untruncated, lock left behind
        if tear_tail:
            with open(os.path.join(td, "wal.log"), "ab") as fh:
                fh.write(struct.pack("<II", 64, 0) + b"\x01\x02")

        # Recovery: snapshot + replay, with a maintained view attached
        # *before* replay so the delta events drive its repair path.
        store = DurableStore(td).open()
        snap, commits = store.load()
        recovered = ScoreEngine(matrix if snap is None else snap.values)
        if snap is not None:
            recovered.revision = snap.revision
        view = MDRCView(recovered, 2)
        idem2 = dict(snap.idempotency) if snap is not None else {}
        replay_commits(recovered, commits, idempotency=idem2)
        store.attach(recovered)

        # The recovered engine now sits exactly where the oracle sat
        # after `crash_after` ops; apply the rest to both and compare.
        for i, op in enumerate(ops[crash_after:], start=crash_after):
            _apply(recovered, op)
            store.commit(f"op-{i}", {"revision": recovered.revision},
                         recovered.revision)

        assert recovered.revision == oracle.revision
        assert recovered.values.tobytes() == oracle.values.tobytes()
        assert idem2 == {f"op-{i}": {"revision": r + 1}
                         for i, r in enumerate(range(crash_after))}
        rng = np.random.default_rng(0)
        W = rng.random((4, matrix.shape[1]))
        got, want = recovered.topk_batch(W, 2), oracle.topk_batch(W, 2)
        assert np.array_equal(got.order, want.order)
        assert np.array_equal(got.members, want.members)
        subset = [0, min(1, recovered.n - 1)]
        assert np.array_equal(
            recovered.rank_of_best_batch(W, subset),
            oracle.rank_of_best_batch(W, subset),
        )
        # Maintained through replay == maintained through the real run.
        assert list(view.refresh().indices) == list(oracle_view.refresh().indices)

        store.close()
        recovered.close()
        oracle.close()


def test_replay_detects_revision_gap(tmp_path):
    matrix = np.eye(4)
    engine = ScoreEngine(matrix)
    with pytest.raises(CorruptStateError):
        replay_commits(engine, [_commit(3, [0])])  # engine is at revision 0
    engine.close()


def test_recovery_under_fault_injector(tmp_path):
    """An installed injector (crash/corrupt faults in the engine's
    parallel layer) must not break recovery: the resilience ladder
    absorbs the faults and the recovered state is still bit-identical."""
    rng = np.random.default_rng(3)
    matrix = rng.random((60, 3))
    store = DurableStore(tmp_path).open()
    engine = ScoreEngine(matrix)
    store.attach(engine)
    for i in range(4):
        engine.insert_rows(rng.random((2, 3)))
        engine.compact()
        store.commit(f"k{i}", {"revision": engine.revision}, engine.revision)
    final = engine.values.copy()
    engine.close()
    store.abandon()

    with injected(FaultInjector(seed=5, crash=0.3, corrupt=0.2, max_faults=4)):
        store = DurableStore(tmp_path).open()
        snap, commits = store.load()
        recovered = ScoreEngine(matrix if snap is None else snap.values)
        if snap is not None:
            recovered.revision = snap.revision
        replay_commits(recovered, commits)
        assert recovered.values.tobytes() == final.tobytes()
        assert recovered.revision == 4
        store.close()
        recovered.close()


def test_duplicate_idempotency_keys_keep_first_response():
    """replay_commits fills the key table from the log; the server layer
    consults it before applying, so a duplicate key's stored response is
    what a retry receives (covered end-to-end in tests/serve)."""
    matrix = np.eye(4)
    engine = ScoreEngine(matrix)
    commits = [
        _commit(1, [0], key="dup", response={"deleted": 1, "revision": 1}),
        _commit(2, [0], key="other", response={"deleted": 1, "revision": 2}),
    ]
    idem = {}
    replay_commits(engine, commits, idempotency=idem)
    assert idem["dup"] == {"deleted": 1, "revision": 1}
    assert set(idem) == {"dup", "other"}
    engine.close()


# ----------------------------------------------------------------------
# flock race and prune durability


def test_concurrent_stale_reclaim_single_winner(tmp_path):
    """Two racers reclaiming a dead holder's LOCK serialize on the flock:
    exactly one wins, the loser gets DataDirLockedError — never two live
    stores on one WAL (the pre-flock pid-probe protocol could admit
    both when the probe and the unlink interleaved)."""
    import threading

    DurableStore(tmp_path).open().abandon()  # stale LOCK left on disk
    assert (tmp_path / "LOCK").exists()

    barrier = threading.Barrier(2)
    outcomes: list[tuple[int, object]] = []
    lock = threading.Lock()

    def race(tag: int) -> None:
        store = DurableStore(tmp_path)
        barrier.wait()
        try:
            store.open()
            with lock:
                outcomes.append((tag, store))
        except DataDirLockedError as exc:
            with lock:
                outcomes.append((tag, exc))

    threads = [threading.Thread(target=race, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    winners = [s for _, s in outcomes if isinstance(s, DurableStore)]
    losers = [e for _, e in outcomes if isinstance(e, DataDirLockedError)]
    assert len(winners) == 1 and len(losers) == 1
    # The loser can reclaim normally once the winner releases.
    winners[0].close()
    store = DurableStore(tmp_path).open()
    store.close()


def test_release_vs_reclaim_inode_race(tmp_path):
    """A reclaimer that opened the doomed LOCK inode just before the
    holder's unlink must detect the path/inode mismatch and retry
    against the live path instead of holding a lock on a dead inode."""
    holder = DurableStore(tmp_path).open()
    # Simulate the racer's first step: an fd opened on the soon-doomed
    # inode before the holder releases.
    import fcntl as _fcntl

    stale_fd = os.open(tmp_path / "LOCK", os.O_RDWR)
    holder.close()  # unlinks the path, then drops the flock
    # The racer's flock on the dead inode now succeeds...
    _fcntl.flock(stale_fd, _fcntl.LOCK_EX | _fcntl.LOCK_NB)
    # ...but a fresh open() takes the *live* path regardless, and the
    # dead-inode lock does not block it.
    store = DurableStore(tmp_path).open()
    assert os.fstat(stale_fd).st_ino != os.stat(tmp_path / "LOCK").st_ino
    os.close(stale_fd)
    store.close()


def test_snapshot_prune_fsyncs_directory(tmp_path, monkeypatch):
    """The unlinks of pruned snapshots are made durable with a directory
    fsync — and only after the unlinks landed, so a machine crash cannot
    resurrect a newer-named stale snapshot that would shadow real state."""
    import repro.engine.wal as wal_mod

    calls: list[tuple[str, tuple[str, ...]]] = []
    real = wal_mod._fsync_dir

    def recording(directory):
        snaps = tuple(
            sorted(n for n in os.listdir(directory) if n.startswith("snapshot-"))
        )
        calls.append((os.path.realpath(directory), snaps))
        real(directory)

    monkeypatch.setattr(wal_mod, "_fsync_dir", recording)
    store = DurableStore(tmp_path, keep_snapshots=1).open()
    for rev in (1, 2, 3):
        store.snapshot(np.ones((2, 2)) * rev, rev)
    store.close()

    pruning = [
        snaps
        for d, snaps in calls
        if d == os.path.realpath(tmp_path) and len(snaps) == 1
    ]
    # Snapshots 2 and 3 each pruned a predecessor; at fsync time the
    # directory already held only the survivor.
    assert pruning[-1] == ("snapshot-0000000000000003.snap",)
    assert len(pruning) >= 2


# ----------------------------------------------------------------------
# on-disk compatibility


def _packed(arr):
    return {
        "dtype": arr.dtype.str,
        "shape": list(arr.shape),
        "data": base64.b64encode(arr.tobytes()).decode("ascii"),
    }


def test_loads_data_dir_with_extra_and_meta_fields(tmp_path):
    """Older writers put an ``"extra"`` key in every snapshot header and
    could add a ``"meta"`` key to a WAL record.  Both are written here
    byte by byte; readers ignore keys they do not model, so the data dir
    loads and replays unchanged."""
    values = np.array([[5e-324, 1.0], [0.5, 0.25], [1.0, 1.0]])
    body = values.tobytes()
    idem = {"k1": {"indices": [2], "revision": 1}}
    header = json.dumps(
        {
            "schema": 1,
            "revision": 2,
            "shape": [3, 2],
            "dtype": "<f8",
            "matrix_sha256": hashlib.sha256(body).hexdigest(),
            "idempotency": idem,
            "profile": None,
            "extra": {"router": {"fleet_revision": 7, "revisions": [3, 4]}},
        },
        separators=(",", ":"),
    ).encode("utf-8")
    (tmp_path / "snapshot-0000000000000002.snap").write_bytes(
        b"RSNAP1\n\x00" + struct.pack("<II", len(header), zlib.crc32(header)) + header + body
    )
    deleted = np.array([0], dtype=np.int64)
    inserted = np.array([[0.75, 0.125]])
    response = {"indices": [2], "revision": 3}
    record = json.dumps(
        {
            "revision": 3,
            "events": [{"deleted_ids": _packed(deleted), "inserted_rows": _packed(inserted)}],
            "key": "k2",
            "response": response,
            "meta": {"phase": "commit", "op": "insert", "fleet": 3},
        },
        separators=(",", ":"),
    ).encode("utf-8")
    (tmp_path / "wal.log").write_bytes(
        b"RWAL1\r\n\x00" + struct.pack("<II", len(record), zlib.crc32(record)) + record
    )

    store = DurableStore(tmp_path).open()
    snap, commits = store.load()
    store.close()
    assert snap.revision == 2
    assert snap.values.tobytes() == body
    assert snap.idempotency == idem
    assert len(commits) == 1
    commit = commits[0]
    assert commit.revision == 3 and commit.key == "k2" and commit.response == response
    ((got_deleted, got_inserted),) = commit.events
    assert got_deleted.tobytes() == deleted.tobytes()
    assert got_inserted.tobytes() == inserted.tobytes()

    # Replay lands where an engine that applied the mutation itself sits.
    recovered = ScoreEngine(snap.values)
    recovered.revision = snap.revision
    table = dict(snap.idempotency)
    assert replay_commits(recovered, commits, idempotency=table) == 1
    oracle = ScoreEngine(values)
    oracle.revision = 2
    oracle.delete_rows(deleted)
    oracle.insert_rows(inserted)
    oracle.compact()
    assert recovered.revision == oracle.revision == 3
    assert recovered.values.tobytes() == oracle.values.tobytes()
    assert table == {**idem, "k2": response}
    W = np.array([[1.0, 0.5], [0.25, 1.0]])
    assert np.array_equal(recovered.topk_batch(W, 2).order, oracle.topk_batch(W, 2).order)
    recovered.close()
    oracle.close()
