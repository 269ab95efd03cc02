"""Property: a replica is recovery of its resolved prefix, always.

Two or three sessions interleave INSERT/UPDATE/DELETE — some of them
outside a ``MinMaxSC`` band that a ``RepairPolicy`` widens — with
COMMIT and ROLLBACK, over a table with a non-unique index.  Shipper
pumps and replica ``kill()``/``restart()`` land at generated points.

* After every pump the replica shows nothing logged at or after the
  first record of its oldest unresolved transaction: its state equals
  recovery of a copy of its own directory whose log is cut just before
  that record (keeping the outcomes of the transactions before it).
* Once every transaction has resolved and the replica has caught up, it
  equals the live primary and a recovered copy of the primary's
  directory, by the crash suite's :func:`fingerprint`.

A rollback logs its compensations under its own id before the
``abort``, and redo replays them there, so a rolled-back write leaves
the same page images, index order, repairs and staleness ticks on every
node as on the live primary.  So whole fingerprints are compared after
rollbacks too, and recovery of the primary's directory finds no soft
constraint to re-validate.
"""

import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import SoftDB
from repro.replication import Replica, WalShipper
from repro.softcon.maintenance import RepairPolicy
from repro.softcon.minmax import MinMaxSC
from tests.crash.test_crash_differential import fingerprint

pytestmark = pytest.mark.replication

SESSIONS = 3

#: Band [0, 100]; values above it make the RepairPolicy widen ``high``.
#: Few distinct values, so the non-unique index sees equal keys.
VALUES = st.sampled_from([5, 5, 40, 99, 150, 220, 300])

steps = st.lists(
    st.one_of(
        st.tuples(
            st.sampled_from(["insert", "update", "delete"]),
            st.integers(0, SESSIONS - 1),
            VALUES,
            st.sampled_from([True, True, False]),
        ),
        st.tuples(
            st.sampled_from(["commit", "rollback"]),
            st.integers(0, SESSIONS - 1),
        ),
        st.tuples(st.sampled_from(["pump"] * 8 + ["kill", "restart"])),
    ),
    min_size=6,
    max_size=30,
)


class Writer:
    """One session and the ids it owns (so sessions never block)."""

    def __init__(self, db, number):
        self.session = db.session()
        self.next_id = 1000 * (number + 1)
        self.rows = set()
        # Rows owned at BEGIN (None outside a transaction).
        self.begun = None

    def write(self, kind, value, explicit):
        if explicit and self.begun is None:
            self.session.execute("BEGIN")
            self.begun = set(self.rows)
        if kind == "insert" or not self.rows:
            key = self.next_id
            self.next_id += 1
            self.session.execute(f"INSERT INTO t VALUES ({key}, {value})")
            self.rows.add(key)
            return
        key = min(self.rows)
        if kind == "update":
            self.session.execute(
                f"UPDATE t SET v = {value} WHERE id = {key}"
            )
        else:
            self.session.execute(f"DELETE FROM t WHERE id = {key}")
            self.rows.discard(key)

    def end(self, kind):
        """COMMIT or ROLLBACK the open transaction, if any."""
        if self.begun is None:
            return
        self.session.execute(kind.upper())
        if kind == "rollback":
            self.rows = self.begun
        self.begun = None


def resolved_prefix(replica):
    """The replica's mirrored log cut where its hold stops, followed by
    the outcome records (logged after the cut) of the transactions the
    cut keeps.  The hold stops at the first record of its oldest
    unresolved transaction, or earlier at the first record of an
    aborted transaction the cut would split: its undo lies past the
    cut, so it applies whole or not at all."""
    wal = replica.db.durability.wal
    records, _end, _torn = wal.scan(0)
    lines = wal.path.read_bytes().splitlines(keepends=True)
    outcome = {
        record["txn"]: record["op"]
        for record in records
        if record["op"] in ("commit", "abort")
    }
    cut = next(
        (
            at
            for at, record in enumerate(records)
            if record.get("txn") is not None
            and record["txn"] not in outcome
        ),
        len(records),
    )
    spans = {}
    for at, record in enumerate(records):
        txn = record.get("txn")
        if outcome.get(txn) == "abort" and record["op"] != "abort":
            spans.setdefault(txn, [at, at])[1] = at
    moved = True
    while moved:
        moved = False
        for start, end in spans.values():
            if start < cut <= end:
                cut, moved = start, True
    kept = {record.get("txn") for record in records[:cut]}
    outcomes = [
        line
        for record, line in zip(records[cut:], lines[cut:])
        if record["op"] in ("commit", "abort") and record["txn"] in kept
    ]
    return b"".join(lines[:cut] + outcomes)


def recover_copy(source, target, log=None):
    """Recovery of a copy of ``source``, its WAL replaced by ``log``."""
    shutil.copytree(source, target)
    if log is not None:
        (target / "wal.log").write_bytes(log)
    return SoftDB.open(target)


@given(steps)
@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_replica_is_recovery_of_its_resolved_prefix(script):
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        primary = SoftDB.open(root / "primary")
        primary.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        primary.execute("CREATE INDEX ix_v ON t (v)")
        primary.execute("INSERT INTO t VALUES (1, 5), (2, 40), (3, 5)")
        primary.add_soft_constraint(
            MinMaxSC("t_v", "t", "v", 0, 100, 1.0), policy=RepairPolicy()
        )
        shipper = WalShipper(primary, max_chunk=256)
        replica = Replica(root / "replica")
        shipper.attach(replica)
        writers = [Writer(primary, n) for n in range(SESSIONS)]
        checks = 0
        for step in script:
            kind = step[0]
            if kind in ("insert", "update", "delete"):
                _kind, number, value, explicit = step
                writers[number].write(kind, value, explicit)
            elif kind in ("commit", "rollback"):
                writers[step[1]].end(kind)
            elif kind == "kill":
                replica.kill()
            elif kind == "restart":
                replica.restart()
            elif not replica.dead:
                shipper.pump()
                checks += 1
                expected = recover_copy(
                    replica.path,
                    root / f"prefix{checks}",
                    resolved_prefix(replica),
                )
                assert fingerprint(replica.db) == fingerprint(expected)
                expected.close(checkpoint=False)
        for writer in writers:
            writer.end("commit")
        if replica.dead:
            replica.restart()
        assert shipper.pump_until_synced()
        assert replica.db.durability.redo.held == 0
        recovered = recover_copy(primary.durability.path, root / "copy")
        assert recovered.durability.last_recovery["asc_actions"] == []
        assert fingerprint(replica.db) == fingerprint(recovered)
        assert fingerprint(replica.db) == fingerprint(primary)
        recovered.close(checkpoint=False)
        replica.close()
        primary.close(checkpoint=False)
