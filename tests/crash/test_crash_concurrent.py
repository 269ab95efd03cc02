"""Concurrent crash differential: kill between two concurrent commits.

Two sessions run interleaved explicit transactions over one durable
database — session A's statements alternate with session B's, and each
round ends with the two COMMITs back to back.  A ``crash`` spec
tears the WAL mid-append at chosen visits, the in-memory state is
abandoned, and recovery must reconstruct exactly the transactions whose
commit record made it to disk — bit-identical to a serial twin that
applied only those transactions, in commit order.

Determinism: one driver thread steps both sessions, transactions touch
disjoint key partitions (no lock waits), and every write is an in-place
INT update — so the physical page images of "the committed subset,
replayed serially" equal the interleaved run's, byte for byte.

The census maps WAL-append visits to statements: a transaction is
durably committed iff the visit count after its COMMIT statement is
below the crash visit.  Crashing on the *second* commit of a round is
precisely the "between two concurrent commits" kill: recovery must keep
the first round-mate and drop the second.
"""

import pytest

from repro.api import SoftDB
from repro.resilience.faults import FaultInjector, SimulatedCrash

from tests.crash.test_crash_differential import fingerprint

pytestmark = pytest.mark.crash

SEEDS = (7, 23, 1009)
KEYS = 12
ROUNDS = 3
SITE = "wal_append"


def setup_statements():
    return [
        "CREATE TABLE kv (id INT PRIMARY KEY, val INT)",
        "INSERT INTO kv VALUES "
        + ", ".join(f"({k}, {k * 10})" for k in range(1, KEYS + 1)),
    ]


def build_script(seed):
    """Interleaved two-session statements: (owner, sql, commit_txn).

    ``commit_txn`` is the transaction label ("A0", "B0", "A1", ...) on
    COMMIT statements, None elsewhere.  Session A updates keys 1..6,
    session B keys 7..12 — disjoint, so the single-threaded interleave
    never blocks and the committed subset replays to identical pages.
    """
    import random

    rng = random.Random(seed)
    script = []
    for r in range(ROUNDS):
        script.append(("A", "BEGIN", None))
        script.append(("B", "BEGIN", None))
        for step in range(2):
            ka = rng.randrange(1, KEYS // 2 + 1)
            kb = rng.randrange(KEYS // 2 + 1, KEYS + 1)
            sa = 1000 + 100 * r + step
            sb = 2000 + 100 * r + step
            script.append(
                ("A", f"UPDATE kv SET val = {sa} WHERE id = {ka}", None)
            )
            script.append(
                ("B", f"UPDATE kv SET val = {sb} WHERE id = {kb}", None)
            )
        first, second = ("A", "B") if rng.random() < 0.5 else ("B", "A")
        script.append((first, "COMMIT", f"{first}{r}"))
        script.append((second, "COMMIT", f"{second}{r}"))
    return script


def run_script(db, script, upto=None):
    """Drive both sessions from one thread; returns the statement index
    that crashed (None if the script completed)."""
    sessions = {"A": db.session("A"), "B": db.session("B")}
    crashed_at = None
    try:
        for position, (owner, sql, _txn) in enumerate(script):
            if upto is not None and position >= upto:
                break
            try:
                sessions[owner].execute(sql)
            except SimulatedCrash:
                crashed_at = position
                break
    finally:
        if crashed_at is None:
            for session in sessions.values():
                session.close()
    return crashed_at


def census(tmp_path, seed):
    """Fault-free durable run recording the cumulative WAL-append visit
    count after every statement (a paused injector still counts)."""
    crash_points = FaultInjector(seed=0)
    crash_points.pause()
    db = SoftDB.open(tmp_path / "census", crash_points=crash_points)
    for sql in setup_statements():
        db.execute(sql)
    script = build_script(seed)
    sessions = {"A": db.session("A"), "B": db.session("B")}
    after = []
    for owner, sql, _txn in script:
        sessions[owner].execute(sql)
        after.append(crash_points.visits[SITE])
    for session in sessions.values():
        session.close()
    db.close()
    return after


def durable_txns(script, visits_after, crash_visit):
    """Transaction labels whose COMMIT fully appended before the crash
    (visit ``crash_visit`` itself is torn), in commit order."""
    return [
        txn
        for position, (_owner, _sql, txn) in enumerate(script)
        if txn is not None and visits_after[position] < crash_visit
    ]


def serial_twin(script, committed):
    """In-memory twin: only the committed transactions' statements,
    replayed serially in commit order."""
    twin = SoftDB()
    for sql in setup_statements():
        twin.execute(sql)
    by_txn = {}
    current = {"A": [], "B": []}
    for owner, sql, txn in script:
        if sql == "BEGIN":
            current[owner] = []
        elif txn is not None:
            by_txn[txn] = current[owner]
        else:
            current[owner].append(sql)
    for txn in committed:
        for sql in by_txn[txn]:
            twin.execute(sql)
    return twin


@pytest.mark.parametrize("seed", SEEDS)
def test_crash_between_concurrent_commits(tmp_path, seed):
    script = build_script(seed)
    visits_after = census(tmp_path, seed)

    # Target the first torn append of every COMMIT statement — for the
    # second commit of a round that is exactly a kill *between* two
    # concurrent commits — plus a mid-transaction DML tear per round.
    targets = set()
    for position, (_owner, _sql, txn) in enumerate(script):
        if txn is not None:
            before = visits_after[position - 1] if position else 0
            if visits_after[position] > before:
                targets.add(before + 1)
    for r in range(ROUNDS):
        # Some visit inside round r's DML (after both BEGINs).
        position = r * (len(script) // ROUNDS) + 2
        targets.add(visits_after[position] + 1)
    targets = sorted(
        v for v in targets if v <= visits_after[-1]
    )
    assert targets, "census found no WAL appends to tear"

    saw_split_round = False
    for at_visit in targets:
        path = tmp_path / f"visit{at_visit}"
        crash_points = FaultInjector(seed=0).add(
            SITE, "crash", at_visit=at_visit
        )
        db = SoftDB.open(path, crash_points=crash_points)
        for sql in setup_statements():
            db.execute(sql)
        crashed_at = run_script(db, script)
        assert crashed_at is not None, (
            f"{SITE} at_visit={at_visit} never fired despite the census"
        )
        del db  # the crash: abandon everything in memory

        recovered = SoftDB.open(path)
        committed = durable_txns(script, visits_after, at_visit)
        twin = serial_twin(script, committed)
        assert fingerprint(recovered) == fingerprint(twin), (
            f"recovered state diverges from the serial twin of the "
            f"durably-committed set {committed} (seed {seed}, "
            f"crash at {SITE} visit {at_visit}, statement {crashed_at})"
        )
        # Exactly the pattern the suite exists for: one round-mate
        # committed durably, its concurrent partner torn away.
        rounds_seen = {txn[1:] for txn in committed}
        for r in sorted(rounds_seen):
            mates = [t for t in committed if t[1:] == r]
            if len(mates) == 1:
                saw_split_round = True
        # Recovery must report the torn tail this site leaves behind.
        assert recovered.durability.last_recovery["torn_tail"]
        recovered.close()
    assert saw_split_round, (
        "no crash target split a round's two concurrent commits"
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_fault_free_concurrent_run_matches_serial_twin(tmp_path, seed):
    """Baseline: no crash — close, reopen, and the recovered state must
    equal the serial twin of *all* transactions in commit order."""
    script = build_script(seed)
    db = SoftDB.open(tmp_path / "db")
    for sql in setup_statements():
        db.execute(sql)
    assert run_script(db, script) is None
    db.close()
    reopened = SoftDB.open(tmp_path / "db")
    committed = [txn for (_o, _s, txn) in script if txn is not None]
    twin = serial_twin(script, committed)
    assert fingerprint(reopened) == fingerprint(twin)
    reopened.close()
