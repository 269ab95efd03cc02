"""One statement path: the facade, its explicit transaction, ``Session``,
the router and a replica all run one dispatch, one SELECT runner and one
DML applier (``SoftDB.run_statement`` / ``repro.dml``).

Three things are pinned here: the two bugs the hand-rolled copies had
drifted into, one parse per statement on every route, and the same
answer from the same DML script in every context a statement can run in.
"""

from collections import Counter
from contextlib import ExitStack

import pytest

import repro.api
import repro.concurrency.session
import repro.optimizer.planner
import repro.sql.parser
from repro import SoftDB
from repro.concurrency import RoutedSession
from repro.errors import (
    BudgetExceededError,
    ConstraintViolation,
    QueryCancelledError,
    ReproError,
    SqlError,
    TransactionError,
)
from repro.replication import Replica, WalShipper
from repro.resilience.guards import QueryGuard


def _rows(db, table="t"):
    return sorted(db.database.table(table).scan_rows())


# ------------------------------------------- facade-transaction atomicity


def test_failed_statement_in_facade_transaction_leaves_no_prefix():
    db = SoftDB()
    db.execute("CREATE TABLE t (a INT PRIMARY KEY, b INT, CHECK (b < 100))")
    db.execute("INSERT INTO t VALUES (1, 10), (2, 95), (3, 20)")
    db.execute("BEGIN")
    db.execute("INSERT INTO t VALUES (4, 40)")
    with pytest.raises(ConstraintViolation):
        db.execute("UPDATE t SET b = b + 10")  # row 2 breaks the CHECK
    # The failed statement took the whole transaction with it: there is
    # nothing left to commit, and neither its first row's change nor the
    # transaction's earlier insert survives.
    with pytest.raises(TransactionError):
        db.execute("COMMIT")
    assert _rows(db) == [(1, 10), (2, 95), (3, 20)]
    assert db.execute("UPDATE t SET b = b + 1") == 3


# ------------------------------------------------ Session guard trips


class _CancelledAfterEntry:
    """A cancellation token that reads live where the statement path
    checks it on entry and cancelled at the executor's first boundary."""

    cancelled = False
    _cancelled = True
    reason = "user"


@pytest.fixture
def guarded_session():
    db = SoftDB()
    db.execute("CREATE TABLE t (a INT, b INT)")
    db.database.insert_many("t", [(n, n % 7) for n in range(600)])
    db.runstats("t")
    with db.session() as session:
        yield db, session


@pytest.mark.parametrize("on_breach", ["abort", "partial"])
def test_session_guard_trip_evicts_the_session_plan(
    guarded_session, on_breach
):
    db, session = guarded_session
    sql = "SELECT a FROM t"
    session.execute(sql)
    assert len(session.plan_cache) == 1
    guard = QueryGuard(max_rows=5, on_breach=on_breach)
    if on_breach == "abort":
        with pytest.raises(BudgetExceededError):
            session.execute(sql, guard=guard)
    else:
        assert session.execute(sql, guard=guard).truncated
    # The plan came from the session's cache, so that is the one evicted.
    assert len(session.plan_cache) == 0
    assert session.plan_cache.guard_invalidations == 1
    assert db.plan_cache.guard_invalidations == 0


def test_session_cancellation_blames_nobody(guarded_session):
    db, session = guarded_session
    sql = "SELECT a FROM t"
    session.execute(sql)
    with pytest.raises(QueryCancelledError):
        session.execute(sql, cancel=_CancelledAfterEntry())
    assert session.plan_cache.guard_invalidations == 0
    assert db.plan_cache.guard_invalidations == 0
    assert len(session.plan_cache) == 1


# ---------------------------------------------------- one parse per statement

#: The module globals ``bench/harness.py::patch_layers`` wraps: every
#: statement's one parse must go through one of them.
PARSE_SITES = (
    repro.api,
    repro.concurrency.session,
    repro.optimizer.planner,
)


class _Parses:
    """What was parsed: ``through_sites`` lists the SQL texts that went
    through a patched module global and ``returned`` what each returned;
    ``total`` counts every run of the parser whoever called it."""

    def __init__(self, fresh):
        self.fresh = fresh
        self.through_sites = []
        self.returned = []
        self.total = 0

    def reset(self):
        del self.through_sites[:]
        del self.returned[:]
        self.total = 0


@pytest.fixture
def parses(monkeypatch):
    run_parser = repro.sql.parser._Parser.statement

    def fresh(sql):
        """The statement an uncached, uncounted parse of ``sql`` gives."""
        return run_parser(repro.sql.parser._Parser(repro.sql.parser.tokenize(sql)))

    seen = _Parses(fresh)
    for module in PARSE_SITES:
        original = module.parse_statement

        def spy(sql, _original=original):
            seen.through_sites.append(sql)
            statement = _original(sql)
            seen.returned.append(statement)
            return statement

        monkeypatch.setattr(module, "parse_statement", spy)

    def counted(parser):
        seen.total += 1
        return run_parser(parser)

    monkeypatch.setattr(repro.sql.parser._Parser, "statement", counted)
    # Start from no cached shapes, so the first statement of a shape here
    # is the first the process sees.
    repro.sql.parser._SHAPES.clear()
    return seen


STATEMENTS = (
    "CREATE TABLE u (a INT PRIMARY KEY, b INT)",
    "INSERT INTO u VALUES (1, 1), (2, 2)",
    "UPDATE u SET b = b + 1 WHERE a = 1",
    "SELECT b FROM u WHERE a = 1",
    "BEGIN",
    "DELETE FROM u WHERE a = 2",
    "COMMIT",
)

#: ``STATEMENTS`` after the CREATE again, each with other literals.
TWINS = (
    "INSERT INTO u VALUES (3, 4), (5, 6)",
    "UPDATE u SET b = b + 7 WHERE a = 3",
    "SELECT b FROM u WHERE a = 5",
    "BEGIN",
    "DELETE FROM u WHERE a = 3",
    "COMMIT",
)


def _assert_one_parse_each(execute, parses, statements=STATEMENTS, repeats=False):
    """Each statement goes through one patched parse site, once, and gets
    what a fresh parse of its text gives.  The first statement of a shape
    runs the parser once; a repeat of a shape parsed before (``repeats``),
    literals changed or not, runs it zero times."""
    for sql in statements:
        parses.reset()
        execute(sql)
        runs = 0 if repeats else 1
        assert parses.total == runs, f"{sql!r} was parsed {parses.total} times"
        assert parses.through_sites == [sql]
        assert parses.returned == [parses.fresh(sql)]


def test_facade_parses_each_statement_once(parses):
    db = SoftDB()
    _assert_one_parse_each(db.execute, parses)
    _assert_one_parse_each(db.execute, parses, TWINS, repeats=True)
    # A plan-cache miss, then a hit with other literals.
    _assert_one_parse_each(db.execute, parses, ["SELECT a FROM u WHERE b = 2"])
    _assert_one_parse_each(
        db.execute, parses, ["SELECT a FROM u WHERE b = 9"], repeats=True
    )
    assert db.plan_cache.hits >= 1


def test_session_parses_each_statement_once(parses):
    db = SoftDB()
    with db.session() as session:
        _assert_one_parse_each(session.execute, parses)
        _assert_one_parse_each(session.execute, parses, TWINS, repeats=True)
        _assert_one_parse_each(
            session.execute, parses, ["SELECT a FROM u WHERE b = 2"]
        )
        _assert_one_parse_each(
            session.execute, parses, ["SELECT a FROM u WHERE b = 9"],
            repeats=True,
        )


def test_router_parses_each_statement_once_on_either_side(tmp_path, parses):
    primary = SoftDB.open(tmp_path / "primary")
    replica = Replica(tmp_path / "replica")
    try:
        shipper = WalShipper(primary)
        shipper.attach(replica)
        routed = RoutedSession(primary, shipper)
        # Routed to the primary: every write, and a read no replica is
        # fresh enough for.
        _assert_one_parse_each(routed.execute, parses)
        _assert_one_parse_each(routed.execute, parses, TWINS, repeats=True)
        assert routed.last_route[0] == "primary"
        assert routed.reads_on_replica == 0
        # Routed to the replica.
        assert shipper.pump_until_synced()
        _assert_one_parse_each(
            routed.execute, parses, ["SELECT a FROM u WHERE a > 0 ORDER BY a"]
        )
        assert routed.last_route[0] == "replica"
        # A replica asked directly parses for itself, once, through the
        # shape the routed read cached.
        _assert_one_parse_each(
            replica.execute, parses, ["SELECT a FROM u WHERE a > 1 ORDER BY a"],
            repeats=True,
        )
    finally:
        replica.close()
        primary.close(checkpoint=False)


@pytest.mark.parametrize(
    "sql, parser_runs",
    [
        ("SELECT a FROM u WHERE", 1),  # the parser runs and fails
        ("SELECT a FROM u WHERE a = 'open", 0),  # the lexer fails first
    ],
)
def test_a_statement_that_fails_to_parse_is_parsed_every_time(
    parses, sql, parser_runs
):
    db = SoftDB()
    db.execute("CREATE TABLE u (a INT PRIMARY KEY, b INT)")
    for _ in range(3):
        parses.reset()
        with pytest.raises(SqlError):
            db.execute(sql)
        assert parses.through_sites == [sql]
        assert parses.total == parser_runs
    assert len(repro.sql.parser._SHAPES) == 1  # the CREATE TABLE alone


# ------------------------------------------------------- four-context parity

SETUP = (
    "CREATE TABLE t (a INT PRIMARY KEY, b INT, c INT, CHECK (b < 100))",
    "CREATE INDEX idx_t_b ON t (b)",
)

#: (statement, what a correct program returns: a count or an error type).
SCRIPT = (
    ("INSERT INTO t (b, a) VALUES (10, 1), (20, 2), (30, 3), (40, 4)", 4),
    ("INSERT INTO t VALUES (5, 50, 5), (6, 60, 6), (7, 95, 7)", 3),
    ("UPDATE t SET c = a * 2 WHERE a = 3", 1),  # keyed, one victim
    ("UPDATE t SET b = b + 1 WHERE b BETWEEN 20 AND 50", 4),  # range
    ("UPDATE t SET b = b + 10", ConstraintViolation),  # fails on its 7th row
    ("INSERT INTO t VALUES (8, 80, 8), (1, 11, 1)", ConstraintViolation),
    ("DELETE FROM t WHERE a = 6", 1),  # keyed
    ("DELETE FROM t WHERE b > 40", 3),  # range
    ("UPDATE t SET c = 0 WHERE a = 99", 0),  # no victim
    ("DELETE FROM t", 3),  # no WHERE
    ("INSERT INTO t (a) VALUES (9)", 1),
)

EXPECTED_ROWS = [(9, None, None)]


def _begin_commit(execute):
    """Each statement inside its own BEGIN .. COMMIT.  A failed statement
    has already rolled the transaction back, so its COMMIT must find
    nothing open."""

    def run(sql):
        execute("BEGIN")
        try:
            result = execute(sql)
        except ReproError:
            with pytest.raises(TransactionError):
                execute("COMMIT")
            raise
        execute("COMMIT")
        return result

    return run


def _run_script(db, run):
    events = []
    db.database.add_observer(events.append)
    outcomes = []
    for sql, expected in SCRIPT:
        if isinstance(expected, int):
            outcomes.append(run(sql))
        else:
            with pytest.raises(expected):
                run(sql)
            outcomes.append(expected)
    db.database.remove_observer(events.append)
    return outcomes, events


def _facade(db, stack):
    return db.execute


def _facade_transaction(db, stack):
    return _begin_commit(db.execute)


def _lone_session(db, stack):
    session = stack.enter_context(db.session())
    assert not session.cc.tracking
    return session.execute


def _watched_session(db, stack):
    session = stack.enter_context(db.session())
    stack.enter_context(db.session())
    assert session.cc.tracking
    return session.execute


def _watched_session_transaction(db, stack):
    session = stack.enter_context(db.session())
    stack.enter_context(db.session())
    return _begin_commit(session.execute)


CONTEXTS = (
    _facade,
    _facade_transaction,
    _lone_session,
    _watched_session,
    _watched_session_transaction,
)


def test_dml_script_is_the_same_in_every_context(tmp_path):
    results = {}
    for context in CONTEXTS:
        path = tmp_path / context.__name__
        db = SoftDB.open(path)
        for sql in SETUP:
            db.execute(sql)
        with ExitStack() as stack:
            outcomes, events = _run_script(db, context(db, stack))
        live = _rows(db)
        db.close(checkpoint=False)  # recovery replays the whole WAL
        recovered = SoftDB.open(path)
        results[context.__name__] = (outcomes, events, live, _rows(recovered))
        recovered.close(checkpoint=False)

    outcomes, events, live, recovered = results["_facade"]
    assert outcomes == [expected for _, expected in SCRIPT]
    assert live == recovered == EXPECTED_ROWS
    # Each failed statement published its prefix and then the
    # compensation: 6 updates undone by 6 updates, 1 insert by 1 delete.
    assert Counter(event.kind for event in events) == {
        "insert": 4 + 3 + 1 + 1,
        "update": 1 + 4 + 6 + 6,
        "delete": 1 + 1 + 3 + 3,
    }
    for name, result in results.items():
        assert result == results["_facade"], f"{name} differs from the facade"
