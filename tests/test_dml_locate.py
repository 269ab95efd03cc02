"""Indexed DML ≡ scan DML.

``repro.dml.locate`` plans a DML WHERE as ``SELECT * FROM t WHERE ...``
and reads the victims from the access path the optimizer chose.  The heap
scan it replaced is kept below as the reference: every statement here
runs once through each, from identical databases, in each of the five
contexts of ``tests/test_statement_path.py``, and must leave the same
affected count (or error), the same change events, the same WAL bytes and
the same final heap, index and soft-constraint images.  Key lookups must
read strictly fewer pages, and a WHERE outside a ``MinMaxSC``'s bounds
none at all.

The table is shaped like the ``write_maintain`` benchmark's: a primary
key, an ``order_date`` index, a ``LinearCorrelationSC`` and a ``MinMaxSC``
under ``RepairPolicy`` and a summary (exception) table.
"""

import random
from contextlib import ExitStack

import pytest

import repro.dml
from repro import OptimizerConfig, SoftDB
from repro.errors import ExpressionError
from repro.expr.eval import compile_predicate
from repro.softcon.linear import LinearCorrelationSC
from repro.softcon.maintenance import RepairPolicy
from repro.softcon.minmax import MinMaxSC
from tests.crash.test_crash_differential import fingerprint
from tests.test_statement_path import CONTEXTS

DAY0 = 10_000
LAG_MAX = 30


def scan_locate(plan_cache, table, where):
    """The reference: every row the thread's snapshot sees, one predicate
    call each, in heap order."""
    concurrency = plan_cache.optimizer.database.concurrency
    snapshot = concurrency.current_snapshot()
    if snapshot is None:
        source = table.scan()
    else:
        source = concurrency.visible_scan(table, snapshot)
    if where is None:
        return list(source)
    predicate = compile_predicate(where)
    names = table.schema.column_names()
    return [
        (rid, row)
        for rid, row in source
        if predicate(dict(zip(names, row))) is True
    ]


def _rows():
    rng = random.Random(24)
    rows = []
    for key in range(600):
        day = DAY0 + rng.randrange(200)
        rows.append(
            (key, rng.randrange(40), day, day + rng.randrange(LAG_MAX + 1),
             round(rng.uniform(1.0, 1000.0), 2))
        )
    # Clustered on order_date, newest first: an order_date index range
    # reads the heap backwards, so victims arrive out of rid order.
    rows.sort(key=lambda row: row[2], reverse=True)
    # NULL dates and amounts: no index entry, UNKNOWN under every compare.
    rows += [
        (1000 + n, 1, None if n % 2 else DAY0 + 50, None,
         None if n % 3 else 5.0)
        for n in range(6)
    ]
    return rows


def build(path, routing):
    db = SoftDB.open(
        path,
        OptimizerConfig(disabled_rules=() if routing else {"ast_routing"}),
    )
    db.execute(
        "CREATE TABLE purchase (id INT PRIMARY KEY, customer_id INT NOT NULL, "
        "order_date DATE, ship_date DATE, amount DOUBLE)"
    )
    db.database.insert_many("purchase", _rows())
    db.execute("CREATE INDEX idx_purchase_odate ON purchase (order_date)")
    db.runstats("purchase")
    db.add_soft_constraint(
        LinearCorrelationSC(
            "sc_purchase_ship_lag", "purchase",
            column_a="order_date", column_b="ship_date", slope=1.0,
            intercept=-LAG_MAX / 2, epsilon=LAG_MAX / 2,
        ),
        policy=RepairPolicy(), verify_first=True,
    )
    db.add_soft_constraint(
        MinMaxSC("sc_purchase_amount", "purchase", "amount", 1.0, 1000.0),
        policy=RepairPolicy(), verify_first=True,
    )
    db.execute(
        "CREATE SUMMARY TABLE late_purchases AS (SELECT * FROM purchase "
        f"WHERE ship_date > order_date + {LAG_MAX})"
    )
    return db


#: (statement, the leaf locate reads — with AST routing on, off — and
#: the error it must raise, if any).  A key-equality statement must read
#: fewer pages than the scan, an empty result none.
SCRIPT = (
    # Primary-key equality.
    ("UPDATE purchase SET amount = 7.5 WHERE id = 17", "IndexScan", None),
    ("DELETE FROM purchase WHERE id = 23", "IndexScan", None),
    # A secondary-index range.
    (
        "UPDATE purchase SET customer_id = customer_id + 1 "
        "WHERE order_date BETWEEN 10040 AND 10044",
        "IndexScan", None,
    ),
    # A ship_date range: routed through the exception table (a UNION ALL,
    # read as a seq scan) or, with routing off, turned into an order_date
    # range by predicate introduction from the linear correlation.
    (
        "DELETE FROM purchase WHERE ship_date BETWEEN 10120 AND 10122",
        ("SeqScan", "IndexScan"), None,
    ),
    # Outside the MinMaxSC's bounds: folded to an empty result.
    (
        "UPDATE purchase SET amount = 1.0 WHERE amount > 5000",
        "EmptyResult", None,
    ),
    # Unindexed.
    ("DELETE FROM purchase WHERE customer_id = 3", "SeqScan", None),
    # NULLs: an IS NULL scan, and an index range the NULL keys stay out of.
    (
        "UPDATE purchase SET amount = 2.5 WHERE order_date IS NULL",
        "SeqScan", None,
    ),
    ("DELETE FROM purchase WHERE order_date < 10003", "IndexScan", None),
    (
        "UPDATE purchase SET amount = amount + 1 WHERE id >= 1000",
        "IndexScan", None,
    ),
    # A WHERE that raises on the row the key finds.
    (
        "UPDATE purchase SET amount = 3.0 "
        "WHERE id = 31 AND 1 / (customer_id - customer_id) > 0",
        "IndexScan", ExpressionError,
    ),
    # Halloween: the update moves rows forward through the range it reads.
    (
        "UPDATE purchase SET order_date = order_date + 1 "
        "WHERE order_date BETWEEN 10060 AND 10075",
        "IndexScan", None,
    ),
    ("DELETE FROM purchase WHERE id = 9999", "IndexScan", None),
    ("DELETE FROM purchase WHERE order_date > 10190", "IndexScan", None),
)


def _run(db, execute, leaves):
    """Each statement's (outcome, events, WAL bytes, page reads, leaf)."""
    events = []
    db.database.add_observer(events.append)
    wal = db.durability.wal
    counters = db.database.counters
    observed = []
    for sql, _leaf, error in SCRIPT:
        del events[:], leaves[:]
        wal_before, reads_before = wal.offset(), counters.page_reads
        if error is None:
            outcome = execute(sql)
        else:
            with pytest.raises(error):
                execute(sql)
            outcome = error.__name__
        observed.append(
            (
                outcome,
                list(events),
                wal.offset() - wal_before,
                counters.page_reads - reads_before,
                leaves[0] if leaves else "EmptyResult",
            )
        )
    db.database.remove_observer(events.append)
    return observed


def _side(tmp_path, monkeypatch, context, routing, indexed):
    leaves = []
    with monkeypatch.context() as patch:
        if indexed:
            original = repro.dml.scan_rids

            def spy(database, node):
                leaves.append(type(node).__name__)
                return original(database, node)

            patch.setattr(repro.dml, "scan_rids", spy)
        else:
            patch.setattr(repro.dml, "locate", scan_locate)
        db = build(tmp_path / ("indexed" if indexed else "scan"), routing)
        try:
            with ExitStack() as stack:
                observed = _run(db, context(db, stack), leaves)
            return observed, fingerprint(db)
        finally:
            db.close(checkpoint=False)


@pytest.mark.parametrize(
    "routing", [True, False], ids=["routing", "no-routing"]
)
@pytest.mark.parametrize("context", CONTEXTS, ids=lambda c: c.__name__[1:])
def test_indexed_dml_matches_scan_dml(tmp_path, monkeypatch, context, routing):
    def side(indexed):
        return _side(tmp_path, monkeypatch, context, routing, indexed)

    (indexed, indexed_image), (scan, scan_image) = side(True), side(False)
    for (sql, leaf, error), got, want in zip(SCRIPT, indexed, scan):
        assert got[:3] == want[:3], sql
        if isinstance(leaf, tuple):
            leaf = leaf[0] if routing else leaf[1]
        assert got[4] == leaf, sql
        if leaf == "EmptyResult":
            assert got[3] == 0, sql
        elif " WHERE id = " in sql and error is None:
            assert got[3] < want[3], sql
    assert indexed_image == scan_image
    # The script is not vacuous: most statements find victims.
    assert sum(1 for outcome, *_ in scan if outcome) >= 9
