"""The exact-count golden: what a short durable write stream costs in the
engine's own currencies.

The stream has the shape of the ``write_maintain`` benchmark, scaled
down: one orders-like table with a primary key and an ``order_date``
index, a ``LinearCorrelationSC`` and a ``MinMaxSC`` under
``RepairPolicy``, a summary (exception) table, and a mix of single-row
INSERTs (some outside both SC bands, so the policies fire), UPDATEs and
DELETEs by key, ``BEGIN``/INSERT/UPDATE/``COMMIT`` blocks (10 % of the
operations), indexed SELECTs and a closing multi-row purge per block.
A replica is attached and pumped every few commits.

The record holds the WAL bytes and flushes, the page reads and writes,
the SC violations and repairs, and the bytes shipped to the replica,
with the per-statement and per-commit ratios the benchmark reports.
``tests/goldens/test_count_golden.py`` holds the engine to the literal
record in ``count_records.py``.  Regenerate it with::

    PYTHONPATH=src python -m tests.goldens.count_golden

A change that moves the record says which count moved and why.
"""

from __future__ import annotations

import random
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Tuple

from repro import SoftDB
from repro.replication import Replica, WalShipper
from repro.softcon.linear import LinearCorrelationSC
from repro.softcon.maintenance import RepairPolicy
from repro.softcon.minmax import MinMaxSC

RECORDS_PATH = Path(__file__).with_name("count_records.py")

SEED = 5
ROWS = 300
OPERATIONS = 100
BLOCKS = 2
DAY0 = 10_000
DATE_DAYS = 365
LAG_MAX = 30
AMOUNT_LOW, AMOUNT_HIGH = 1.0, 10_000.0
PUMP_EVERY = 20

#: (SQL, kind); kinds "begin" and "select" end no WAL transaction.
Statement = Tuple[str, str]


def _row(rng: random.Random, key: int) -> List[Any]:
    day = DAY0 + rng.randrange(DATE_DAYS)
    return [
        key,
        rng.randrange(100),
        day,
        day + rng.randrange(LAG_MAX + 1),
        round(rng.uniform(AMOUNT_LOW, AMOUNT_HIGH), 2),
    ]


def initial_rows() -> List[List[Any]]:
    rng = random.Random("count-golden:load")
    rows = [_row(rng, key) for key in range(ROWS)]
    rows.sort(key=lambda row: row[2])
    return rows


def stream() -> List[Statement]:
    """``BLOCKS`` blocks of ``OPERATIONS`` operations, each block closed
    by a purge of its surviving inserts."""
    rng = random.Random(f"count-golden:{SEED}")
    next_key = ROWS
    outliers = 0
    statements: List[Statement] = []

    def insert(outlier: bool) -> Statement:
        nonlocal next_key, outliers
        row = _row(rng, next_key)
        next_key += 1
        if outlier:
            outliers += 1
            row[3] = row[2] + LAG_MAX + outliers
            row[4] = AMOUNT_HIGH + outliers
        values = ", ".join(str(value) for value in row)
        return f"INSERT INTO purchase VALUES ({values})", "insert"

    def update() -> Statement:
        key = rng.randrange(ROWS)
        if rng.random() < 0.5:
            assignment = f"amount = {round(rng.uniform(AMOUNT_LOW, AMOUNT_HIGH), 2)}"
        else:
            day = DAY0 + rng.randrange(DATE_DAYS)
            assignment = (
                f"order_date = {day}, ship_date = {day + rng.randrange(LAG_MAX + 1)}"
            )
        return f"UPDATE purchase SET {assignment} WHERE id = {key}", "update"

    for _ in range(BLOCKS):
        n = OPERATIONS
        operations = (
            ["outlier"] * 2 + ["insert"] * (n * 45 // 100 - 2)
            + ["update"] * (n * 25 // 100) + ["delete"] * (n * 10 // 100)
            + ["txn"] * (n * 10 // 100) + ["select"] * (n * 10 // 100)
        )
        rng.shuffle(operations)
        first_key = next_key
        live: List[int] = []
        for operation in operations:
            if operation == "delete" and live:
                key = live.pop(rng.randrange(len(live)))
                statements.append(
                    (f"DELETE FROM purchase WHERE id = {key}", "delete")
                )
            elif operation in ("insert", "outlier", "delete"):
                live.append(next_key)
                statements.append(insert(operation == "outlier"))
            elif operation == "update":
                statements.append(update())
            elif operation == "txn":
                live.append(next_key)
                statements.append(("BEGIN", "begin"))
                statements.append(insert(False))
                statements.append(update())
                statements.append(("COMMIT", "commit"))
            else:
                day = DAY0 + rng.randrange(DATE_DAYS - 2)
                statements.append(
                    (
                        "SELECT id, amount FROM purchase "
                        f"WHERE order_date BETWEEN {day} AND {day + 2}",
                        "select",
                    )
                )
        statements.append(
            (f"DELETE FROM purchase WHERE id >= {first_key}", "purge")
        )
    return statements


def build(path: Path) -> SoftDB:
    db = SoftDB.open(path)
    db.execute(
        "CREATE TABLE purchase (id INT PRIMARY KEY, customer_id INT NOT NULL, "
        "order_date DATE, ship_date DATE, amount DOUBLE)"
    )
    db.database.insert_many("purchase", initial_rows())
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
        MinMaxSC("sc_purchase_amount", "purchase", "amount",
                 AMOUNT_LOW, AMOUNT_HIGH),
        policy=RepairPolicy(), verify_first=True,
    )
    db.execute(
        "CREATE SUMMARY TABLE late_purchases AS (SELECT * FROM purchase "
        f"WHERE ship_date > order_date + {LAG_MAX})"
    )
    return db


def _counters(db: SoftDB) -> Dict[str, int]:
    io = db.database.counters
    return {
        "wal_bytes": db.durability.wal.offset(),
        "wal_flushes": db.durability.wal.flushes,
        "page_reads": io.page_reads,
        "page_writes": io.page_writes,
        "violations": db.registry.violations_seen,
        "repairs": db.registry.repairs_performed,
    }


def record() -> Dict[str, Any]:
    statements = stream()
    with tempfile.TemporaryDirectory() as root:
        db = build(Path(root) / "primary")
        replica = Replica(Path(root) / "replica")
        try:
            shipper = WalShipper(db)
            shipper.attach(replica)
            shipper.pump_until_synced()
            shipped_before = shipper.bytes_shipped
            before = _counters(db)
            commits = since_pump = 0
            in_transaction = False
            for sql, kind in statements:
                db.execute(sql)
                in_transaction = (in_transaction or kind == "begin") and (
                    kind != "commit"
                )
                if kind != "select" and not in_transaction:
                    commits += 1
                    since_pump += 1
                if since_pump >= PUMP_EVERY:
                    since_pump = 0
                    shipper.pump()
            after = _counters(db)
            assert shipper.pump_until_synced()
            shipped = shipper.bytes_shipped - shipped_before
        finally:
            replica.close()
            db.close(checkpoint=False)
    counts = {name: after[name] - before[name] for name in before}
    count = len(statements)
    return {
        "statements": count,
        "commits": commits,
        **counts,
        "shipped_bytes": shipped,
        "wal_bytes_per_stmt": round(counts["wal_bytes"] / count, 4),
        "page_reads_per_stmt": round(counts["page_reads"] / count, 4),
        "page_writes_per_stmt": round(counts["page_writes"] / count, 4),
        "flushes_per_commit": round(counts["wal_flushes"] / commits, 4),
        "shipped_bytes_per_commit": round(shipped / commits, 4),
    }


def _format(counts: Dict[str, Any]) -> str:
    lines = [
        '"""Literal exact-count golden record; regenerate with',
        "``PYTHONPATH=src python -m tests.goldens.count_golden``.",
        '"""',
        "",
        "RECORD = {",
    ]
    lines.extend(f"    {name!r}: {value!r}," for name, value in counts.items())
    lines.append("}")
    return "\n".join(lines) + "\n"


def main() -> None:
    RECORDS_PATH.write_text(_format(record()))
    print(f"wrote {RECORDS_PATH}")


if __name__ == "__main__":
    main()
