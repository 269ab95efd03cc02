"""Checkpoint images encode only what changed, and stay byte-identical.

A checkpoint writes its pages and indexes from a per-manager memo of
row, key and row-id texts (:class:`repro.durability.codec.TextMemo`).
The file must still be exactly ``canonical_dumps`` of the structural
payload built with :func:`~repro.durability.codec.encode_page` and
:func:`~repro.durability.codec.encode_index`, after every kind of change
a memo could get wrong: rows replaced in place or moved to another page,
deleted rows, a rolled-back transaction, a dropped table, a rebuilt and
a quarantined index.  The memo stays bounded by the image it serves.
"""

import json
import random

from repro.api import SoftDB
from repro.durability import codec
from repro.replication import Replica, WalShipper


def structural_body(db, body: bytes) -> str:
    """``canonical_dumps`` of the image in ``body`` with its pages and
    indexes re-encoded structurally from ``db``'s live catalog."""
    payload = json.loads(body.decode("utf-8"))
    catalog = db.database.catalog
    tables = list(catalog.tables.values())
    assert [entry["schema"]["name"] for entry in payload["tables"]] == [
        table.name for table in tables
    ]
    for entry, table in zip(payload["tables"], tables):
        entry["pages"] = [
            codec.encode_page(page) for page in table.pages.pages
        ]
    payload["indexes"] = [
        codec.encode_index(index) for index in catalog.indexes.values()
    ]
    return codec.canonical_dumps(payload)


def image_body(path) -> bytes:
    raw = (path / "checkpoint.img").read_bytes()
    return raw[9:]


def memo_bound(db) -> int:
    """Twice the live rows, index keys and index row ids."""
    catalog = db.database.catalog
    rows = sum(table.row_count for table in catalog.tables.values())
    entries = sum(len(index._keys) for index in catalog.indexes.values())
    return 2 * (rows + 2 * entries)


def assert_image_exact(db, path) -> None:
    body = image_body(path)
    assert body.decode("utf-8") == structural_body(db, body)
    assert len(db.durability.memo) <= memo_bound(db)


def open_database(path) -> SoftDB:
    db = SoftDB.open(path)
    # ``amount`` holds integral doubles equal to ints elsewhere: an
    # image that keyed texts by value, not identity, would write 3 as
    # 3.0 or true as 1.
    db.execute(
        "CREATE TABLE item (id INT PRIMARY KEY, qty INT, amount DOUBLE, "
        "flag BOOLEAN, note VARCHAR(200))"
    )
    db.execute("CREATE INDEX ix_item_qty ON item (qty)")
    db.execute("CREATE INDEX ix_item_amount ON item (amount)")
    db.execute("CREATE TABLE side (k INT PRIMARY KEY, v DOUBLE)")
    return db


def steps(rng: random.Random):
    """Seeded DML, one statement list per checkpointed step."""
    next_id = 0

    def row():
        nonlocal next_id
        next_id += 1
        value = rng.randrange(5)
        return (
            f"({next_id}, {value}, {float(value)}, "
            f"{'TRUE' if value % 2 else 'FALSE'}, 'n{rng.randrange(99)}')"
        )

    yield ["INSERT INTO item VALUES " + ", ".join(row() for _ in range(300))]
    yield [
        "INSERT INTO side VALUES "
        + ", ".join(f"({k}, {k / 2})" for k in range(60))
    ]
    for _ in range(6):
        block = []
        for _ in range(25):
            kind = rng.randrange(4)
            key = rng.randrange(1, next_id + 1)
            if kind == 0:
                block.append(f"INSERT INTO item VALUES {row()}")
            elif kind == 1:
                block.append(
                    f"UPDATE item SET qty = {rng.randrange(5)}, "
                    f"amount = {float(rng.randrange(5))} WHERE id = {key}"
                )
            elif kind == 2:
                # Grows the row past its slot: it moves to another page.
                block.append(
                    f"UPDATE item SET note = '{'x' * rng.randrange(50, 190)}'"
                    f" WHERE id = {key}"
                )
            else:
                block.append(f"DELETE FROM item WHERE id = {key}")
        yield block
    yield [
        "BEGIN",
        f"INSERT INTO item VALUES {row()}",
        "UPDATE item SET qty = 9, amount = 9.0 WHERE id < 40",
        "DELETE FROM item WHERE id > 250",
        "ROLLBACK",
    ]


def test_every_checkpoint_is_the_structural_payload(tmp_path):
    db = open_database(tmp_path)
    for block in steps(random.Random(11)):
        for sql in block:
            db.execute(sql)
        db.checkpoint()
        assert_image_exact(db, tmp_path)

    db.database.rebuild_index("ix_item_qty")
    db.checkpoint()
    assert_image_exact(db, tmp_path)

    db.database.catalog.index("ix_item_amount").quarantined = True
    db.checkpoint()
    assert_image_exact(db, tmp_path)

    side = db.database.table("side")
    dropped = [row for _, row in side.scan()]
    dropped += [rid for rid, _ in side.scan()]
    for index in db.database.catalog.indexes_on("side"):
        dropped += index._keys + index._rids
    assert dropped
    db.execute("DROP TABLE side")
    db.checkpoint()
    assert_image_exact(db, tmp_path)
    # ``dropped`` keeps those objects alive, so their ids are exact.
    memo = db.durability.memo
    assert not any(id(obj) in memo._text for obj in dropped)

    sql = "SELECT id, qty, amount, flag, note FROM item"
    expected = sorted(db.execute(sql).tuples())
    db.close(checkpoint=False)
    recovered = SoftDB.open(tmp_path)
    assert recovered.durability.last_recovery["replayed"] == 0
    assert sorted(recovered.execute(sql).tuples()) == expected


def test_memo_is_trimmed_once_it_doubles_the_image(tmp_path):
    db = open_database(tmp_path)
    db.execute(
        "INSERT INTO item VALUES "
        + ", ".join(f"({n}, {n % 5}, 1.5, TRUE, 'a')" for n in range(200))
    )
    db.checkpoint()
    memo = db.durability.memo
    # 200 rows, 3 x 200 keys and the row ids the three indexes hold.
    assert 200 + 3 * 200 < len(memo) <= 200 + 3 * 2 * 200
    # Every row and key is replaced, so the memo outgrows twice the image
    # within a few checkpoints and is rebuilt from what it serves.
    sizes = []
    for round_no in range(4):
        db.execute(f"UPDATE item SET qty = qty + 1, amount = {round_no}.25")
        db.checkpoint()
        assert_image_exact(db, tmp_path)
        sizes.append(len(memo))
    assert max(sizes) <= memo_bound(db)
    assert min(sizes) < max(sizes)


def test_a_resync_image_is_the_structural_payload(tmp_path):
    db = open_database(tmp_path / "primary")
    blocks = list(steps(random.Random(5)))
    for sql in blocks[0] + blocks[1]:
        db.execute(sql)
    db.checkpoint()
    replica = Replica(tmp_path / "replica")
    shipper = WalShipper(db)
    try:
        link = shipper.attach(replica)
        assert_image_exact(db, tmp_path / "replica")
        for block in blocks[2:5]:
            for sql in block:
                db.execute(sql)
            shipper.full_resync(link)
            assert_image_exact(db, tmp_path / "replica")
        # The resync rebased the image onto the replica's empty log.
        payload = json.loads(image_body(tmp_path / "replica"))
        assert payload["wal_offset"] == 0
        assert payload["session"]["replication_base"] == (
            db.durability.wal.offset()
        )
    finally:
        replica.close()
        db.close(checkpoint=False)
