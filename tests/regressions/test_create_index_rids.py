"""Regression: an index created on a loaded table shares its RowIds.

``CREATE INDEX`` bulk-loads from a table scan, which makes a new
``RowId`` per row.  The new index used to keep those, so a loaded table
held a second ``RowId`` object per row (and the checkpoint writer's
memo a second entry per row) beside the primary key index's.  The
bulk load now reuses the objects the table's existing indexes hold.
"""

from repro.api import SoftDB


def test_create_index_reuses_the_primary_key_index_rids():
    db = SoftDB()
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, b INT)")
    db.database.insert_many("t", [(i, i % 7) for i in range(100)])
    db.execute("CREATE INDEX ix_b ON t (b)")
    catalog = db.database.catalog
    primary, created = catalog.indexes_on("t")
    assert created.name == "ix_b"
    by_rid = {rid: rid for rid in primary.entry_rids}
    assert len(created.entry_rids) == 100
    assert all(by_rid[rid] is rid for rid in created.entry_rids)

