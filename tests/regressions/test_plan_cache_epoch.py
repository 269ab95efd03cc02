"""Regressions: a cached plan is planned again when the catalog moves.

The plan cache used to learn about nothing but soft-constraint overturns.
A SELECT cached before ``CREATE INDEX`` kept scanning the table; one
cached over an index kept naming it after ``DROP TABLE`` and a re-create
without it, and failed with ``UnknownObjectError``; a soft constraint
registered after the SELECT was cached never reached it.  Every such
change now moves the catalog epoch, and a cached plan from an older epoch
is planned again.  Ordinary DML does not move it.
"""

from repro import SoftDB
from repro.softcon.minmax import MinMaxSC

SQL = "SELECT id FROM t WHERE v = 700"
OUT_OF_RANGE = "SELECT id FROM t WHERE v > 5000"


def _table(db, index=False):
    db.execute("CREATE TABLE t (id INT, v INT)")
    db.database.insert_many("t", [(n, n) for n in range(1800)])
    if index:
        db.execute("CREATE INDEX t_v ON t (v)")
    db.runstats_all()
    return db


def test_create_index_reaches_a_cached_select():
    db = _table(SoftDB())
    assert db.execute(SQL).page_reads == 7
    db.execute("CREATE INDEX t_v ON t (v)")
    assert db.execute(SQL).page_reads == 3


def test_a_dropped_index_is_not_scanned_by_a_cached_plan():
    db = _table(SoftDB(), index=True)
    assert db.execute(SQL).page_reads == 3
    db.execute("DROP TABLE t")
    db.execute("CREATE TABLE t (id INT, v INT)")
    db.database.insert_many("t", [(n, n) for n in range(1800)])
    assert [row["id"] for row in db.execute(SQL).rows] == [700]


def test_a_soft_constraint_registered_later_rewrites_a_cached_select():
    db = _table(SoftDB())
    assert db.execute(OUT_OF_RANGE).page_reads == 7
    db.add_soft_constraint(MinMaxSC("v_range", "t", "v", 0, 1799))
    result = db.execute(OUT_OF_RANGE)
    assert result.row_count == 0 and result.page_reads == 0
    assert db.plan_cache.get_plan(OUT_OF_RANGE).rewrites_applied


def test_runstats_forces_a_replan():
    db = _table(SoftDB())
    db.execute(SQL)
    db.execute(SQL)
    assert (db.plan_cache.hits, db.plan_cache.misses) == (1, 1)
    db.runstats("t")
    db.execute(SQL)
    assert db.plan_cache.misses == 2


def test_a_sessions_cache_sees_ddl_and_soft_constraints():
    db = _table(SoftDB())
    with db.session() as session:
        assert session.execute(SQL).page_reads == 7
        assert session.execute(OUT_OF_RANGE).page_reads == 7
        db.execute("CREATE INDEX t_v ON t (v)")
        db.add_soft_constraint(MinMaxSC("v_range", "t", "v", 0, 1799))
        assert session.execute(SQL).page_reads == 3
        assert session.execute(OUT_OF_RANGE).page_reads == 0
        assert session.plan_cache.misses == 4


def test_dml_keeps_cached_plans(monkeypatch):
    db = _table(SoftDB(), index=True)
    served = []
    lookup = db.plan_cache.get_plan

    def recording(*args):
        served.append(lookup(*args))
        return served[-1]

    monkeypatch.setattr(db.plan_cache, "get_plan", recording)
    db.execute(SQL)
    db.execute("INSERT INTO t VALUES (5000, 700)")
    db.execute("UPDATE t SET v = 701 WHERE id = 3")
    db.execute("DELETE FROM t WHERE id = 4")
    assert sorted(row["id"] for row in db.execute(SQL).rows) == [700, 5000]
    # The SELECT and the two same-shape DML locates: one miss and one
    # hit each, and the SELECT kept its plan through the writes.
    assert (db.plan_cache.hits, db.plan_cache.misses) == (2, 2)
    assert len(served) == 4 and served[-1] is served[0]
