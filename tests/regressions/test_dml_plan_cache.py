"""Regressions: UPDATE and DELETE find their rows through the plan cache.

``repro.dml.locate`` gets the access path for ``SELECT * FROM t WHERE
<where>`` from the statement context's ``PlanCache``, so a DML WHERE is
lifted, planned once per shape and bound per statement like a SELECT.
Every guard that keeps a cached SELECT right must keep a cached write
right too: the min/max fold, introduced ranges recomputed from the
binding, the catalog epoch, values-channel invalidation after a repair,
and the snapshot a session reads at.  Every locate below is checked, at
the moment it runs, against the heap-scan reference of
``tests/test_dml_locate.py``.
"""

import pytest

import repro.dml
from repro import SoftDB
from repro.discovery.linear_miner import mine_linear_correlations
from repro.expr.compile import cache_stats
from repro.softcon.base import SCState
from repro.workload.schemas import build_correlated_table
from tests.regressions.test_plan_cache_epoch import _table
from tests.test_dml_locate import build, scan_locate


@pytest.fixture
def located(monkeypatch):
    """Each locate's ``(victims, page reads)``; the victims are asserted
    equal to the reference's, read in the same context at the same
    moment."""
    found = []
    real = repro.dml.locate

    def checked(plan_cache, table, where):
        counters = plan_cache.optimizer.database.counters
        before = counters.page_reads
        victims = real(plan_cache, table, where)
        reads = counters.page_reads - before
        assert victims == sorted(scan_locate(plan_cache, table, where))
        found.append((victims, reads))
        return victims

    monkeypatch.setattr(repro.dml, "locate", checked)
    return found


def _ids(victims):
    return sorted(row[0] for _rid, row in victims)


def test_key_updates_share_one_compiled_plan(tmp_path, located):
    db = build(tmp_path, routing=True)
    try:
        cache = db.plan_cache
        hits, misses = cache.hits, cache.misses
        compile_misses = cache_stats()[1]
        for key in range(200):
            assert db.execute(
                f"UPDATE purchase SET amount = 7.5 WHERE id = {key}"
            ) == 1
            if key == 1:
                first_two = cache_stats()[1] - compile_misses
        assert (cache.hits - hits, cache.misses - misses) == (199, 1)
        # Compiled once per shape, not once per literal.
        assert cache_stats()[1] - compile_misses <= first_two
        assert [_ids(victims) for victims, _ in located] == [
            [key] for key in range(200)
        ]
    finally:
        db.close(checkpoint=False)


def test_min_max_fold_is_guarded_for_writes(tmp_path, located):
    db = build(tmp_path, routing=True)
    try:
        cache = db.plan_cache
        hits, misses = cache.hits, cache.misses
        for bound in (5000, 6000):
            sql = f"DELETE FROM purchase WHERE amount > {bound}"
            assert db.execute(sql) == 0
            assert located[-1] == ([], 0)
        assert (cache.hits - hits, cache.misses - misses) == (1, 1)
        # In bounds: the fold's guard fails and the shape is planned again.
        deleted = db.execute("DELETE FROM purchase WHERE amount > 990")
        assert cache.misses - misses == 2
        victims, _ = located[-1]
        assert deleted == len(victims) > 0
        assert db.execute(
            "SELECT COUNT(*) FROM purchase WHERE amount > 990"
        ).scalar() == 0
    finally:
        db.close(checkpoint=False)


def test_introduced_range_follows_a_repaired_correlation(tmp_path, located):
    db = build(tmp_path, routing=False)
    try:
        update = (
            "UPDATE purchase SET customer_id = 7 "
            "WHERE ship_date BETWEEN {} AND {}"
        )
        assert db.execute(update.format(10100, 10102)) > 0
        sc = db.registry.get("sc_purchase_ship_lag")
        epsilon = sc.epsilon
        # 140 days late: outside the band, so the policy widens it.
        db.execute("INSERT INTO purchase VALUES (5000, 1, 10010, 10150, 5.0)")
        assert sc.state is SCState.ACTIVE and sc.epsilon > epsilon
        assert db.execute(update.format(10149, 10151)) > 0
        assert 5000 in _ids(located[-1][0])
    finally:
        db.close(checkpoint=False)


def test_a_cached_write_shape_replans_after_ddl(located):
    db = _table(SoftDB())
    assert db.execute("UPDATE t SET id = id WHERE v = 700") == 1
    assert db.execute("UPDATE t SET id = id WHERE v = 701") == 1
    scan_reads = located[-1][1]
    assert db.plan_cache.hits == 1
    db.execute("CREATE INDEX t_v ON t (v)")
    assert db.execute("UPDATE t SET id = id WHERE v = 702") == 1
    assert located[-1][1] < scan_reads
    # The cached plan reads t_v, which the new t does not have.
    db.execute("DROP TABLE t")
    db.execute("CREATE TABLE t (id INT, v INT)")
    db.database.insert_many("t", [(n, n) for n in range(1800)])
    assert db.execute("UPDATE t SET id = id WHERE v = 703") == 1
    assert [_ids(victims) for victims, _ in located] == [
        [700], [701], [702], [703]
    ]


def test_a_cached_shape_locates_at_the_session_snapshot(located):
    db = _table(SoftDB(), index=True)
    with db.session() as session, db.session() as other:
        assert session.cc.tracking
        session.execute("BEGIN")
        assert session.execute("UPDATE t SET id = id WHERE v = 1") == 1
        other.execute("INSERT INTO t VALUES (5000, 700)")
        hits = session.plan_cache.hits
        assert session.execute("UPDATE t SET id = -id WHERE v = 700") == 1
        assert session.plan_cache.hits == hits + 1
        assert _ids(located[-1][0]) == [700]
        session.execute("COMMIT")
    assert db.execute("SELECT id FROM t WHERE v = 700 ORDER BY id").column(
        "id"
    ) == [-700, 5000]


def test_dml_credits_probation_constraints_on_hit_and_miss():
    db = build_correlated_table(rows=3000, noise=4.0, seed=56)
    (asc,) = mine_linear_correlations(
        db.database, "meas", [("a", "b")], confidence_levels=(1.0,)
    )
    db.registry.register(asc)
    db.registry.hold_in_probation(asc.name)
    hits, misses = db.plan_cache.hits, db.plan_cache.misses
    db.execute("UPDATE meas SET id = id WHERE b = 500.0")
    assert db.registry.probation_uses.get(asc.name) == 1
    db.execute("DELETE FROM meas WHERE b = 250.5")
    assert db.registry.probation_uses.get(asc.name) == 2
    assert (db.plan_cache.hits - hits, db.plan_cache.misses - misses) == (1, 1)
    # An unhelpful WHERE credits nothing.
    db.execute("DELETE FROM meas WHERE a > 2900.0")
    assert db.registry.probation_uses.get(asc.name) == 2
