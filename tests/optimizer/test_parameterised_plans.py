"""Differential: a plan cached for one binding and reused for another
answers exactly as planning the statement fresh.

The facade plans each SELECT once per shape (literals lifted into slots,
bound at execution; Section 4.2's runtime parameters).  Ten point-query
templates over the TPC-style warehouse — the same shapes as the
benchmark's ``template_point`` workload — are run with hypothesis-drawn
literals: each soft constraint's exact min and max, values just past
them, both sides of each min/max fold, and int versus float slots.  Every
statement runs twice through the cache, the second time with its numeric
literals perturbed, and each time its rows (order-insensitive checksum)
and ``rewrites_applied`` must equal those of the statement planned fresh.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import SoftDB
from repro.discovery.hole_miner import mine_join_holes
from repro.discovery.linear_miner import mine_join_linear_correlation
from repro.harness.classify import result_checksum
from repro.optimizer.physical import IndexScan
from repro.optimizer.planner import PlanCache
from repro.sql import ast
from repro.sql.lifting import lift
from repro.sql.parser import parse_statement
from repro.sql.printer import sql_of
from repro.workload.queries import monthly_union_sql
from repro.workload.schemas import (
    YEAR_START,
    build_join_hole_scenario,
    build_join_linear_scenario,
    build_monthly_union_scenario,
    build_purchase_scenario,
)
from repro.workload.tpc import (
    DATE_DAYS,
    PRICE_HIGH,
    PRICE_LOW,
    QUANTITY_HIGH,
    QUANTITY_LOW,
    TOTAL_HIGH,
    TOTAL_LOW,
    TpcScale,
    build_tpc_db,
)

pytestmark = pytest.mark.differential

SCALE_FACTOR = 0.25
SCALE = TpcScale.of(SCALE_FACTOR)


def _number(value, as_float):
    return float(value) if as_float else int(value)


def _around(low, high, exact):
    """Values inside, at, and just past ``[low, high]``."""
    return st.one_of(
        st.sampled_from(exact),
        st.floats(low, high, allow_nan=False).map(lambda v: round(v, 2)),
    )


KEY = st.integers(-3, SCALE.orders + 3)
DAY = st.integers(YEAR_START - 20, YEAR_START + DATE_DAYS + 20)
TOTAL = _around(
    TOTAL_LOW - 10.0,
    TOTAL_HIGH + 10.0,
    [TOTAL_LOW, TOTAL_HIGH, TOTAL_LOW - 0.01, TOTAL_HIGH + 0.01, 0, 10000],
)
QUANTITY = _around(
    QUANTITY_LOW - 3,
    QUANTITY_HIGH + 3,
    [QUANTITY_LOW, QUANTITY_HIGH, QUANTITY_HIGH + 1, QUANTITY_LOW - 1, 49.5],
)
PRICE = _around(PRICE_LOW - 2.0, PRICE_HIGH + 2.0, [PRICE_LOW, PRICE_HIGH])
FLOAT_SLOT = st.booleans()

#: name -> (SQL for a tuple of literals, strategy drawing one tuple).
TEMPLATES = {
    "order_by_key": (
        lambda k, f: "SELECT id, customer_id, total FROM orders "
        f"WHERE id = {_number(k, f)}",
        st.tuples(KEY, FLOAT_SLOT),
    ),
    "lineitem_by_key": (
        lambda k, f: "SELECT id, price, quantity FROM lineitem "
        f"WHERE id = {_number(k, f)}",
        st.tuples(st.integers(-3, SCALE.lineitems + 3), FLOAT_SLOT),
    ),
    "order_date_range": (
        lambda d, w: "SELECT id, total FROM orders "
        f"WHERE order_date BETWEEN {d} AND {d + w}",
        st.tuples(DAY, st.integers(-2, 4)),
    ),
    "ship_date_equality": (
        lambda d, f: "SELECT id, customer_id, total FROM orders "
        f"WHERE ship_date = {_number(d, f)}",
        st.tuples(DAY, FLOAT_SLOT),
    ),
    "ship_date_range": (
        lambda d, w, t: "SELECT id, total FROM orders "
        f"WHERE ship_date BETWEEN {d} AND {d + w} AND total > {t}",
        st.tuples(DAY, st.integers(-1, 5), TOTAL),
    ),
    "total_out_of_bounds": (
        lambda t: f"SELECT id, total FROM orders WHERE total > {t}",
        st.tuples(TOTAL),
    ),
    "quantity_out_of_bounds": (
        lambda q: f"SELECT id FROM lineitem WHERE quantity > {q}",
        st.tuples(QUANTITY),
    ),
    "price_band": (
        lambda p, w: "SELECT id, price FROM lineitem "
        f"WHERE price BETWEEN {p} AND {round(p + w, 2)}",
        st.tuples(PRICE, st.sampled_from([0.0, 0.5, 1.5, 40.0, -1.0])),
    ),
    "order_with_customer": (
        lambda k, f: "SELECT o.id, c.name FROM orders o, customer c "
        f"WHERE o.customer_id = c.id AND o.id = {_number(k, f)}",
        st.tuples(KEY, FLOAT_SLOT),
    ),
    "customer_aggregate": (
        lambda c, f: "SELECT COUNT(*), SUM(total) FROM orders "
        f"WHERE customer_id = {_number(c, f)}",
        st.tuples(st.integers(-2, SCALE.customers + 2), FLOAT_SLOT),
    ),
}


@pytest.fixture(scope="module")
def warehouse():
    return build_tpc_db(scale_factor=SCALE_FACTOR)


def _index_keys(plan):
    stack = [plan.root]
    while stack:
        node = stack.pop()
        if isinstance(node, IndexScan):
            yield from node.low or ()
            yield from node.high or ()
        stack.extend(node.children())


def assert_cached_equals_fresh(db, sql, bound_keys=True):
    result = db.execute(sql)
    cached = db.plan_cache.get_plan(sql)
    fresh = db.optimizer.optimize(sql)
    expected = db.executor.execute(fresh)
    assert result_checksum(result.tuples()) == result_checksum(
        expected.tuples()
    ), sql
    assert cached.rewrites_applied == fresh.rewrites_applied, sql
    # A bound copied out of a slot would scan the first binding's range
    # (unless a rewrite pinned the slot; see the last test).
    for part in _index_keys(cached) if bound_keys else ():
        assert isinstance(part, ast.RuntimeParameter), (sql, part)


@pytest.mark.parametrize("name", sorted(TEMPLATES))
def test_cached_and_bound_equals_planned_fresh(warehouse, name):
    render, literals = TEMPLATES[name]

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(first=literals, second=literals)
    def run(first, second):
        assert_cached_equals_fresh(warehouse, render(*first))
        assert_cached_equals_fresh(warehouse, render(*second))

    run()


def _run(db, cache, sql):
    return db.executor.execute(cache.get_plan(sql))


def test_each_shape_is_planned_once(warehouse):
    cache = PlanCache(warehouse.optimizer)
    for offset in range(5):
        _run(warehouse, cache, f"SELECT id FROM orders WHERE id = {offset}")
        _run(
            warehouse,
            cache,
            "SELECT id, total FROM orders WHERE ship_date BETWEEN "
            f"{YEAR_START + 50 + offset} AND {YEAR_START + 53 + offset} "
            "AND total > 500.5",
        )
        _run(
            warehouse,
            cache,
            f"SELECT id FROM lineitem WHERE price BETWEEN {10 + offset}.5 "
            f"AND {12 + offset}.0",
        )
    assert (cache.hits, cache.misses) == (12, 3)


def test_a_fold_holds_only_outside_the_bounds(warehouse):
    cache = PlanCache(warehouse.optimizer)

    def rows(total):
        sql = f"SELECT id FROM orders WHERE total > {total}"
        return _run(warehouse, cache, sql).row_count

    assert rows(TOTAL_HIGH + 5) == 0
    # The fold's guard fails for a range inside the bounds: planned again.
    assert rows(TOTAL_HIGH - 500.5) > 0
    assert (cache.hits, cache.misses) == (0, 2)
    # Both variants of the shape are kept and serve their own bindings.
    assert rows(TOTAL_HIGH + 9) == 0
    assert rows(TOTAL_HIGH - 90.5) > 0
    assert (cache.hits, cache.misses) == (2, 2)
    assert len(cache) == 2


def _indexed_table():
    db = SoftDB()
    db.execute("CREATE TABLE t (id INT, v INT)")
    db.database.insert_many("t", [(n, n % 500) for n in range(3000)])
    db.execute("CREATE INDEX ix_v ON t (v)")
    db.runstats_all()
    return db


def _ids(db, sql):
    return sorted(row["id"] for row in db.execute(sql).rows)


def test_an_edge_two_slots_set_pins_them():
    """``v > ?1 AND v >= ?2``: which slot bounds the index scan depends on
    the values, so the plan is reused only for the same ones."""
    db = _indexed_table()
    fresh = db.optimizer
    for low, other in ((490, 480), (480, 495), (470, 470), (480, 495)):
        sql = f"SELECT id FROM t WHERE v > {low} AND v >= {other}"
        expected = sorted(
            row["id"] for row in db.executor.execute(fresh.optimize(sql)).rows
        )
        assert _ids(db, sql) == expected
    assert (db.plan_cache.hits, db.plan_cache.misses) == (1, 3)


def test_what_lifting_takes_and_what_stays_in_the_shape():
    sql = (
        "SELECT a, 5 FROM t JOIN u ON t.x = u.y AND u.z > 3 "
        "WHERE a > -5 AND d = DATE '2020-01-01' AND b BETWEEN 1 AND 2.5 "
        "AND c LIKE 'x%' AND e IN (1, 2) AND f IS NULL AND 1 = 1 "
        "AND g <> 'no' AND h = NULL AND k = TRUE "
        "GROUP BY a HAVING COUNT(*) > 2 ORDER BY a LIMIT 3"
    )
    statement = parse_statement(sql)
    written = sql_of(statement)
    _, values, (text, types) = lift(statement)
    assert text == (
        "SELECT a, 5 FROM t INNER JOIN u ON t.x = u.y AND u.z > ?1 "
        "WHERE a > ?2 AND d = ?3 AND b BETWEEN ?4 AND ?5 "
        "AND c LIKE 'x%' AND e IN (1, 2) AND f IS NULL AND 1 = 1 "
        "AND g <> ?6 AND h = NULL AND k = TRUE "
        "GROUP BY a HAVING COUNT(*) > ?7 ORDER BY a LIMIT 3"
    )
    assert values == (3, -5, 18262, 1, 2.5, "no", 2)
    assert types == (int, int, "date", int, float, str, int)
    assert sql_of(statement) == written  # the statement itself is kept


def test_literal_kinds_that_stay_in_the_shape():
    db = _indexed_table()
    for sql in (
        "SELECT id FROM t WHERE v IN (1, 2) LIMIT 3",
        "SELECT id FROM t WHERE v IN (3, 4) LIMIT 3",
        "SELECT id FROM t WHERE v IN (3, 4) LIMIT 4",
    ):
        db.execute(sql)
    assert db.plan_cache.misses == 3
    assert db.execute("SELECT id FROM t WHERE v = 7").row_count == 6
    assert db.execute("SELECT id FROM t WHERE v = 7.0").row_count == 6
    assert db.plan_cache.misses == 5  # int and float slots: two shapes


def _join_band_db():
    db = build_join_linear_scenario(rows_per_table=1500, seed=65)
    (asc, *_) = mine_join_linear_correlation(
        db.database, "freight", "cost", "shipments", "weight",
        "region_id", "region_id", confidence_levels=(1.0,),
    )
    db.add_soft_constraint(asc, verify_first=True)
    return db


def _hole_db():
    db = build_join_hole_scenario(rows_per_table=1500, seed=6)
    db.add_soft_constraint(
        mine_join_holes(
            db.database, "orders", "lead_time", "deliveries", "distance",
            "region_id", "region_id", grid_size=16,
        ),
        verify_first=True,
    )
    return db


def _exception_table_db():
    db = build_purchase_scenario(rows=3000, exception_rate=0.01, seed=13)
    db.execute(
        "CREATE SUMMARY TABLE late_shipments AS (SELECT * FROM purchase "
        "WHERE ship_date > order_date + 21 OR ship_date < order_date)"
    )
    return db


def _union_db():
    db, tables = build_monthly_union_scenario(
        months=6, rows_per_month=200, seed=8, declare_checks=True
    )
    db.union_tables = tables
    return db


#: rewrite -> (database, SQL for a tuple of literals, literal tuples).
OTHER_REWRITES = {
    "join_path_band": (
        _join_band_db,
        lambda db, w: "SELECT s.id FROM shipments s, freight f WHERE "
        f"s.region_id = f.region_id AND s.weight BETWEEN {w} AND {w + 10.0}",
        [100.0, 250.5, 20.0, 100.0, 480.0],
    ),
    "hole_trimming": (
        _hole_db,
        lambda db, a: "SELECT o.id FROM orders o, deliveries d "
        "WHERE o.region_id = d.region_id "
        f"AND o.lead_time >= {a} AND d.distance BETWEEN {a} AND {a + 15.0}",
        [30.0, 5.0, 40.0, 30.0, 20.5],
    ),
    "ast_routing": (
        _exception_table_db,
        lambda db, d: f"SELECT id, amount FROM purchase WHERE ship_date = {d}",
        [11100, 11150, 11100, 10990],
    ),
    "branch_elimination": (
        _union_db,
        lambda db, d: monthly_union_sql(db.union_tables, d, d + 40),
        [YEAR_START, YEAR_START + 100, YEAR_START, YEAR_START + 9999],
    ),
}


@pytest.mark.parametrize("rewrite", sorted(OTHER_REWRITES))
def test_other_rewrites_rebind_or_pin(rewrite):
    """A join-path band follows the binding; hole trimming, AST routing
    and branch knockout copy values into the plan and pin them."""
    build, render, values = OTHER_REWRITES[rewrite]
    db = build()
    for value in values:
        assert_cached_equals_fresh(
            db, render(db, value), bound_keys=rewrite == "join_path_band"
        )
    assert db.plan_cache.hits >= 1
