"""Harvesting executed plans into the store, and collection gating."""

import pytest

from repro.api import SoftDB
from repro.executor.runtime import Executor
from repro.feedback import FeedbackStore
from repro.feedback.counters import binding_tables_of, clear_actuals, harvest
from repro.optimizer.physical import (
    HashJoin,
    IndexScan,
    SeqScan,
    Sort,
)


@pytest.fixture
def joined_db():
    db = SoftDB()
    db.execute("CREATE TABLE emp (id INT, age INT, dept INT)")
    db.database.insert_many(
        "emp", [(i, 20 + i % 50, i % 5) for i in range(200)]
    )
    db.execute("CREATE TABLE dept (id INT, name VARCHAR(10))")
    db.database.insert_many("dept", [(i, f"d{i}") for i in range(5)])
    db.execute("CREATE INDEX ix_emp_age ON emp (age)")
    db.runstats_all()
    return db


JOIN_SQL = (
    "SELECT d.name, count(*) AS n FROM emp e, dept d "
    "WHERE e.dept = d.id AND e.age > 30 GROUP BY d.name"
)


def _find(root, kind):
    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, kind):
            return node
        stack.extend(node.children())
    return None


class TestCollectionGating:
    def test_default_execution_records_nothing(self, joined_db):
        plan = joined_db.plan(JOIN_SQL)
        joined_db.executor.execute(plan)
        scan = _find(plan.root, (SeqScan, IndexScan))
        join = _find(plan.root, HashJoin)
        assert scan.actual_rows is None
        assert scan.actual_rows_scanned is None
        assert join.actual_pairs is None

    @pytest.mark.parametrize("batch_size", [0, 7, 1024])
    def test_collected_execution_counts_inputs(self, joined_db, batch_size):
        plan = joined_db.plan(JOIN_SQL)
        Executor(joined_db.database, batch_size=batch_size).execute(
            plan, collect_feedback=True
        )
        join = _find(plan.root, HashJoin)
        assert join.actual_pairs == join.actual_rows  # no residual here
        for side in (join.left, join.right):
            assert side.actual_rows is not None
            # Input counts cover the whole table, pre-filter.
            assert side.actual_rows_scanned in (200, 5)

    def test_collect_implies_instrument(self, joined_db):
        plan = joined_db.plan(JOIN_SQL)
        result = joined_db.executor.execute(plan, collect_feedback=True)
        assert plan.root.actual_rows is not None
        assert result.max_qerror is not None
        assert result.max_qerror >= 1.0


class TestClearActuals:
    def test_clears_every_counter(self, joined_db):
        plan = joined_db.plan(JOIN_SQL + " ORDER BY n")
        joined_db.executor.execute(plan, collect_feedback=True)
        sort = _find(plan.root, Sort)
        assert sort.actual_input_rows is not None
        clear_actuals(plan.root)
        stack = [plan.root]
        while stack:
            node = stack.pop()
            assert node.actual_rows is None
            assert node.actual_batches is None
            assert getattr(node, "actual_rows_scanned", None) is None
            assert getattr(node, "actual_pairs", None) is None
            assert getattr(node, "actual_input_rows", None) is None
            stack.extend(node.children())


class TestHarvest:
    def test_binding_tables_resolved_from_leaves(self, joined_db):
        plan = joined_db.plan(JOIN_SQL)
        assert binding_tables_of(plan.root) == {"e": "emp", "d": "dept"}

    @pytest.mark.parametrize("batch_size", [0, 1024])
    def test_harvest_records_scans_joins_groups(self, joined_db, batch_size):
        store = FeedbackStore()
        plan = joined_db.plan(JOIN_SQL)
        Executor(joined_db.database, batch_size=batch_size).execute(
            plan, collect_feedback=True
        )
        summary = harvest(plan, store)
        assert summary.observations >= 4
        assert store.scan_rows("emp", "age > 30") is not None
        assert store.base_rows("dept") == 5.0
        observed = store.join_selectivity("dept.id=emp.dept")
        assert observed == pytest.approx(1.0 / 5.0)
        assert store.group_rows("group:dept.name") is not None
        assert store.harvests == 1

    def test_index_scan_records_matching_rows(self):
        db = SoftDB()
        db.execute("CREATE TABLE big (id INT, v INT)")
        db.database.insert_many(
            "big", [(i, (i * 37) % 1000) for i in range(2000)]
        )
        db.execute("CREATE INDEX ix_big_v ON big (v)")
        db.runstats_all()
        store = FeedbackStore()
        plan = db.plan("SELECT id FROM big WHERE v >= 995")
        node = _find(plan.root, IndexScan)
        assert node is not None, "expected the v index to be chosen"
        db.executor.execute(plan, collect_feedback=True)
        harvest(plan, store)
        from repro.feedback.signatures import index_range_signature

        sig = index_range_signature(
            node.low, node.high, node.low_inclusive, node.high_inclusive
        )
        fetched = store.matching_rows("big", node.index_name, sig)
        assert fetched == node.actual_rows_scanned
        assert fetched == 10  # v in {995..999}, 2 rows each

    def test_limit_truncated_nodes_not_harvested(self, joined_db):
        store = FeedbackStore()
        plan = joined_db.plan("SELECT id FROM emp WHERE age > 30 LIMIT 3")
        Executor(joined_db.database, batch_size=0).execute(
            plan, collect_feedback=True
        )
        scan = _find(plan.root, (SeqScan, IndexScan))
        # The scan was cut short: its full output count was never seen.
        assert scan.actual_rows is None
        harvest(plan, store)
        assert store.scan_rows("emp", "age > 30") is None
        # And the partial input count must not poison base-rows either.
        assert store.base_rows("emp") is None

    def test_rerun_after_clear_does_not_double_count(self, joined_db):
        store = FeedbackStore()
        plan = joined_db.plan(JOIN_SQL)
        for _ in range(2):
            joined_db.executor.execute(plan, collect_feedback=True)
            harvest(plan, store)
        assert store.harvests == 2
        # EWMA of two identical runs equals one run's value.
        assert store.scan_rows("emp", "age > 30") == pytest.approx(156.0)
