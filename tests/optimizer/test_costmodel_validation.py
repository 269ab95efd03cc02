"""Cost-model validation: estimated I/O must track executed I/O.

The cost model prices operators in page-read equivalents specifically so
these tests can hold it accountable against the executor's counters.
"""

import pytest

from repro.executor.runtime import Executor
from repro.optimizer.costmodel import CostModel
from repro.workload.schemas import build_purchase_scenario, build_star_schema


@pytest.fixture(scope="module")
def purchase_db():
    return build_purchase_scenario(rows=6000, exception_rate=0.01, seed=17)


class TestSeqScanCost:
    def test_cost_close_to_actual_pages(self, purchase_db):
        plan = purchase_db.plan("SELECT id FROM purchase WHERE amount < 50.0")
        result = purchase_db.executor.execute(plan)
        # The scan's cost is its page reads plus a per-tuple CPU term:
        # bounded below by the actual I/O and above by I/O + CPU budget.
        scan = plan.root
        while scan.children():
            scan = scan.children()[0]
        rows = purchase_db.database.table("purchase").row_count
        assert result.page_reads <= scan.estimated_cost
        assert scan.estimated_cost <= result.page_reads + rows * 0.02


class TestIndexScanCost:
    def test_clustered_range_cost_tracks_actual(self, purchase_db):
        plan = purchase_db.plan(
            "SELECT id FROM purchase WHERE order_date BETWEEN 11100 AND 11120"
        )
        from repro.optimizer.physical import IndexScan

        scans = _collect(plan.root, IndexScan)
        assert scans, "expected the clustered index path"
        result = purchase_db.executor.execute(plan)
        assert scans[0].estimated_cost == pytest.approx(
            result.page_reads, rel=1.0
        )

    def test_point_probe_cheap(self, purchase_db):
        purchase_db.database.reset_counters()
        result = purchase_db.execute(
            "SELECT id FROM purchase WHERE id = 50"
        )
        assert result.page_reads <= 5


class TestRelativeOrdering:
    """The model's job is to rank plans correctly, not to be exact."""

    def test_index_beats_scan_when_it_actually_does(self, purchase_db):
        narrow = purchase_db.plan(
            "SELECT id FROM purchase WHERE order_date BETWEEN 11100 AND 11105"
        )
        wide = purchase_db.plan(
            "SELECT id FROM purchase WHERE order_date > 10000"
        )
        from repro.optimizer.physical import IndexScan, SeqScan

        assert _collect(narrow.root, IndexScan)
        assert _collect(wide.root, SeqScan)
        executor = Executor(purchase_db.database)
        narrow_io = executor.execute(narrow).page_reads
        wide_io = executor.execute(wide).page_reads
        assert narrow_io < wide_io

    def test_join_elimination_lowers_estimated_cost(self):
        db = build_star_schema(facts=2000, customers=50, products=20, seed=2)
        from repro.harness.runner import all_off
        from repro.optimizer.planner import Optimizer

        sql = (
            "SELECT s.id FROM sales s, customer c WHERE s.customer_id = c.id"
        )
        with_rewrites = db.plan(sql)
        without = Optimizer(db.database, db.registry, all_off()).optimize(sql)
        assert with_rewrites.estimated_cost < without.estimated_cost


def _collect(root, node_type):
    found, stack = [], [root]
    while stack:
        node = stack.pop()
        if isinstance(node, node_type):
            found.append(node)
        stack.extend(node.children())
    return found
