"""Tests for exception-AST routing (E6 mechanics, paper Section 4.4)."""

import pytest

from repro.harness.runner import compare_optimizers
from repro.optimizer.physical import IndexScan, UnionAll
from repro.optimizer.planner import Optimizer, OptimizerConfig
from repro.softcon.checksc import CheckSoftConstraint
from repro.workload.schemas import build_purchase_scenario


@pytest.fixture(scope="module")
def purchase_db():
    db = build_purchase_scenario(rows=8000, exception_rate=0.01, seed=13)
    db.execute(
        "CREATE SUMMARY TABLE late_shipments AS (SELECT * FROM purchase "
        "WHERE ship_date > order_date + 21 OR ship_date < order_date)"
    )
    return db


QUERY = "SELECT id, amount FROM purchase WHERE ship_date = 11100"


class TestRouting:
    def test_union_plan_produced(self, purchase_db):
        plan = purchase_db.plan(QUERY)
        assert any("ast_routing" in r for r in plan.rewrites_applied)
        assert isinstance(plan.root.children()[0], UnionAll) or isinstance(
            plan.root, UnionAll
        ) or _find(plan.root, UnionAll)

    def test_conforming_branch_uses_order_date_index(self, purchase_db):
        plan = purchase_db.plan(QUERY)
        scans = _find(plan.root, IndexScan)
        assert any(scan.index_name == "idx_purchase_od" for scan in scans)

    def test_answers_exact(self, purchase_db):
        enabled, disabled = compare_optimizers(purchase_db, QUERY)
        assert enabled.row_count == disabled.row_count

    def test_late_rows_come_from_exception_branch(self, purchase_db):
        # Plant a known late shipment and make sure the routed plan finds it.
        purchase_db.execute(
            "INSERT INTO purchase VALUES (999999, 10999, 11100, 42.0)"
        )
        rows = purchase_db.query(QUERY)
        assert any(row["id"] == 999999 for row in rows)

    def test_fewer_pages_than_full_scan(self, purchase_db):
        enabled, disabled = compare_optimizers(purchase_db, QUERY)
        assert enabled.page_reads < disabled.page_reads * 0.5

    def test_plan_depends_on_rule_sc(self, purchase_db):
        plan = purchase_db.plan(QUERY)
        assert "late_shipments_rule" in plan.sc_dependencies


class TestGuards:
    def test_grouped_query_not_routed(self, purchase_db):
        plan = purchase_db.plan(
            "SELECT count(*) AS n FROM purchase WHERE ship_date = 11100"
        )
        assert not any("ast_routing" in r for r in plan.rewrites_applied)

    def test_query_without_usable_predicate_not_routed(self, purchase_db):
        plan = purchase_db.plan(
            "SELECT id FROM purchase WHERE amount > 400.0"
        )
        assert not any("ast_routing" in r for r in plan.rewrites_applied)

    def test_switch_disables(self, purchase_db):
        optimizer = Optimizer(
            purchase_db.database,
            purchase_db.registry,
            OptimizerConfig(disabled_rules={"ast_routing"}),
        )
        plan = optimizer.optimize(QUERY)
        assert not any("ast_routing" in r for r in plan.rewrites_applied)

    def test_inactive_rule_not_routed(self, purchase_db):
        from repro.softcon.base import SCState

        rule = purchase_db.registry.get("late_shipments_rule")
        rule.transition(SCState.VIOLATED)
        plan = purchase_db.plan(QUERY)
        assert not any("ast_routing" in r for r in plan.rewrites_applied)
        rule.transition(SCState.ACTIVE)


class TestExceptionMaintenanceIntegration:
    def test_new_exception_visible_immediately(self, purchase_db):
        purchase_db.execute(
            "INSERT INTO purchase VALUES (888888, 10000, 11101, 1.0)"
        )
        rows = purchase_db.query(
            "SELECT id FROM purchase WHERE ship_date = 11101"
        )
        assert any(row["id"] == 888888 for row in rows)


def _find(root, node_type):
    found, stack = [], [root]
    while stack:
        node = stack.pop()
        if isinstance(node, node_type):
            found.append(node)
        stack.extend(node.children())
    return found
