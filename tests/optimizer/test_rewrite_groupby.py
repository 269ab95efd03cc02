"""Tests for FD-based GROUP BY / ORDER BY simplification (E7 mechanics)."""

import pytest

from repro.discovery.fd_miner import mine_functional_dependencies
from repro.harness.runner import compare_optimizers
from repro.optimizer.planner import Optimizer, OptimizerConfig
from repro.workload.schemas import build_denormalized_orders


@pytest.fixture(scope="module")
def orders_db():
    db = build_denormalized_orders(rows=3000, cities=50, states=5, seed=12)
    for constraint in mine_functional_dependencies(
        db.database, "orders", columns=["city_id", "state_id"], max_g3_error=0.0
    ):
        db.add_soft_constraint(constraint, verify_first=True)
    return db


GROUP_SQL = (
    "SELECT city_id, state_id, sum(amount) AS total FROM orders "
    "GROUP BY city_id, state_id"
)


class TestGroupBySimplification:
    def test_dependent_key_dropped(self, orders_db):
        plan = orders_db.plan(GROUP_SQL)
        fired = [
            r
            for r in plan.rewrites_applied
            if "groupby_simplification" in r and "GROUP BY" in r
        ]
        assert fired
        assert "state_id" in fired[0]

    def test_answers_identical(self, orders_db):
        enabled, disabled = compare_optimizers(orders_db, GROUP_SQL)
        assert enabled.row_count == disabled.row_count

    def test_carried_column_still_projected(self, orders_db):
        rows = orders_db.query(GROUP_SQL)
        assert all(row["state_id"] == row["city_id"] % 5 for row in rows)

    def test_plan_depends_on_fd(self, orders_db):
        plan = orders_db.plan(GROUP_SQL)
        assert any(dep.startswith("fd_") for dep in plan.sc_dependencies)

    def test_pk_also_simplifies(self, orders_db):
        # id is the primary key: grouping by (id, city_id) collapses to id.
        plan = orders_db.plan(
            "SELECT id, city_id, count(*) AS n FROM orders GROUP BY id, city_id"
        )
        fired = [
            r for r in plan.rewrites_applied if "groupby_simplification" in r
        ]
        assert fired

    def test_determinant_never_dropped(self, orders_db):
        plan = orders_db.plan(GROUP_SQL)
        group_nodes = _group_nodes(plan.root)
        (group,) = group_nodes
        key_names = {key.column for key in group.keys}
        assert "city_id" in key_names
        assert "state_id" not in key_names

    def test_switch_disables(self, orders_db):
        optimizer = Optimizer(
            orders_db.database,
            orders_db.registry,
            OptimizerConfig(disabled_rules={"groupby_simplification"}),
        )
        plan = optimizer.optimize(GROUP_SQL)
        assert not any(
            "groupby_simplification" in r for r in plan.rewrites_applied
        )


class TestOrderBySimplification:
    def test_trailing_determined_key_dropped(self, orders_db):
        plan = orders_db.plan(
            "SELECT city_id, state_id FROM orders "
            "ORDER BY city_id, state_id"
        )
        fired = [
            r
            for r in plan.rewrites_applied
            if "groupby_simplification" in r and "ORDER BY" in r
        ]
        assert fired

    def test_order_preserved(self, orders_db):
        enabled, disabled = compare_optimizers(
            orders_db,
            "SELECT city_id, state_id FROM orders "
            "ORDER BY city_id, state_id LIMIT 50",
            check_same_answers=False,
        )
        assert enabled.result.tuples() == disabled.result.tuples()

    def test_leading_key_kept(self, orders_db):
        # state -> city does NOT hold; ordering must keep both keys.
        plan = orders_db.plan(
            "SELECT city_id, state_id FROM orders "
            "ORDER BY state_id, city_id"
        )
        sorts = _sort_nodes(plan.root)
        assert sorts and len(sorts[0].order) == 2


def _group_nodes(root):
    from repro.optimizer.physical import GroupBy

    return _collect(root, GroupBy)


def _sort_nodes(root):
    from repro.optimizer.physical import Sort

    return _collect(root, Sort)


def _collect(root, node_type):
    found, stack = [], [root]
    while stack:
        node = stack.pop()
        if isinstance(node, node_type):
            found.append(node)
        stack.extend(node.children())
    return found
