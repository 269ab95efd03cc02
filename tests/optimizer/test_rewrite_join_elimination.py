"""Tests for join elimination over referential integrity (E2 mechanics)."""

import pytest

from repro.harness.runner import compare_optimizers
from repro.optimizer.planner import Optimizer, OptimizerConfig
from repro.workload.schemas import build_star_schema


@pytest.fixture(scope="module")
def star_db():
    return build_star_schema(facts=3000, customers=100, products=50, seed=1)


def rewrites_of(db, sql, **config_kwargs):
    optimizer = Optimizer(
        db.database, db.registry, OptimizerConfig(**config_kwargs)
    )
    return optimizer.optimize(sql)


class TestFiring:
    def test_unreferenced_parent_join_removed(self, star_db):
        plan = rewrites_of(
            star_db,
            "SELECT s.id, s.amount FROM sales s, customer c "
            "WHERE s.customer_id = c.id",
        )
        assert any("join_elimination" in r for r in plan.rewrites_applied)

    def test_informational_fk_suffices(self, star_db):
        # The scenario declares its FKs NOT ENFORCED; elimination must
        # still fire (the whole point of informational constraints).
        plan = rewrites_of(
            star_db,
            "SELECT s.id FROM sales s, customer c WHERE s.customer_id = c.id",
        )
        assert any("join_elimination" in r for r in plan.rewrites_applied)

    def test_both_dimensions_removed(self, star_db):
        plan = rewrites_of(
            star_db,
            "SELECT s.id FROM sales s, customer c, product p "
            "WHERE s.customer_id = c.id AND s.product_id = p.id",
        )
        fired = [r for r in plan.rewrites_applied if "join_elimination" in r]
        assert len(fired) == 2

    def test_explicit_join_syntax(self, star_db):
        plan = rewrites_of(
            star_db,
            "SELECT s.id FROM sales s JOIN customer c ON s.customer_id = c.id",
        )
        assert any("join_elimination" in r for r in plan.rewrites_applied)


class TestGuards:
    def test_parent_output_blocks_elimination(self, star_db):
        plan = rewrites_of(
            star_db,
            "SELECT s.id, c.name FROM sales s, customer c "
            "WHERE s.customer_id = c.id",
        )
        assert not any("join_elimination" in r for r in plan.rewrites_applied)

    def test_parent_predicate_blocks_elimination(self, star_db):
        plan = rewrites_of(
            star_db,
            "SELECT s.id FROM sales s, customer c "
            "WHERE s.customer_id = c.id AND c.segment = 2",
        )
        assert not any("join_elimination" in r for r in plan.rewrites_applied)

    def test_parent_group_key_blocks_elimination(self, star_db):
        plan = rewrites_of(
            star_db,
            "SELECT c.segment, count(*) AS n FROM sales s, customer c "
            "WHERE s.customer_id = c.id GROUP BY c.segment",
        )
        assert not any("join_elimination" in r for r in plan.rewrites_applied)

    def test_nullable_fk_blocks_elimination(self, star_db):
        star_db.execute(
            "CREATE TABLE weak_sales (id INT PRIMARY KEY, customer_id INT, "
            "CONSTRAINT wfk FOREIGN KEY (customer_id) REFERENCES customer (id) "
            "NOT ENFORCED)"
        )
        star_db.database.insert_many("weak_sales", [(1, 2), (2, None)])
        plan = rewrites_of(
            star_db,
            "SELECT w.id FROM weak_sales w, customer c "
            "WHERE w.customer_id = c.id",
        )
        assert not any("join_elimination" in r for r in plan.rewrites_applied)

    def test_non_fk_join_not_eliminated(self, star_db):
        plan = rewrites_of(
            star_db,
            "SELECT s.id FROM sales s, customer c WHERE s.quantity = c.id",
        )
        assert not any("join_elimination" in r for r in plan.rewrites_applied)

    def test_switch_disables_rule(self, star_db):
        plan = rewrites_of(
            star_db,
            "SELECT s.id FROM sales s, customer c WHERE s.customer_id = c.id",
            disabled_rules={"join_elimination"},
        )
        assert not any("join_elimination" in r for r in plan.rewrites_applied)


class TestCorrectnessAndBenefit:
    def test_same_answers_fewer_pages(self, star_db):
        enabled, disabled = compare_optimizers(
            star_db,
            "SELECT s.id, s.amount FROM sales s, customer c "
            "WHERE s.customer_id = c.id AND s.amount > 250.0",
        )
        assert enabled.page_reads < disabled.page_reads
        assert enabled.row_count == disabled.row_count

    def test_aggregate_query_preserved(self, star_db):
        enabled, disabled = compare_optimizers(
            star_db,
            "SELECT s.customer_id, sum(s.amount) AS total "
            "FROM sales s, product p WHERE s.product_id = p.id "
            "GROUP BY s.customer_id",
        )
        assert enabled.row_count == disabled.row_count
