"""Tests for UNION ALL branch knockout (E3 mechanics)."""

import pytest

from repro.discovery.range_miner import mine_range_checks
from repro.harness.runner import compare_optimizers
from repro.optimizer.planner import Optimizer, OptimizerConfig
from repro.workload.queries import monthly_union_sql
from repro.workload.schemas import YEAR_START, build_monthly_union_scenario


@pytest.fixture(scope="module")
def union_db():
    db, tables = build_monthly_union_scenario(
        months=12, rows_per_month=400, seed=8, declare_checks=True
    )
    return db, tables


class TestKnockout:
    def test_first_quarter_keeps_three_branches(self, union_db):
        db, tables = union_db
        sql = monthly_union_sql(tables, YEAR_START, YEAR_START + 89)
        plan = db.plan(sql)
        knocked = [r for r in plan.rewrites_applied if "knocked out" in r]
        assert len(knocked) == 9

    def test_single_day_keeps_one_branch(self, union_db):
        db, tables = union_db
        sql = monthly_union_sql(tables, YEAR_START + 45, YEAR_START + 45)
        plan = db.plan(sql)
        knocked = [r for r in plan.rewrites_applied if "knocked out" in r]
        assert len(knocked) == 11

    def test_out_of_range_query_keeps_placeholder(self, union_db):
        db, tables = union_db
        sql = monthly_union_sql(tables, YEAR_START + 9999, YEAR_START + 10000)
        plan = db.plan(sql)
        result = db.executor.execute(plan)
        assert result.row_count == 0
        assert result.columns  # output shape preserved

    def test_answers_identical(self, union_db):
        db, tables = union_db
        sql = monthly_union_sql(tables, YEAR_START + 10, YEAR_START + 70)
        enabled, disabled = compare_optimizers(db, sql)
        assert enabled.row_count == disabled.row_count

    def test_pages_proportional_to_kept_branches(self, union_db):
        db, tables = union_db
        sql = monthly_union_sql(tables, YEAR_START, YEAR_START + 89)
        enabled, disabled = compare_optimizers(db, sql)
        ratio = enabled.page_reads / disabled.page_reads
        assert ratio == pytest.approx(3 / 12, abs=0.1)

    def test_switch_disables(self, union_db):
        db, tables = union_db
        sql = monthly_union_sql(tables, YEAR_START, YEAR_START + 89)
        optimizer = Optimizer(
            db.database,
            db.registry,
            OptimizerConfig(disabled_rules={"branch_elimination"}),
        )
        plan = optimizer.optimize(sql)
        assert not any("knocked out" in r for r in plan.rewrites_applied)


class TestSoftConstraintSource:
    """Branch knockout driven by *mined* range SCs instead of declared
    CHECKs — the discovery story of the paper."""

    @pytest.fixture(scope="class")
    def mined_db(self):
        db, tables = build_monthly_union_scenario(
            months=6, rows_per_month=300, seed=8, declare_checks=False
        )
        for constraint in mine_range_checks(db.database, tables, "day"):
            db.add_soft_constraint(constraint)
        return db, tables

    def test_mined_ranges_enable_knockout(self, mined_db):
        db, tables = mined_db
        sql = monthly_union_sql(tables, YEAR_START, YEAR_START + 29)
        plan = db.plan(sql)
        knocked = [r for r in plan.rewrites_applied if "knocked out" in r]
        assert len(knocked) == 5
        assert plan.sc_dependencies  # depends on the mined SCs

    def test_ssc_cannot_knock_out(self, mined_db):
        db, tables = mined_db
        # Demote one branch's SC to statistical: it must stop knocking out.
        sc = db.registry.get(f"range_{tables[1]}_day")
        sc.confidence = 0.95
        sql = monthly_union_sql(tables, YEAR_START, YEAR_START + 29)
        plan = db.plan(sql)
        knocked = [r for r in plan.rewrites_applied if "knocked out" in r]
        assert len(knocked) == 4
        sc.confidence = 1.0

    def test_violated_sc_stops_knocking_out(self, mined_db):
        db, tables = mined_db
        from repro.softcon.base import SCState

        sc = db.registry.get(f"range_{tables[2]}_day")
        sc.transition(SCState.VIOLATED)
        sql = monthly_union_sql(tables, YEAR_START, YEAR_START + 29)
        plan = db.plan(sql)
        knocked = [r for r in plan.rewrites_applied if "knocked out" in r]
        assert len(knocked) == 4
        sc.transition(SCState.ACTIVE)
