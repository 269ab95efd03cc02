"""Tests for backup plans (Section 4.1) and probation tracking (Section 3.2)."""

import pytest

from repro.discovery.linear_miner import mine_linear_correlations
from repro.optimizer.planner import PlanCache
from repro.softcon.base import SCState
from repro.softcon.maintenance import DropPolicy
from repro.workload.schemas import build_correlated_table

SQL = "SELECT id, a FROM meas WHERE b = 500.0"


@pytest.fixture
def corr_db():
    db = build_correlated_table(rows=3000, noise=4.0, seed=55)
    (asc,) = mine_linear_correlations(
        db.database, "meas", [("a", "b")], confidence_levels=(1.0,)
    )
    db.add_soft_constraint(asc, policy=DropPolicy(), verify_first=True)
    return db, asc


class TestBackupPlans:
    """"One possible tactic is for a package to incorporate a 'backup'
    plan which is ASC-free.  If an ASC is overturned, a flag is raised and
    packages revert to the alternative plans.""" ""

    def test_backup_compiled_for_sc_dependent_plans(self, corr_db):
        db, asc = corr_db
        cache = PlanCache(db.optimizer, backup_plans=True)
        plan = cache.get_plan(SQL)
        assert asc.name in plan.sc_dependencies
        assert cache.backups == 1

    def test_no_backup_for_sc_free_plans(self, corr_db):
        db, _ = corr_db
        cache = PlanCache(db.optimizer, backup_plans=True)
        cache.get_plan("SELECT id FROM meas WHERE a > 2900.0")
        assert cache.backups == 0

    def test_reverts_instead_of_evicting(self, corr_db):
        db, asc = corr_db
        cache = PlanCache(db.optimizer, backup_plans=True)
        primary = cache.get_plan(SQL)
        db.execute("INSERT INTO meas VALUES (99999, 0.0, 500.0)")  # overturn
        assert asc.state is SCState.VIOLATED
        fallback = cache.get_plan(SQL)
        assert fallback is not primary
        assert fallback.sc_dependencies == set()
        assert cache.fallbacks == 1
        assert cache.misses == 1  # no recompile happened

    def test_fallback_plan_returns_correct_answers(self, corr_db):
        db, _ = corr_db
        cache = PlanCache(db.optimizer, backup_plans=True)
        cache.get_plan(SQL)
        db.execute("INSERT INTO meas VALUES (99999, 123.0, 500.0)")
        fallback = cache.get_plan(SQL)
        rows = db.executor.execute(fallback).rows
        # The outlier row (which broke the ASC) must be found.
        assert any(row["id"] == 99999 for row in rows)

    def test_without_backups_entry_is_evicted(self, corr_db):
        db, _ = corr_db
        cache = PlanCache(db.optimizer, backup_plans=False)
        cache.get_plan(SQL)
        db.execute("INSERT INTO meas VALUES (99999, 0.0, 500.0)")
        assert len(cache) == 0
        cache.get_plan(SQL)
        assert cache.misses == 2  # required a recompile


class TestProbation:
    """"SCs might be inexpensively maintained ... but not employed over a
    probationary period to assess their likely utility.""" ""

    @pytest.fixture
    def probation_db(self):
        db = build_correlated_table(rows=3000, noise=4.0, seed=56)
        (asc,) = mine_linear_correlations(
            db.database, "meas", [("a", "b")], confidence_levels=(1.0,)
        )
        db.registry.register(asc)
        db.registry.hold_in_probation(asc.name)
        return db, asc

    def test_probation_sc_not_used_in_real_plans(self, probation_db):
        db, asc = probation_db
        plan = db.plan(SQL)
        assert asc.name not in plan.sc_dependencies
        assert not any(
            "predicate_introduction" in r for r in plan.rewrites_applied
        )

    def test_usage_counted_by_shadow_pass(self, probation_db):
        db, asc = probation_db
        for _ in range(3):
            db.plan(SQL)
        assert db.registry.probation_uses.get(asc.name) == 3

    def test_cached_executions_are_credited_like_fresh_plans(
        self, probation_db
    ):
        db, asc = probation_db
        for value in (500.0, 250.5, 500.0, 730.25):
            db.execute(f"SELECT id, a FROM meas WHERE b = {value}")
        assert db.plan_cache.hits == 3
        assert db.registry.probation_uses.get(asc.name) == 4

    def test_unhelpful_queries_not_counted(self, probation_db):
        db, asc = probation_db
        db.plan("SELECT id FROM meas WHERE a > 2900.0")
        assert db.registry.probation_uses.get(asc.name, 0) == 0

    def test_promote_ready_activates(self, probation_db):
        db, asc = probation_db
        db.plan(SQL)
        promoted = db.registry.promote_ready(min_uses=1)
        assert promoted == [asc.name]
        assert asc.state is SCState.ACTIVE
        # Once active, the rewrite fires for real.
        plan = db.plan(SQL)
        assert asc.name in plan.sc_dependencies

    def test_promote_respects_threshold(self, probation_db):
        db, asc = probation_db
        db.plan(SQL)
        assert db.registry.promote_ready(min_uses=5) == []
        assert asc.state is SCState.PROBATION

    def test_probation_report(self, probation_db):
        db, asc = probation_db
        db.plan(SQL)
        assert db.registry.probation_report() == [(asc.name, 1)]

    def test_probation_currency_still_tracked(self, probation_db):
        db, asc = probation_db
        db.execute("INSERT INTO meas VALUES (99999, 10.0, 0.0)")
        assert db.registry.currency(asc.name).updates_seen == 1
        # ...but no synchronous check ran (inexpensive maintenance).
        assert db.registry.checks_performed == 0

    def test_tracking_can_be_disabled(self):
        from repro.optimizer.planner import Optimizer, OptimizerConfig

        db = build_correlated_table(rows=2000, noise=4.0, seed=57)
        (asc,) = mine_linear_correlations(
            db.database, "meas", [("a", "b")], confidence_levels=(1.0,)
        )
        db.registry.register(asc)
        db.registry.hold_in_probation(asc.name)
        optimizer = Optimizer(
            db.database, db.registry,
            OptimizerConfig(track_probation_usage=False),
        )
        optimizer.optimize(SQL)
        assert db.registry.probation_uses == {}
