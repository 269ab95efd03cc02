"""Tests for stale-plan detection and re-issue (paper Section 4.1).

"There can be problems at run-time due to serializability: a transaction
(A) that executes a query rewritten by an ASC runs concurrently with
another transaction (B) that violated (and so overturns) the same ASC...
Abort transaction A ... Re-issue transaction A (modified now not to use
the ASC) after B commits."
"""

import pytest

from repro.discovery.linear_miner import mine_linear_correlations
from repro.errors import StalePlanError
from repro.softcon.maintenance import DropPolicy, RepairPolicy
from repro.softcon.minmax import MinMaxSC
from repro.workload.schemas import build_correlated_table

SQL = "SELECT id, a FROM meas WHERE b = 500.0"


@pytest.fixture
def corr_db():
    db = build_correlated_table(rows=2500, noise=4.0, seed=77)
    (asc,) = mine_linear_correlations(
        db.database, "meas", [("a", "b")], confidence_levels=(1.0,)
    )
    db.add_soft_constraint(asc, policy=DropPolicy(), verify_first=True)
    return db, asc


class TestGuard:
    def test_fresh_plan_executes(self, corr_db):
        db, _ = corr_db
        plan = db.plan(SQL)
        assert db.executor.execute(plan).row_count >= 0

    def test_overturned_dependency_raises(self, corr_db):
        """Transaction A's plan; transaction B overturns; A must not run."""
        db, asc = corr_db
        plan = db.plan(SQL)  # transaction A compiles
        db.execute("INSERT INTO meas VALUES (99999, 0.0, 500.0)")  # B
        with pytest.raises(StalePlanError) as info:
            db.executor.execute(plan)
        assert asc.name in info.value.stale_constraints

    def test_reissue_returns_correct_answers(self, corr_db):
        db, _ = corr_db
        plan = db.plan(SQL)
        db.execute("INSERT INTO meas VALUES (99999, 0.0, 500.0)")
        result = db.execute_plan(plan)  # behind-the-scenes re-issue
        assert any(row["id"] == 99999 for row in result.rows)

    def test_reissue_can_be_disabled(self, corr_db):
        db, _ = corr_db
        plan = db.plan(SQL)
        db.execute("INSERT INTO meas VALUES (99999, 0.0, 500.0)")
        with pytest.raises(StalePlanError):
            db.execute_plan(plan, retry_on_stale=False)

    def test_unguarded_executor_does_not_raise(self, corr_db):
        """Without a registry the executor is the raw runtime (the guard is
        the session layer's job) — this is what the harness uses when it
        deliberately replays old plans."""
        from repro.executor.runtime import Executor

        db, _ = corr_db
        plan = db.plan(SQL)
        db.execute("INSERT INTO meas VALUES (99999, 0.0, 500.0)")
        Executor(db.database).execute(plan)  # no guard, no exception

    def test_select_reissues_a_plan_gone_stale_after_its_lookup(
        self, corr_db
    ):
        """The plan is fresh when the cache hands it out and stale by the
        time it runs: ``execute`` re-issues once, behind the scenes."""
        db, asc = corr_db
        expected = db.execute(SQL).tuples()
        lookup = db.plan_cache.get_plan

        def lookup_then_overturn(sql, statement=None):
            plan = lookup(sql, statement)
            if db.plan_cache.get_plan is lookup_then_overturn:
                db.plan_cache.get_plan = lookup
                asc.validity_version += 1  # a concurrent overturn
            return plan

        db.plan_cache.get_plan = lookup_then_overturn
        assert db.execute(SQL).tuples() == expected
        assert db.plan_cache.get_plan is lookup
        assert db.plan_cache.misses == 2

    def test_sc_free_plans_never_stale(self, corr_db):
        db, _ = corr_db
        plan = db.plan("SELECT id FROM meas WHERE a > 2900.0")
        db.execute("INSERT INTO meas VALUES (99999, 0.0, 500.0)")
        db.executor.execute(plan)  # no dependencies, no guard trip


class TestValueStaleness:
    def test_widening_repair_stales_inlined_plan(self):
        from repro import SoftDB
        from repro.optimizer.planner import OptimizerConfig

        db = SoftDB(OptimizerConfig(enable_runtime_parameters=False))
        db.execute("CREATE TABLE t (id INT, v INT)")
        db.database.insert_many("t", [(n, n) for n in range(100)])
        db.runstats_all()
        db.add_soft_constraint(
            MinMaxSC("vr", "t", "v", 0, 99), policy=RepairPolicy()
        )
        plan = db.plan("SELECT id FROM t WHERE v >= 90")
        db.execute("INSERT INTO t VALUES (999, 500)")  # widen repair
        with pytest.raises(StalePlanError):
            db.executor.execute(plan)
        # Re-issue finds the new row.
        result = db.execute_plan(plan)
        assert result.row_count == 11

    def test_widening_repair_does_not_stale_parameterized_plan(self):
        from repro import SoftDB
        from repro.optimizer.planner import OptimizerConfig

        db = SoftDB(OptimizerConfig(enable_runtime_parameters=True))
        db.execute("CREATE TABLE t (id INT, v INT)")
        db.database.insert_many("t", [(n, n) for n in range(100)])
        db.runstats_all()
        db.add_soft_constraint(
            MinMaxSC("vr", "t", "v", 0, 99), policy=RepairPolicy()
        )
        plan = db.plan("SELECT id FROM t WHERE v >= 90")
        db.execute("INSERT INTO t VALUES (999, 500)")
        result = db.executor.execute(plan)  # still fresh: PARAM is live
        assert result.row_count == 11
