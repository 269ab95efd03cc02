"""Feedback is harvested only from successful, complete executions.

A query that raises mid-execution, or that a guard truncated, has
partially-advanced operator counters: harvesting them would poison the
store with under-counted actuals (a half-run scan looks like a tiny
table).  These are regression tests for the rule that error paths leave
the feedback store and the plan cache's execution bookkeeping untouched.
"""

import pytest

from repro import SoftDB
from repro.errors import BudgetExceededError, ReproError
from repro.optimizer.planner import OptimizerConfig
from repro.resilience.faults import FaultInjector
from repro.resilience.guards import QueryGuard


@pytest.fixture
def db() -> SoftDB:
    db = SoftDB(OptimizerConfig(collect_feedback=True))
    db.execute("CREATE TABLE t (a INT, b INT)")
    db.database.insert_many("t", [(n, n % 9) for n in range(300)])
    db.runstats_all()
    return db


def _store_state(db):
    return (
        db.feedback.harvests,
        db.feedback.observations,
        len(db.feedback),
    )


class TestNoHarvestOnError:
    def test_mid_execution_error_leaves_store_untouched(self, db):
        before = _store_state(db)
        with pytest.raises(ReproError):
            # Divides by zero once the scan reaches a = 5.
            db.query("SELECT b / (a - 5) AS x FROM t")
        assert _store_state(db) == before

    def test_error_does_not_count_as_plan_execution(self, db):
        sql = "SELECT b / (a - 5) AS x FROM t"
        with pytest.raises(ReproError):
            db.execute(sql)
        # The plan is cached (planning succeeded) but its q-error history
        # must not include the failed run: no feedback eviction happened.
        assert db.plan_cache.feedback_invalidations == 0

    def test_storage_fault_leaves_store_untouched(self, db):
        before = _store_state(db)
        db.attach_fault_injector(
            FaultInjector().add("page_read", "transient", every_nth=1)
        )
        with pytest.raises(ReproError):
            db.query("SELECT a FROM t")
        assert _store_state(db) == before

    def test_truncated_execution_not_harvested(self, db):
        before = _store_state(db)
        result = db.execute(
            "SELECT a FROM t",
            guard=QueryGuard(max_rows=10, on_breach="partial"),
        )
        assert result.truncated
        assert _store_state(db) == before
        assert result.max_qerror is None

    def test_aborted_execution_not_harvested(self, db):
        before = _store_state(db)
        with pytest.raises(BudgetExceededError):
            db.execute("SELECT a FROM t", guard=QueryGuard(max_rows=10))
        assert _store_state(db) == before


class TestHarvestOnSuccess:
    def test_successful_run_harvests(self, db):
        before = db.feedback.harvests
        result = db.execute("SELECT a FROM t WHERE b = 3")
        assert db.feedback.harvests == before + 1
        assert result.max_qerror is not None

    def test_guarded_successful_run_still_harvests(self, db):
        before = db.feedback.harvests
        result = db.execute(
            "SELECT a FROM t WHERE b = 3", guard=QueryGuard(max_rows=10**6)
        )
        assert not result.truncated
        assert db.feedback.harvests == before + 1
