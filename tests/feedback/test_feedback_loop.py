"""End-to-end: feedback corrects estimates, evicts plans, steers SCs."""

import pytest

from repro.api import SoftDB
from repro.discovery.selection import FEEDBACK_BOOST_CAP, SelectionEngine
from repro.discovery.workload_model import Workload
from repro.errors import ExecutionError, OptimizerError
from repro.feedback import FeedbackAdjuster, FeedbackStore
from repro.optimizer.physical import IndexScan
from repro.optimizer.planner import OptimizerConfig, PlanCache
from repro.softcon.base import SCState
from repro.softcon.checksc import CheckSoftConstraint
from repro.softcon.maintenance import DropPolicy
from repro.softcon.minmax import MinMaxSC


def feedback_db():
    return SoftDB(OptimizerConfig(collect_feedback=True))


def drifted_db():
    """Stats collected, then the data distribution moves on.

    ``a`` gains a brand-new value range after RUNSTATS (the histogram
    says nothing lives there); ``b`` keeps its old distribution.  A
    query filtering on both columns makes the optimizer pick the ``a``
    index off the stale histogram even though it now fetches every
    drifted row.
    """
    db = feedback_db()
    db.execute("CREATE TABLE events (id INT, a INT, b INT)")
    db.execute("CREATE INDEX idx_a ON events (a)")
    db.execute("CREATE INDEX idx_b ON events (b)")
    db.database.insert_many(
        "events",
        [(i, (i * 37) % 1800, (i * 13) % 2000) for i in range(2000)],
    )
    db.runstats_all()  # histograms frozen here
    db.database.insert_many(
        "events",
        [
            (2000 + i, 1800 + (i % 200), (i * 13) % 2000)
            for i in range(2000)
        ],
    )
    return db


DRIFT_SQL = "SELECT id FROM events WHERE a >= 1800 AND b >= 1990"


def _index_used(plan):
    stack = [plan.root]
    while stack:
        node = stack.pop()
        if isinstance(node, IndexScan):
            return node.index_name
        stack.extend(node.children())
    return None


class TestEstimatorCorrection:
    def test_replan_after_execution_fixes_the_estimate(self):
        db = drifted_db()
        stale = db.plan(DRIFT_SQL)
        # Stale stats: the optimizer believes almost nothing matches.
        assert stale.root.estimated_rows < 100
        result = db.execute(DRIFT_SQL)
        actual = result.row_count
        # Only drifted rows have a >= 1800; b is a full permutation of
        # [0, 2000) over those 2000 rows, so b >= 1990 keeps 10 of them.
        assert actual == 10
        corrected = db.plan(DRIFT_SQL)
        assert corrected.root.estimated_rows == pytest.approx(
            actual, rel=0.5
        )

    def test_feedback_off_estimates_stay_static(self):
        db = SoftDB()
        db.execute("CREATE TABLE t (x INT)")
        db.database.insert_many("t", [(i,) for i in range(100)])
        db.runstats_all()
        db.database.insert_many("t", [(i,) for i in range(900)])
        before = db.plan("SELECT x FROM t").root.estimated_rows
        db.execute("SELECT x FROM t")
        after = db.plan("SELECT x FROM t").root.estimated_rows
        assert before == after  # no store, no correction


class TestPlanCacheEviction:
    def test_qerror_breach_evicts_and_reoptimizes_to_a_new_index(self):
        db = drifted_db()
        first = db.execute(DRIFT_SQL)
        assert _index_used(db.plan_cache.get_plan(DRIFT_SQL)) is not None
        assert first.max_qerror is not None
        assert first.max_qerror >= db.config.feedback_qerror_threshold
        # note_execution already ran inside execute(): plan evicted ...
        assert db.plan_cache.feedback_invalidations == 1
        # ... and get_plan above recompiled it with corrected estimates.
        stale_choice = "idx_a"
        fresh_plan = db.plan_cache.get_plan(DRIFT_SQL)
        assert _index_used(fresh_plan) != stale_choice
        second = db.execute(DRIFT_SQL)
        # Same answer, possibly in a different (index-driven) order.
        assert sorted(r["id"] for r in second.rows) == (
            sorted(r["id"] for r in first.rows)
        )
        # The corrected plan estimates well: no further churn.
        assert second.max_qerror < db.config.feedback_qerror_threshold
        assert db.plan_cache.feedback_invalidations == 1

    def test_note_execution_semantics(self):
        db = feedback_db()
        db.execute("CREATE TABLE t (x INT)")
        db.database.insert_many("t", [(i,) for i in range(10)])
        db.runstats_all()
        sql = "SELECT x FROM t"
        cache = db.plan_cache
        assert cache.note_execution(db.plan(sql), 100.0) is False  # not cached
        db.execute(sql)
        plan = cache.get_plan(sql)
        assert cache.note_execution(plan, None) is False
        assert cache.note_execution(plan, 2.0) is False  # below threshold
        assert cache.note_execution(plan, 4.0) is True
        assert cache.note_execution(plan, 4.0) is False  # already evicted
        assert cache.feedback_invalidations == 1

    def test_without_threshold_cache_never_feedback_evicts(self):
        db = feedback_db()
        db.execute("CREATE TABLE t (x INT)")
        cache = PlanCache(db.optimizer)  # qerror_threshold=None
        db.execute("INSERT INTO t VALUES (1)")
        plan = cache.get_plan("SELECT x FROM t")
        assert cache.note_execution(plan, 1e9) is False
        assert cache.feedback_invalidations == 0

    def test_threshold_validation(self):
        db = feedback_db()
        with pytest.raises(OptimizerError):
            PlanCache(db.optimizer, qerror_threshold=0.5)


class TestAdjuster:
    def _misestimating_db(self):
        db = SoftDB()
        db.execute("CREATE TABLE emp (id INT, age INT)")
        db.database.insert_many(
            "emp", [(i, 20 + i % 60) for i in range(100)]
        )
        db.runstats_all()
        return db

    def test_ssc_confidence_refreshed_and_currency_reset(self):
        db = self._misestimating_db()
        ssc = CheckSoftConstraint(
            "emp_age_cap", "emp", "age < 70", confidence=0.5
        )
        db.add_soft_constraint(ssc)
        store = FeedbackStore()
        store.record_scan("emp", "age > 30", estimated=1, actual=500)
        adjuster = FeedbackAdjuster(db.registry, store, db.database)
        actions = adjuster.apply()
        assert len(actions) == 1 and actions[0].startswith("ssc emp_age_cap")
        # Measured: age = 20 + i % 60 reaches 70..79 only for i in
        # 50..59, so exactly 10 of 100 rows violate.
        assert ssc.confidence == pytest.approx(0.9)
        assert ssc.state is SCState.ACTIVE

    def test_violated_asc_routed_through_policy(self):
        db = self._misestimating_db()
        # Claimed absolute but never verified -- the data already
        # violates it (ages reach 79).  Update-time checking never saw
        # those rows, so only feedback-triggered re-verification can
        # catch the lie.
        asc = MinMaxSC("emp_age_bounds", "emp", "age", low=0, high=50)
        db.add_soft_constraint(asc, policy=DropPolicy())
        assert asc.is_absolute and asc.state is SCState.ACTIVE
        store = FeedbackStore()
        store.record_scan("emp", "age > 30", estimated=1, actual=500)
        adjuster = FeedbackAdjuster(db.registry, store, db.database)
        actions = adjuster.apply()
        assert len(actions) == 1 and actions[0].startswith("asc emp_age_bounds")
        assert asc.state is SCState.VIOLATED
        assert db.registry.overturn_events == 1

    def test_clean_tables_pay_no_verification(self):
        db = self._misestimating_db()
        db.execute("CREATE TABLE other (y INT)")
        db.database.insert("other", (1,))
        ssc = CheckSoftConstraint("other_pos", "other", "y > 0")
        db.add_soft_constraint(ssc)
        store = FeedbackStore()
        store.record_scan("emp", "age > 30", estimated=1, actual=500)
        assert FeedbackAdjuster(db.registry, store, db.database).apply() == []

    def test_join_edge_qerror_also_marks_suspects(self):
        db = self._misestimating_db()
        db.execute("CREATE TABLE dept (id INT)")
        db.database.insert("dept", (1,))
        store = FeedbackStore()
        store.record_join(
            "dept.id=emp.dept",
            estimated_selectivity=0.0001,
            actual_selectivity=0.5,
            tables=("dept", "emp"),
        )
        adjuster = FeedbackAdjuster(db.registry, store, db.database)
        assert set(adjuster.suspect_tables()) == {"dept", "emp"}

    def test_suspect_qerror_validation(self):
        from repro.errors import FeedbackError

        db = self._misestimating_db()
        with pytest.raises(FeedbackError):
            FeedbackAdjuster(
                db.registry, FeedbackStore(), db.database, suspect_qerror=0.9
            )


class TestSoftDBFacade:
    def test_apply_feedback_requires_collection(self):
        db = SoftDB()
        with pytest.raises(ExecutionError):
            db.apply_feedback()
        assert db.feedback_report() == {"enabled": False}

    def test_apply_feedback_and_report_round_trip(self):
        db = drifted_db()
        ssc = CheckSoftConstraint(
            "events_a_cap", "events", "a < 1800", confidence=0.99
        )
        db.add_soft_constraint(ssc)
        db.execute(DRIFT_SQL)
        actions = db.apply_feedback()
        assert any("events_a_cap" in line for line in actions)
        # Half the rows now violate a < 1800.
        assert ssc.confidence == pytest.approx(0.5)
        report = db.feedback_report()
        assert report["enabled"] is True
        assert report["observations"] >= 1
        assert report["plan_cache_feedback_invalidations"] == 1


class TestDiscoveryTargeting:
    def _candidate(self):
        return MinMaxSC("t_x", "t", "x", low=0, high=10)

    def test_boost_multiplies_benefit_up_to_cap(self):
        store = FeedbackStore()
        store.record_scan("t", "x > 5", estimated=100, actual=300)
        engine = SelectionEngine(feedback=store)
        workload = Workload.from_sql(["SELECT x FROM t WHERE x > 5"])
        plain = SelectionEngine().score(self._candidate(), workload)
        boosted = engine.score(self._candidate(), workload)
        assert boosted.benefit == pytest.approx(plain.benefit * 3.0)

        store.record_scan("t", "x > 7", estimated=1, actual=1000)
        capped = engine.score(self._candidate(), workload)
        assert capped.benefit == pytest.approx(
            plain.benefit * FEEDBACK_BOOST_CAP
        )

    def test_untouched_tables_get_no_boost(self):
        store = FeedbackStore()
        store.record_scan("elsewhere", "x > 5", estimated=1, actual=1000)
        engine = SelectionEngine(feedback=store)
        assert engine._feedback_boost(self._candidate()) == 1.0
