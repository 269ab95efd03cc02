"""Query guards: budgets, deadlines, cancellation, and plan eviction.

Covers the guard primitives (virtual clock, token, validation), every
budget's trip path in both executors, the ``"partial"`` breach policy,
EXPLAIN ANALYZE's ``guard:`` line, and the guard trip's eviction of the
cached plan (a tripped budget is treated as the loudest possible
mis-planning signal).
"""

from typing import Optional

import pytest

from repro import SoftDB
from repro.errors import (
    BudgetExceededError,
    ExecutionError,
    QueryCancelledError,
    QueryGuardError,
    QueryTimeoutError,
)
from repro.optimizer.planner import OptimizerConfig
from repro.resilience.guards import (
    CancellationToken,
    QueryGuard,
    VirtualClock,
    format_guard_report,
)

#: Both executors: the row-at-a-time oracle and a stride-y batched mode.
BATCH_SIZES = (0, 64)


def build(config: Optional[OptimizerConfig] = None) -> SoftDB:
    """Two tables big enough to spend budgets on, with stats."""
    db = SoftDB(config)
    db.execute(
        "CREATE TABLE emp (id INT PRIMARY KEY, dept_id INT, salary INT)"
    )
    db.execute("CREATE TABLE dept (id INT PRIMARY KEY, budget INT)")
    db.database.insert_many(
        "emp", [(n, n % 20, 1000 + n % 700) for n in range(1500)]
    )
    db.database.insert_many("dept", [(n, 10000 * (n + 1)) for n in range(20)])
    db.runstats_all()
    return db


@pytest.fixture
def db() -> SoftDB:
    return build()


@pytest.fixture
def sized_db(batch_size) -> SoftDB:
    """:func:`build` with the executor at the test's batch size."""
    return build(OptimizerConfig(batch_size=batch_size))


class TestVirtualClock:
    def test_sleep_advances_without_blocking(self):
        clock = VirtualClock(10.0)
        assert clock() == 10.0
        clock.sleep(2.5)
        assert clock() == 12.5


class TestCancellationToken:
    def test_cancel_sets_flag_and_reason(self):
        token = CancellationToken()
        assert not token.cancelled
        token.cancel("user pressed ^C")
        assert token.cancelled
        assert token.reason == "user pressed ^C"


class TestGuardValidation:
    def test_bad_breach_policy_rejected(self):
        with pytest.raises(ExecutionError):
            QueryGuard(on_breach="explode")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"deadline": 0.0},
            {"max_rows": 0},
            {"max_page_reads": -1},
            {"max_join_pairs": 0},
        ],
    )
    def test_non_positive_limits_rejected(self, kwargs):
        with pytest.raises(ExecutionError):
            QueryGuard(**kwargs)


class TestBudgetTrips:
    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_row_budget(self, sized_db, batch_size):
        guard = QueryGuard(max_rows=50)
        with pytest.raises(BudgetExceededError) as info:
            sized_db.execute("SELECT id FROM emp", guard=guard)
        assert info.value.budget == "rows"
        assert info.value.report["tripped"] is not None
        assert info.value.report["rows"] > 50

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_page_read_budget(self, sized_db, batch_size):
        guard = QueryGuard(max_page_reads=2)
        with pytest.raises(BudgetExceededError) as info:
            sized_db.execute("SELECT id FROM emp", guard=guard)
        assert info.value.budget == "page_reads"

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_page_read_budget_trips_without_output_rows(
        self, sized_db, batch_size
    ):
        # A scan whose filter rejects everything yields no rows at all;
        # only the scan-level ticks can notice the page-read burn.
        guard = QueryGuard(max_page_reads=2)
        with pytest.raises(BudgetExceededError) as info:
            sized_db.execute(
                "SELECT id FROM emp WHERE salary < 0", guard=guard
            )
        assert info.value.budget == "page_reads"

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_join_pair_budget(self, sized_db, batch_size):
        guard = QueryGuard(max_join_pairs=10_000)
        with pytest.raises(BudgetExceededError) as info:
            sized_db.execute(
                "SELECT count(*) AS n FROM emp, dept "
                "WHERE emp.salary < dept.budget",
                guard=guard,
            )
        assert info.value.budget == "join_pairs"

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_deadline_trip(self, sized_db, batch_size):
        # Every clock consultation advances virtual time by a full second,
        # so the first strided deadline check is already past the budget.
        class TickingClock(VirtualClock):
            def __call__(self) -> float:
                self.now += 1.0
                return self.now

        guard = QueryGuard(deadline=0.5, clock=TickingClock())
        with pytest.raises(QueryTimeoutError):
            sized_db.execute("SELECT id FROM emp", guard=guard)

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_untripped_guard_reports_consumption(self, sized_db, batch_size):
        guard = QueryGuard(max_rows=1_000_000, max_page_reads=1_000_000)
        result = sized_db.execute(
            "SELECT id FROM emp WHERE salary >= 1000", guard=guard
        )
        assert not result.truncated
        report = result.guard_report
        assert report["rows"] == result.row_count
        assert report["page_reads"] > 0
        assert report["tripped"] is None
        line = format_guard_report(report)
        assert line.startswith("guard: ")
        assert "tripped=no" in line

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_guard_results_match_unguarded(self, sized_db, batch_size):
        sql = "SELECT dept_id, count(*) AS n FROM emp GROUP BY dept_id"
        plain = sized_db.execute(sql)
        guarded = sized_db.execute(sql, guard=QueryGuard(max_rows=10**9))
        assert sorted(map(tuple, (r.items() for r in guarded.rows))) == sorted(
            map(tuple, (r.items() for r in plain.rows))
        )


class TestPartialPolicy:
    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_partial_returns_truncated_prefix(self, sized_db, batch_size):
        guard = QueryGuard(max_rows=100, on_breach="partial")
        result = sized_db.execute("SELECT id FROM emp", guard=guard)
        assert result.truncated
        # Rows are accounted before delivery, so a partial result never
        # exceeds the budget; the row-at-a-time executor delivers exactly
        # the budget, the batched one whole batches up to it.
        assert result.row_count <= 100
        if batch_size == 0:
            assert result.row_count == 100
        assert isinstance(result.guard_breach, BudgetExceededError)
        assert result.guard_report["tripped"] is not None

    def test_abort_policy_propagates(self, db):
        guard = QueryGuard(max_rows=50, on_breach="abort")
        with pytest.raises(QueryGuardError):
            db.execute("SELECT id FROM emp", guard=guard)


class TestCancellation:
    def test_pre_cancelled_token_rejected_on_entry(self, db):
        token = CancellationToken()
        token.cancel("session closed")
        with pytest.raises(QueryCancelledError):
            db.execute("SELECT id FROM emp", cancel=token)

    def test_mid_execution_cancellation(self, db):
        token = CancellationToken()
        guard = QueryGuard()
        active = guard.arm(db.database.counters, token)
        active.note_rows(10)  # live token: no trip
        token.cancel("enough")
        with pytest.raises(QueryCancelledError):
            active.note_rows(1)
        assert active.tripped is not None

    def test_token_without_guard_is_honored(self, db):
        # A cancel token alone arms a no-limit stand-in guard.
        token = CancellationToken()
        result = db.execute("SELECT id FROM emp LIMIT 5", cancel=token)
        assert result.row_count == 5
        assert result.guard_report is not None


class TestExplainGuardLine:
    def test_explain_analyze_shows_guard_report(self, db):
        text = db.explain(
            "SELECT id FROM emp WHERE salary > 1200",
            analyze=True,
            guard=QueryGuard(max_rows=1_000_000),
        )
        assert "guard: rows=" in text
        assert "tripped=no" in text

    def test_explain_analyze_shows_truncation(self, db):
        text = db.explain(
            "SELECT id FROM emp",
            analyze=True,
            guard=QueryGuard(max_rows=10, on_breach="partial"),
        )
        assert "[truncated by guard]" in text
        assert "tripped=BudgetExceededError" in text

    def test_plain_explain_unchanged(self, db):
        assert "guard:" not in db.explain("SELECT id FROM emp")


class TestGuardTripEviction:
    """A budget or deadline trip evicts the plan it ran from its plan
    cache, whether the breach raised or truncated; a cancellation evicts
    nothing."""

    SQL = "SELECT a FROM t WHERE b = 3"

    def _cached_db(self) -> SoftDB:
        db = SoftDB()
        db.execute("CREATE TABLE t (a INT, b INT)")
        db.database.insert_many("t", [(n, n % 7) for n in range(600)])
        db.runstats_all()
        db.execute(self.SQL)
        assert len(db.plan_cache) == 1
        return db

    def test_cached_plan_evicted_on_breach(self):
        db = self._cached_db()
        with pytest.raises(BudgetExceededError):
            db.execute(self.SQL, guard=QueryGuard(max_rows=1))
        assert len(db.plan_cache) == 0
        assert db.plan_cache.guard_invalidations == 1

    def test_partial_trip_evicts(self):
        db = self._cached_db()
        result = db.execute(
            self.SQL, guard=QueryGuard(max_rows=10, on_breach="partial")
        )
        assert result.truncated
        assert len(db.plan_cache) == 0
        assert db.plan_cache.guard_invalidations == 1

    def test_deadline_trip_evicts(self):
        class TickingClock(VirtualClock):
            def __call__(self) -> float:
                self.now += 1.0
                return self.now

        db = self._cached_db()
        with pytest.raises(QueryTimeoutError):
            db.execute(
                self.SQL, guard=QueryGuard(deadline=0.5, clock=TickingClock())
            )
        assert db.plan_cache.guard_invalidations == 1

    def test_cancellation_blames_nobody(self):
        db = self._cached_db()
        plan = db.plan_cache.get_plan(self.SQL)
        db._note_guard_breach(
            db.plan_cache, plan, QueryCancelledError("user")
        )
        assert db.plan_cache.guard_invalidations == 0
        assert len(db.plan_cache) == 1

    def test_drifted_workload_breach_is_visible(self):
        """Acceptance: stats say tiny, the data grew 20x; a row budget
        sized for the estimate trips with a typed error and evicts the
        plan planned on the stale statistics."""
        db = self._cached_db()
        # The optimizer believes 600 rows; the table silently grows.
        db.database.insert_many(
            "t", [(n, n % 7) for n in range(600, 12_000)]
        )
        plan = db.plan(self.SQL)
        # A generous 2x margin over the (stale) estimate still trips,
        # because the data actually grew 20x.
        budget = max(1, int(plan.root.estimated_rows * 2))
        with pytest.raises(BudgetExceededError) as info:
            db.execute(self.SQL, guard=QueryGuard(max_rows=budget))
        assert info.value.budget == "rows"
        assert db.plan_cache.guard_invalidations == 1
