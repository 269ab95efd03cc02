"""E13 — Execution feedback closes the loop into plan caching.

The paper's machinery trusts whatever the statistics (and constraint-like
characterizations) say at plan time; Section 4.1's cached plans then
replay that belief forever.  E13 measures the cost of that trust when the
data drifts — and the payoff of the ``repro.feedback`` loop that revokes
it: actual per-node cardinalities are harvested into a
:class:`~repro.feedback.store.FeedbackStore`, a cached plan whose
execution misestimates past the q-error threshold is evicted, and the
reoptimization consults the observed cardinalities (including per-index
fetched-row counts, the lever that flips a wrong index choice).

Scenario: ``events`` carries indexes on ``a`` and ``b``.  RUNSTATS runs,
then a drift batch inserts rows whose ``a`` values occupy a range the
histogram believes is empty.  A query filtering on both columns makes the
stale histogram pick the ``a`` index ("nothing lives there"), which in
reality fetches *every* drifted row per execution; the ``b`` index would
fetch ~1% of that.  A static session (no feedback) pays the wrong index
on all N executions; the feedback session pays it once, evicts, replans
onto the ``b`` index, and runs fast thereafter.

Shape to reproduce: >=1.5x end-to-end speedup of the feedback session
over the static session across ``EXECUTIONS`` cached executions,
identical results, exactly one feedback invalidation.  Emits
``BENCH_e13.json`` for ``check_bench_regression.py``.

Set ``E13_FAST=1`` for a smoke-sized run (CI): smaller data, results
written to a temp directory (the committed BENCH_e13.json is never
clobbered), and a loosened 1.1x assertion.
"""

import json
import os
import tempfile
import time
from pathlib import Path

import pytest

from repro import SoftDB
from repro.optimizer.physical import IndexScan
from repro.optimizer.planner import OptimizerConfig, PlanCache

FAST = bool(os.environ.get("E13_FAST"))

#: Rows per phase (pre-drift and drift); the table ends with twice this.
ROWS = 6_000 if FAST else 60_000
#: Cached executions per session: the static session pays the wrong
#: index every time, the feedback session only on the first.
EXECUTIONS = 6
TARGET_SPEEDUP = 1.1 if FAST else 1.5
RESULTS_PATH = (
    Path(tempfile.mkdtemp(prefix="bench_e13_")) / "BENCH_e13.json"
    if FAST
    else Path(__file__).resolve().parent / "BENCH_e13.json"
)

#: ``a`` drifts into [900000, 1000000) after RUNSTATS; ``b`` keeps its
#: distribution, so its histogram stays honest: ~0.5% match b >= 995000.
A_CUTOFF = 900_000.0
DRIFT_SQL = (
    "SELECT e.grp, count(*) AS n, sum(e.a * d.factor) AS s "
    "FROM events e, dim d "
    "WHERE e.grp = d.grp AND e.a >= 900000.0 AND e.b >= 995000.0 "
    "GROUP BY e.grp"
)


def _build_db(collect_feedback: bool) -> SoftDB:
    db = SoftDB(OptimizerConfig(collect_feedback=collect_feedback))
    db.execute(
        "CREATE TABLE events (id INT, a DOUBLE, b DOUBLE, grp INT)"
    )
    db.execute("CREATE TABLE dim (grp INT, factor DOUBLE)")
    db.execute("CREATE INDEX idx_a ON events (a)")
    db.execute("CREATE INDEX idx_b ON events (b)")
    db.database.insert_many(
        "dim", [(g, 1.0 + g / 10.0) for g in range(16)]
    )
    # Value order is scrambled so neither index is clustered.
    db.database.insert_many(
        "events",
        [
            (
                i,
                float((i * 7919) % 900_000),
                float((i * 104729) % 1_000_000),
                i % 16,
            )
            for i in range(ROWS)
        ],
    )
    db.runstats_all()  # histograms frozen before the drift
    db.database.insert_many(
        "events",
        [
            (
                ROWS + i,
                A_CUTOFF + (i * 6007) % 100_000,
                float(((ROWS + i) * 104729) % 1_000_000),
                i % 16,
            )
            for i in range(ROWS)
        ],
    )
    return db


@pytest.fixture(scope="module")
def static_db() -> SoftDB:
    return _build_db(collect_feedback=False)


@pytest.fixture(scope="module")
def feedback_db() -> SoftDB:
    return _build_db(collect_feedback=True)


def _reset_session(db: SoftDB) -> None:
    """Fresh plan cache and feedback state over the same data."""
    db.plan_cache = PlanCache(
        db.optimizer,
        qerror_threshold=(
            db.config.feedback_qerror_threshold
            if db.feedback is not None
            else None
        ),
    )
    if db.feedback is not None:
        db.feedback.clear()


def _index_used(plan):
    stack = [plan.root]
    while stack:
        node = stack.pop()
        if isinstance(node, IndexScan):
            return node.index_name
        stack.extend(node.children())
    return None


def _run_workload(db: SoftDB):
    last = None
    for _ in range(EXECUTIONS):
        last = db.execute(DRIFT_SQL)
    return last


def _timed_workload(db: SoftDB, repetitions: int = 3) -> float:
    times = []
    for _ in range(repetitions):
        _reset_session(db)
        start = time.perf_counter()
        _run_workload(db)
        times.append(time.perf_counter() - start)
    return min(times)


def _row_key(row):
    # SUM() order differs between the two plans' scan orders, so float
    # aggregates are compared at a fixed precision.
    return tuple(
        (
            value is None,
            round(value, 3) if isinstance(value, float) else (value or 0),
        )
        for value in row
    )


def test_e13_feedback_flips_the_index_choice(feedback_db, static_db):
    """Correctness of the loop itself, independent of wall time."""
    _reset_session(feedback_db)
    _reset_session(static_db)
    first = feedback_db.execute(DRIFT_SQL)
    # The stale histogram picked the drifted-column index ...
    assert first.max_qerror >= feedback_db.config.feedback_qerror_threshold
    assert feedback_db.plan_cache.feedback_invalidations == 1
    # ... and the reoptimized plan abandons it for the honest index.
    replanned = feedback_db.plan_cache.get_plan(DRIFT_SQL)
    assert _index_used(replanned) == "idx_b"
    second = feedback_db.execute(DRIFT_SQL)
    assert sorted(map(_row_key, second.tuples())) == sorted(
        map(_row_key, first.tuples())
    )
    # Steady state: the corrected plan estimates well, no further churn.
    assert second.max_qerror < feedback_db.config.feedback_qerror_threshold
    assert feedback_db.plan_cache.feedback_invalidations == 1
    # The static session keeps replaying the stale choice every time.
    static_db.execute(DRIFT_SQL)
    assert _index_used(static_db.plan_cache.get_plan(DRIFT_SQL)) == "idx_a"
    assert static_db.plan_cache.invalidations == 0


def test_e13_report_speedup_and_emit_json(report, feedback_db, static_db):
    """The headline comparison: writes BENCH_e13.json and gates on it."""
    _reset_session(static_db)
    _reset_session(feedback_db)
    static_result = _run_workload(static_db)
    feedback_result = _run_workload(feedback_db)
    assert sorted(map(_row_key, feedback_result.tuples())) == sorted(
        map(_row_key, static_result.tuples())
    )
    static_pages = static_result.page_reads
    feedback_pages = feedback_result.page_reads

    static_s = _timed_workload(static_db)
    feedback_s = _timed_workload(feedback_db)
    speedup = static_s / feedback_s
    pipelines = [
        {
            "name": f"drifted-index-choice-{2 * ROWS}",
            "sql": DRIFT_SQL,
            "rows": 2 * ROWS,
            "executions": EXECUTIONS,
            "static_s": round(static_s, 4),
            "feedback_s": round(feedback_s, 4),
            "speedup": round(speedup, 2),
            "target_speedup": TARGET_SPEEDUP,
            "headline": True,
        }
    ]
    loop = {
        "feedback_invalidations": feedback_db.plan_cache.feedback_invalidations,
        "observations": feedback_db.feedback.observations,
        "harvests": feedback_db.feedback.harvests,
        "static_steady_state_pages": static_pages,
        "feedback_steady_state_pages": feedback_pages,
    }
    RESULTS_PATH.write_text(
        json.dumps(
            {"experiment": "E13", "pipelines": pipelines, "loop": loop},
            indent=2,
        )
        + "\n"
    )
    report(
        f"E13: static vs feedback-corrected cached plan "
        f"({2 * ROWS} rows, {EXECUTIONS} executions)",
        ["pipeline", "static s", "feedback s", "speedup x"],
        [
            [p["name"], p["static_s"], p["feedback_s"], p["speedup"]]
            for p in pipelines
        ],
    )
    report(
        "E13: loop shape (steady-state per-execution pages)",
        ["metric", "value"],
        [[key, value] for key, value in loop.items()],
    )
    assert loop["feedback_invalidations"] == 1
    assert feedback_pages < static_pages
    assert speedup >= TARGET_SPEEDUP
    # The gate must accept the file it will re-check at session end.
    from check_bench_regression import check_regressions

    assert check_regressions(RESULTS_PATH) == []
