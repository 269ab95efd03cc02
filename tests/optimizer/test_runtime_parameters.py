"""Tests for runtime plan parameterization (paper Section 4.2).

"It may be worth considering ASCs just for runtime query
parameterization... The actual values in the ASC are not important...
Rather, the availability of this information (of the ASC) at runtime is
important."
"""

import pytest

from repro import SoftDB
from repro.optimizer.planner import Optimizer, PlanCache
from repro.softcon.maintenance import RepairPolicy
from repro.softcon.minmax import MinMaxSC
from repro.sql import ast


def make_db() -> SoftDB:
    db = SoftDB()
    db.execute("CREATE TABLE t (id INT, v INT)")
    db.database.insert_many("t", [(n, n) for n in range(5000)])
    db.execute("CREATE INDEX ix_v ON t (v)")
    db.runstats_all()
    db.add_soft_constraint(
        MinMaxSC("vrange", "t", "v", 0, 4999), policy=RepairPolicy()
    )
    return db


HALF_OPEN = "SELECT id FROM t WHERE v >= 4990"


class TestRuntimeParameterNode:
    def test_current_value_tracks_constraint(self):
        sc = MinMaxSC("mm", "t", "x", 0, 10)
        parameter = ast.RuntimeParameter(sc, "high")
        assert parameter.current_value() == 10
        sc.widen_to(50)
        assert parameter.current_value() == 50

    def test_evaluation_is_live(self):
        from repro.expr.eval import evaluate

        sc = MinMaxSC("mm", "t", "x", 0, 10)
        expression = ast.BinaryOp(
            "<=", ast.ColumnRef("x"), ast.RuntimeParameter(sc, "high")
        )
        assert evaluate(expression, {"x": 20}) is False
        sc.widen_to(25)
        assert evaluate(expression, {"x": 20}) is True

    def test_printable_in_explain(self):
        from repro.sql.printer import sql_of

        sc = MinMaxSC("mm", "t", "x", 0, 10)
        expression = ast.BinaryOp(
            "<=", ast.ColumnRef("x"), ast.RuntimeParameter(sc, "high")
        )
        assert "PARAM(mm.high)" in sql_of(expression)

    def test_counts_as_constant_for_analysis(self):
        from repro.expr import analysis

        sc = MinMaxSC("mm", "t", "x", 0, 10)
        expression = ast.BinaryOp(
            "<=", ast.ColumnRef("x"), ast.RuntimeParameter(sc, "high")
        )
        match = analysis.match_column_comparison(expression)
        assert match is not None and match.value == 10


class TestParameterizedPlans:
    def test_abbreviation_uses_parameters(self):
        db = make_db()
        plan = db.plan(HALF_OPEN)
        assert any("runtime parameters" in r for r in plan.rewrites_applied)
        # Validity dependency only: value repairs must not evict.
        assert "vrange" in plan.sc_dependencies
        assert "vrange" not in plan.sc_value_dependencies

    def test_cached_plan_survives_widening_and_stays_correct(self):
        db = make_db()
        cache = PlanCache(db.optimizer)
        plan = cache.get_plan(HALF_OPEN)
        before = db.executor.execute(plan).row_count
        db.execute("INSERT INTO t VALUES (999999, 6000)")  # widens vrange
        again = cache.get_plan(HALF_OPEN)
        assert again is plan  # not invalidated
        assert cache.invalidations == 0
        assert db.executor.execute(again).row_count == before + 1

    def test_parameter_reaches_index_key(self):
        from repro.optimizer.physical import IndexScan

        db = make_db()
        plan = db.plan(HALF_OPEN)
        scans = _collect(plan.root, IndexScan)
        assert scans
        assert any(
            isinstance(part, ast.RuntimeParameter)
            for part in (scans[0].high or ())
        )

    def test_answers_match_unrewritten_plan_after_widening(self):
        db = make_db()
        plan = db.plan(HALF_OPEN)
        db.execute("INSERT INTO t VALUES (999999, 6000)")
        from repro.harness.runner import all_off

        baseline = Optimizer(db.database, None, all_off()).optimize(HALF_OPEN)
        got = sorted(r["id"] for r in db.executor.execute(plan).rows)
        want = sorted(r["id"] for r in db.executor.execute(baseline).rows)
        assert got == want


class TestValueChannelForOtherRepairs:
    def test_linear_epsilon_widening_fires_value_channel(self):
        from repro.softcon.linear import LinearCorrelationSC

        db = SoftDB()
        db.execute("CREATE TABLE t (a DOUBLE, b DOUBLE)")
        db.database.insert_many("t", [(x, 2.0 * x) for x in range(100)])
        db.execute("CREATE INDEX ix_b ON t (b)")
        db.runstats_all()
        sc = LinearCorrelationSC("lin", "t", "b", "a", 2.0, 0.0, 0.5)
        db.add_soft_constraint(sc, policy=RepairPolicy())
        cache = PlanCache(db.optimizer)
        sql = "SELECT b FROM t WHERE a = 50.0"
        plan = cache.get_plan(sql)
        assert "lin" in plan.sc_value_dependencies
        db.execute("INSERT INTO t VALUES (50.0, 109.0)")  # widens epsilon
        assert cache.invalidations == 1
        # The recompiled plan covers the widened band: the new row shows.
        rows = db.executor.execute(cache.get_plan(sql)).rows
        assert any(r["b"] == 109.0 for r in rows)


def _collect(root, node_type):
    found, stack = [], [root]
    while stack:
        node = stack.pop()
        if isinstance(node, node_type):
            found.append(node)
        stack.extend(node.children())
    return found
