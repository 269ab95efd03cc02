"""Tests for EXPLAIN ANALYZE (instrumented execution)."""

import pytest

from repro import SoftDB
from repro.optimizer.planner import OptimizerConfig


class TestInstrumentedExecution:
    def test_actual_rows_recorded_per_node(self, sales_softdb):
        plan = sales_softdb.plan(
            "SELECT region, count(*) AS n FROM sale WHERE day < 10 "
            "GROUP BY region"
        )
        sales_softdb.executor.execute(plan, instrument=True)
        nodes = _all_nodes(plan.root)
        assert all(node.actual_rows is not None for node in nodes)
        # The group output has 4 regions; its input has 40 rows.
        root_actual = plan.root.actual_rows
        assert root_actual == 4

    def test_uninstrumented_leaves_no_actuals(self, sales_softdb):
        plan = sales_softdb.plan("SELECT id FROM sale")
        sales_softdb.executor.execute(plan)
        assert plan.root.actual_rows is None

    def test_instrumented_and_plain_agree(self, sales_softdb):
        plan = sales_softdb.plan("SELECT id FROM sale WHERE day BETWEEN 3 AND 9")
        plain = sales_softdb.executor.execute(plan)
        instrumented = sales_softdb.executor.execute(plan, instrument=True)
        assert plain.tuples() == instrumented.tuples()
        assert plain.page_reads == instrumented.page_reads

    def test_explain_analyze_text(self, sales_softdb):
        text = sales_softdb.explain(
            "SELECT id FROM sale WHERE day = 3", analyze=True
        )
        assert "est=" in text
        assert "act=" in text
        assert "qerr=" in text
        assert text.endswith("pages read, executor=production (batch_size=1024)")

    def test_explain_analyze_names_the_path_that_ran(self):
        # No closures on the plan: the default executor ran the oracle.
        db = SoftDB(OptimizerConfig(compile_expressions=False))
        db.execute("CREATE TABLE t (a INT)")
        text = db.explain("SELECT a FROM t WHERE a = 1", analyze=True)
        assert text.splitlines()[-1].endswith("pages read, executor=oracle")

    def test_plain_explain_has_no_actuals(self, sales_softdb):
        text = sales_softdb.explain("SELECT id FROM sale WHERE day = 3")
        assert "act=" not in text
        assert "qerr=" not in text

    def test_estimates_track_actuals_on_uniform_data(self, sales_softdb):
        plan = sales_softdb.plan("SELECT id FROM sale WHERE day < 25")
        sales_softdb.executor.execute(plan, instrument=True)
        scan = plan.root
        while scan.children():
            scan = scan.children()[0]
        assert scan.actual_rows == pytest.approx(
            scan.estimated_rows, rel=0.25
        )


def _all_nodes(root):
    found, stack = [], [root]
    while stack:
        node = stack.pop()
        found.append(node)
        stack.extend(node.children())
    return found
