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

    @pytest.mark.parametrize("batch_size", [1024, 0])
    def test_explain_analyze_operator_lines_pinned(self, batch_size):
        """Every operator line carries ``est=/act=/qerr=``, production
        adds ``batches=``, and nothing else is appended."""
        db = SoftDB(OptimizerConfig(batch_size=batch_size))
        db.execute("CREATE TABLE emp (id INT PRIMARY KEY, dept INT, pay INT)")
        db.execute("CREATE TABLE dept (id INT PRIMARY KEY, name VARCHAR(10))")
        db.database.insert_many(
            "emp", [(n, n % 4, 100 + n) for n in range(40)]
        )
        db.database.insert_many("dept", [(d, f"d{d}") for d in range(4)])
        db.runstats_all()
        text = db.explain(
            "SELECT e.id, d.name FROM emp e JOIN dept d ON e.dept = d.id "
            "WHERE e.pay < 110 AND e.dept = 1 ORDER BY e.id",
            analyze=True,
        )
        batches = " batches=1" if batch_size else ""
        executor = (
            "production (batch_size=1024)" if batch_size else "oracle"
        )
        lines = text.splitlines()
        assert lines[:6] == [
            "Project(id, name)  [rows~2.5 cost~2.3 est=2 act=3 qerr=1.20"
            f"{batches}]",
            "  Sort(e.id)  [rows~2.5 cost~2.3 est=2 act=3 qerr=1.20"
            f"{batches}]",
            "    Extend(e.id AS id, d.name AS name)  [rows~2.5 cost~2.3"
            f" est=2 act=3 qerr=1.20{batches}]",
            "      HashJoin(on d.id=e.dept)  [rows~2.5 cost~2.3 est=2 act=3"
            f" qerr=1.20{batches}]",
            "        SeqScan(dept AS d)  [rows~4.0 cost~1.0 est=4 act=4"
            f" qerr=1.00{batches}]",
            "        SeqScan(emp AS e, filter: e.pay < 110 AND e.dept = 1)"
            f"  [rows~2.5 cost~1.2 est=2 act=3 qerr=1.20{batches}]",
        ]
        assert lines[-1] == f"actual: 3 rows, 2 pages read, executor={executor}"

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
