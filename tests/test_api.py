"""Tests for the SoftDB facade."""

import pytest

from repro import SoftDB
from repro.errors import SqlError
from repro.executor.runtime import ExecutionResult
from repro.softcon.minmax import MinMaxSC


class TestExecuteDispatch:
    def test_ddl_returns_none(self, softdb):
        assert softdb.execute("CREATE TABLE t (a INT)") is None

    def test_dml_returns_counts(self, softdb):
        softdb.execute("CREATE TABLE t (a INT)")
        assert softdb.execute("INSERT INTO t VALUES (1), (2)") == 2
        assert softdb.execute("UPDATE t SET a = a + 1") == 2
        assert softdb.execute("DELETE FROM t") == 2

    def test_query_returns_result(self, softdb):
        softdb.execute("CREATE TABLE t (a INT)")
        result = softdb.execute("SELECT a FROM t")
        assert isinstance(result, ExecutionResult)

    def test_drop_table(self, softdb):
        softdb.execute("CREATE TABLE t (a INT)")
        softdb.execute("DROP TABLE t")
        assert not softdb.database.catalog.has_table("t")

    def test_create_index_via_sql(self, softdb):
        softdb.execute("CREATE TABLE t (a INT)")
        softdb.execute("INSERT INTO t VALUES (5)")
        softdb.execute("CREATE INDEX ix ON t (a)")
        assert len(softdb.database.catalog.index("ix")) == 1


class TestConstraintDDL:
    def test_pk_enforced_via_sql(self, softdb):
        from repro.errors import ConstraintViolation

        softdb.execute("CREATE TABLE t (a INT PRIMARY KEY)")
        softdb.execute("INSERT INTO t VALUES (1)")
        with pytest.raises(ConstraintViolation):
            softdb.execute("INSERT INTO t VALUES (1)")

    def test_check_constraint_via_sql(self, softdb):
        from repro.errors import ConstraintViolation

        softdb.execute("CREATE TABLE t (a INT, CHECK (a > 0))")
        with pytest.raises(ConstraintViolation):
            softdb.execute("INSERT INTO t VALUES (-1)")

    def test_informational_check_skipped(self, softdb):
        softdb.execute("CREATE TABLE t (a INT, CHECK (a > 0) NOT ENFORCED)")
        softdb.execute("INSERT INTO t VALUES (-1)")  # trusted

    def test_fk_references_pk_by_default(self, softdb):
        from repro.errors import ConstraintViolation

        softdb.execute("CREATE TABLE p (id INT PRIMARY KEY)")
        softdb.execute("CREATE TABLE c (p_id INT REFERENCES p)")
        softdb.execute("INSERT INTO p VALUES (1)")
        softdb.execute("INSERT INTO c VALUES (1)")
        with pytest.raises(ConstraintViolation):
            softdb.execute("INSERT INTO c VALUES (99)")

    def test_fk_without_parent_pk_rejected(self, softdb):
        softdb.execute("CREATE TABLE p (id INT)")
        with pytest.raises(SqlError):
            softdb.execute("CREATE TABLE c (p_id INT REFERENCES p)")


class TestSummaryTableDDL:
    def test_creates_rule_and_exceptions(self, softdb):
        softdb.execute("CREATE TABLE t (a INT, b INT)")
        softdb.execute(
            "INSERT INTO t VALUES (1, 1), (2, 2), (10, 1)"
        )
        softdb.execute(
            "CREATE SUMMARY TABLE big_gap AS (SELECT * FROM t WHERE a > b + 5)"
        )
        rule = softdb.registry.get("big_gap_rule")
        assert rule.confidence == pytest.approx(2 / 3)
        assert softdb.database.table("big_gap").row_count == 1

    def test_multi_table_select_rejected(self, softdb):
        softdb.execute("CREATE TABLE t (a INT)")
        softdb.execute("CREATE TABLE u (b INT)")
        with pytest.raises(SqlError):
            softdb.execute(
                "CREATE SUMMARY TABLE s AS "
                "(SELECT * FROM t, u WHERE t.a = u.b)"
            )

    def test_projection_rejected(self, softdb):
        softdb.execute("CREATE TABLE t (a INT)")
        with pytest.raises(SqlError):
            softdb.execute(
                "CREATE SUMMARY TABLE s AS (SELECT a FROM t WHERE a > 0)"
            )


class TestHelpers:
    def test_plan_and_explain(self, sales_softdb):
        plan = sales_softdb.plan("SELECT id FROM sale WHERE day = 1")
        assert plan.output_names == ["id"]
        assert "SeqScan" in sales_softdb.explain("SELECT id FROM sale") or (
            "IndexScan" in sales_softdb.explain("SELECT id FROM sale")
        )

    def test_add_soft_constraint_activates(self, sales_softdb):
        sc = MinMaxSC("mm", "sale", "day", 0, 49)
        sales_softdb.add_soft_constraint(sc)
        assert sc.usable_in_rewrite

    def test_cached_execution(self, sales_softdb):
        sales_softdb.execute("SELECT id FROM sale")
        sales_softdb.execute("SELECT id FROM sale")
        assert sales_softdb.plan_cache.hits == 1

    def test_runstats_all(self, softdb):
        softdb.execute("CREATE TABLE t (a INT)")
        softdb.execute("CREATE TABLE u (b INT)")
        softdb.runstats_all()
        assert softdb.database.catalog.statistics("t") is not None
        assert softdb.database.catalog.statistics("u") is not None

    def test_insert_value_count_mismatch(self, softdb):
        from repro.errors import ExecutionError

        softdb.execute("CREATE TABLE t (a INT, b INT)")
        with pytest.raises(ExecutionError):
            softdb.execute("INSERT INTO t (a) VALUES (1, 2)")


class TestDescribe:
    def test_describe_lists_everything(self, softdb):
        from repro.softcon.checksc import CheckSoftConstraint

        softdb.execute(
            "CREATE TABLE t (a INT PRIMARY KEY, b INT, "
            "CHECK (b > 0) NOT ENFORCED)"
        )
        softdb.execute("CREATE INDEX ix_b ON t (b)")
        softdb.execute("INSERT INTO t VALUES (1, 2)")
        softdb.add_soft_constraint(
            CheckSoftConstraint("soft_b", "t", "b < 100")
        )
        softdb.execute(
            "CREATE SUMMARY TABLE exc AS (SELECT * FROM t WHERE b > 50)"
        )
        text = softdb.describe()
        assert "TABLE t (" in text
        assert "INDEX ix_b" in text
        assert "PRIMARY KEY t(a)" in text
        assert "NOT ENFORCED" in text
        assert "SUMMARY TABLE exc" in text
        assert "soft_b" in text
        assert "[ASC/active]" in text or "ASC" in text

    def test_describe_empty_database(self, softdb):
        assert softdb.describe() == ""
