"""Tests for linear-correlation soft constraints."""

import pytest

from repro.expr.eval import evaluate
from repro.expr.intervals import Interval
from repro.softcon.linear import LinearCorrelationSC


@pytest.fixture
def sc() -> LinearCorrelationSC:
    # a = 2*b + 10 within ±3
    return LinearCorrelationSC("lin", "t", "a", "b", 2.0, 10.0, 3.0)


class TestModel:
    def test_predict_interval(self, sc):
        interval = sc.forward_interval(Interval.point(5.0))
        assert interval == Interval(17.0, 23.0)

    def test_predict_for_b_range(self, sc):
        interval = sc.forward_interval(Interval(0.0, 10.0))
        assert interval == Interval(7.0, 33.0)

    def test_predict_for_negative_slope(self):
        negative = LinearCorrelationSC("n", "t", "a", "b", -1.0, 0.0, 1.0)
        interval = negative.forward_interval(Interval(0.0, 10.0))
        assert interval == Interval(-11.0, 1.0)

    def test_predict_for_unbounded_range_stays_unbounded(self, sc):
        interval = sc.forward_interval(Interval.at_least(5.0))
        assert interval.is_unbounded

    def test_predict_for_empty_range_is_empty(self, sc):
        assert sc.forward_interval(Interval.empty()).is_empty

    def test_row_satisfies_inside_band(self, sc):
        assert sc.row_satisfies({"a": 20.0, "b": 5.0}) is True
        assert sc.row_satisfies({"a": 23.0, "b": 5.0}) is True

    def test_row_satisfies_outside_band(self, sc):
        assert sc.row_satisfies({"a": 24.0, "b": 5.0}) is False

    def test_null_rows_satisfy(self, sc):
        assert sc.row_satisfies({"a": None, "b": 5.0}) is True

    def test_residual(self, sc):
        assert sc.residual(25.0, 5.0) == pytest.approx(5.0)
        assert sc.residual(None, 5.0) is None

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            LinearCorrelationSC("x", "t", "a", "b", 1.0, 0.0, -1.0)


class TestIntroducedPredicate:
    def test_predicate_semantics_match_model(self, sc):
        from repro.sql import ast

        predicate = sc.introduced_predicate(ast.Literal(5.0))
        # a BETWEEN 17 AND 23 given b = 5
        assert evaluate(predicate, {"a": 20.0}) is True
        assert evaluate(predicate, {"a": 16.9}) is False
        assert evaluate(predicate, {"a": 23.0}) is True

    def test_qualified_reference(self, sc):
        from repro.sql import ast

        predicate = sc.introduced_predicate(ast.Literal(5.0), qualifier="q")
        assert evaluate(predicate, {"q.a": 20.0}) is True

    def test_verify_against_database(self):
        from repro.engine.database import Database
        from repro.engine.schema import Column, TableSchema
        from repro.engine.types import DOUBLE

        db = Database()
        db.create_table(
            TableSchema("t", [Column("a", DOUBLE), Column("b", DOUBLE)])
        )
        for n in range(50):
            db.insert("t", [2.0 * n + 10.0, float(n)])
        db.insert("t", [999.0, 1.0])  # one outlier
        sc = LinearCorrelationSC("lin", "t", "a", "b", 2.0, 10.0, 0.5)
        violations, total = sc.verify(db)
        assert violations == 1 and total == 51
        assert sc.confidence == pytest.approx(50 / 51)
