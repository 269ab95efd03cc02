"""Property-based tests on the cardinality estimator.

Invariants: selectivities stay in [0, 1]; estimates stay in [0, N]; the
twinning blend interpolates between the correlated and independence
estimates; interval consolidation never yields a *larger* estimate than
the loosest single predicate.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.database import Database
from repro.engine.schema import Column, TableSchema
from repro.engine.types import INTEGER
from repro.optimizer.cardinality import CardinalityEstimator
from repro.optimizer.logical import EstimationPredicate
from repro.sql import ast
from repro.stats.runstats import runstats


def _build_database(values) -> Database:
    database = Database()
    database.create_table(
        TableSchema("t", [Column("x", INTEGER), Column("y", INTEGER)])
    )
    database.insert_many("t", [(v, (v * 7) % 50) for v in values])
    runstats(database, "t")
    return database


def comparison(column, op, value):
    return ast.BinaryOp(op, ast.ColumnRef(column, "t"), ast.Literal(value))


predicate_specs = st.lists(
    st.tuples(
        st.sampled_from(["x", "y"]),
        st.sampled_from(["=", "<", "<=", ">", ">=", "<>"]),
        st.integers(min_value=-10, max_value=60),
    ),
    min_size=0,
    max_size=4,
)

column_values = st.lists(
    st.integers(min_value=0, max_value=50), min_size=1, max_size=120
)


@given(column_values, predicate_specs)
@settings(max_examples=80, deadline=None)
def test_estimates_bounded(values, specs):
    database = _build_database(values)
    estimator = CardinalityEstimator(database)
    conjuncts = [comparison(c, op, v) for c, op, v in specs]
    estimate = estimator.scan_rows("t", conjuncts)
    assert 0.0 <= estimate <= len(values) + 1e-9
    selectivity = estimator.conjunction_selectivity("t", conjuncts)
    assert 0.0 <= selectivity <= 1.0


@given(column_values, predicate_specs)
@settings(max_examples=60, deadline=None)
def test_adding_conjuncts_never_increases_estimate(values, specs):
    database = _build_database(values)
    estimator = CardinalityEstimator(database)
    conjuncts = [comparison(c, op, v) for c, op, v in specs]
    previous = estimator.scan_rows("t", [])
    for upto in range(1, len(conjuncts) + 1):
        current = estimator.scan_rows("t", conjuncts[:upto])
        assert current <= previous + 1e-9
        previous = current


@given(
    column_values,
    st.integers(min_value=0, max_value=50),
    st.floats(min_value=0.01, max_value=1.0),
)
@settings(max_examples=60, deadline=None)
def test_twinning_blend_interpolates(values, bound, confidence):
    database = _build_database(values)
    estimator = CardinalityEstimator(database)
    conjuncts = [comparison("x", "<=", bound), comparison("y", ">=", 5)]
    twin = EstimationPredicate(
        expression=comparison("y", "<=", bound + 10),
        confidence=confidence,
        source="sc",
        linked_columns=("x", "y"),
    )
    plain = estimator.scan_rows("t", conjuncts)
    blended = estimator.scan_rows("t", conjuncts, [twin])
    full = CardinalityEstimator(database).scan_rows(
        "t",
        conjuncts,
        [EstimationPredicate(twin.expression, 1.0, "sc", ("x", "y"))],
    )
    low, high = sorted([plain, full])
    assert low - 1e-9 <= blended <= high + 1e-9
