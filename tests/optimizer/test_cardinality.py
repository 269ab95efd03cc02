"""Tests for cardinality estimation, including the twinning adjustment."""

import pytest

from repro.optimizer.cardinality import CardinalityEstimator
from repro.optimizer.logical import EstimationPredicate
from repro.sql.parser import parse_expression
from repro.stats.errors import q_error
from repro.workload.schemas import build_project_table


@pytest.fixture(scope="module")
def project_db():
    return build_project_table(rows=4000, long_fraction=0.1, seed=9)


def conjuncts(*texts):
    return [parse_expression(text) for text in texts]


class TestBaselineEstimates:
    def test_no_predicates_returns_base_rows(self, project_db):
        estimator = CardinalityEstimator(project_db.database)
        assert estimator.scan_rows("project", []) == 4000

    def test_equality_estimate_reasonable(self, project_db):
        estimator = CardinalityEstimator(project_db.database)
        estimate = estimator.scan_rows("project", conjuncts("id = 17"))
        assert estimate == pytest.approx(1.0, abs=2.0)

    def test_range_estimate_tracks_actual(self, project_db):
        estimator = CardinalityEstimator(project_db.database)
        rows = project_db.query(
            "SELECT count(*) AS n FROM project WHERE start_date < 11300"
        )
        actual = rows[0]["n"]
        estimate = estimator.scan_rows(
            "project", conjuncts("start_date < 11300")
        )
        assert q_error(estimate, actual) < 1.5

    def test_same_column_intervals_consolidated(self, project_db):
        estimator = CardinalityEstimator(project_db.database)
        merged = estimator.conjunction_selectivity(
            "project", conjuncts("start_date >= 11000", "start_date <= 11100")
        )
        between = estimator.conjunction_selectivity(
            "project", conjuncts("start_date BETWEEN 11000 AND 11100")
        )
        assert merged == pytest.approx(between, rel=1e-9)

    def test_contradictory_intervals_give_zero(self, project_db):
        estimator = CardinalityEstimator(project_db.database)
        estimate = estimator.scan_rows(
            "project", conjuncts("start_date > 12000", "start_date < 11000")
        )
        assert estimate == 0.0

    def test_unknown_table_statistics_fall_back(self, project_db):
        estimator = CardinalityEstimator(project_db.database)
        # Live row count used when no stats exist.
        project_db.database.catalog._statistics.clear()
        assert estimator.base_rows("project") == 4000
        project_db.runstats_all()


class TestTwinningAdjustment:
    """The paper's Section 5.1 mechanism: the correlated date predicate."""

    QUERY = ("start_date <= 11500", "end_date >= 11500")

    def actual(self, project_db):
        return project_db.query(
            "SELECT count(*) AS n FROM project "
            "WHERE start_date <= 11500 AND end_date >= 11500"
        )[0]["n"]

    def twin(self, confidence):
        return EstimationPredicate(
            expression=parse_expression("start_date >= 11470"),
            confidence=confidence,
            source="short_projects",
        )

    def test_independence_underestimates_badly(self, project_db):
        estimator = CardinalityEstimator(project_db.database)
        plain = estimator.scan_rows("project", conjuncts(*self.QUERY))
        assert q_error(plain, self.actual(project_db)) > 3.0

    def test_twinned_estimate_is_much_better(self, project_db):
        estimator = CardinalityEstimator(project_db.database)
        twinned = estimator.scan_rows(
            "project", conjuncts(*self.QUERY), [self.twin(0.9)]
        )
        plain = estimator.scan_rows("project", conjuncts(*self.QUERY))
        actual = self.actual(project_db)
        assert q_error(twinned, actual) < q_error(plain, actual) / 2

    def test_confidence_blends(self, project_db):
        estimator = CardinalityEstimator(project_db.database)
        plain = estimator.scan_rows("project", conjuncts(*self.QUERY))
        full = estimator.scan_rows(
            "project", conjuncts(*self.QUERY), [self.twin(1.0)]
        )
        half = estimator.scan_rows(
            "project", conjuncts(*self.QUERY), [self.twin(0.5)]
        )
        assert full < half < plain or full > half > plain
        assert half == pytest.approx(0.5 * full + 0.5 * plain, rel=1e-6)


class TestJoinSelectivity:
    def test_equijoin_uses_distinct_counts(self, sales_softdb):
        sales_softdb.execute(
            "CREATE TABLE regions (region VARCHAR(10), boss VARCHAR(10))"
        )
        sales_softdb.database.insert_many(
            "regions", [("east", "e"), ("west", "w")]
        )
        sales_softdb.runstats_all()
        estimator = CardinalityEstimator(sales_softdb.database)
        selectivity = estimator.join_selectivity(
            parse_expression("s.region = r.region"),
            {"s": "sale", "r": "regions"},
        )
        assert selectivity == pytest.approx(1 / 4)  # 4 distinct regions

    def test_non_equijoin_default(self, sales_softdb):
        estimator = CardinalityEstimator(sales_softdb.database)
        selectivity = estimator.join_selectivity(
            parse_expression("s.day < r.day"), {"s": "sale", "r": "sale"}
        )
        assert 0.0 < selectivity < 1.0


class TestGroupOutput:
    def test_group_rows_capped_by_input(self, sales_softdb):
        from repro.sql import ast

        estimator = CardinalityEstimator(sales_softdb.database)
        rows = estimator.group_output_rows(
            10.0, [ast.ColumnRef("day", "s")], {"s": "sale"}
        )
        assert rows <= 10.0

    def test_group_rows_uses_ndv(self, sales_softdb):
        from repro.sql import ast

        estimator = CardinalityEstimator(sales_softdb.database)
        rows = estimator.group_output_rows(
            200.0, [ast.ColumnRef("region", "s")], {"s": "sale"}
        )
        assert rows == pytest.approx(4.0)
