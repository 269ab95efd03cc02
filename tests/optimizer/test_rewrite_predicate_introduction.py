"""Tests for predicate introduction and hole trimming (E1/E4 mechanics)."""

import pytest

from repro.discovery.linear_miner import mine_linear_correlations
from repro.discovery.hole_miner import mine_join_holes
from repro.harness.runner import compare_optimizers
from repro.optimizer.physical import IndexScan
from repro.softcon.minmax import MinMaxSC
from repro.workload.schemas import (
    build_correlated_table,
    build_join_hole_scenario,
)


@pytest.fixture(scope="module")
def corr_db():
    db = build_correlated_table(rows=5000, noise=5.0, seed=2)
    (asc,) = mine_linear_correlations(
        db.database, "meas", [("a", "b")], confidence_levels=(1.0,)
    )
    db.add_soft_constraint(asc, verify_first=True)
    return db


class TestLinearIntroduction:
    def test_point_predicate_introduces_band(self, corr_db):
        plan = corr_db.plan("SELECT id FROM meas WHERE b = 500.0")
        assert any(
            "predicate_introduction" in r for r in plan.rewrites_applied
        )
        assert plan.sc_dependencies  # plan depends on the ASC

    def test_introduced_band_opens_index_path(self, corr_db):
        plan = corr_db.plan("SELECT id FROM meas WHERE b = 500.0")
        scans = _nodes_of_type(plan.root, IndexScan)
        assert scans and scans[0].index_name == "idx_meas_a"

    def test_range_predicate_also_introduces(self, corr_db):
        plan = corr_db.plan(
            "SELECT id FROM meas WHERE b BETWEEN 500.0 AND 510.0"
        )
        assert any(
            "predicate_introduction" in r for r in plan.rewrites_applied
        )

    def test_answers_identical_and_cheaper(self, corr_db):
        enabled, disabled = compare_optimizers(
            corr_db, "SELECT id, a FROM meas WHERE b = 250.0"
        )
        # The index path reads the band's rows (one page fetch each) plus
        # the descent, against a full scan: clearly fewer pages.
        assert enabled.page_reads < disabled.page_reads * 0.7

    def test_no_introduction_without_b_predicate(self, corr_db):
        plan = corr_db.plan("SELECT id FROM meas WHERE a > 100.0")
        assert not any(
            "predicate_introduction" in r for r in plan.rewrites_applied
        )

    def test_ssc_cannot_introduce(self, corr_db):
        from repro.softcon.linear import LinearCorrelationSC

        ssc = LinearCorrelationSC(
            "weak", "meas", "a", "b", 3.0, 10.0, 1.0, confidence=0.9
        )
        corr_db.add_soft_constraint(ssc)
        plan = corr_db.plan("SELECT id FROM meas WHERE b = 500.0")
        assert "weak" not in plan.sc_dependencies

    def test_index_requirement_heuristic(self):
        db = build_correlated_table(rows=1000, noise=5.0, seed=2, with_index=False)
        (asc,) = mine_linear_correlations(
            db.database, "meas", [("a", "b")], confidence_levels=(1.0,)
        )
        db.add_soft_constraint(asc)
        plan = db.plan("SELECT id FROM meas WHERE b = 500.0")
        # No index on a: the DB2 heuristic suppresses the introduction.
        assert not any(
            "predicate_introduction" in r for r in plan.rewrites_applied
        )


class TestMinMaxAbbreviation:
    def test_out_of_range_query_becomes_empty(self, sales_softdb):
        sales_softdb.add_soft_constraint(
            MinMaxSC("mm_day", "sale", "day", 0, 49)
        )
        plan = sales_softdb.plan("SELECT id FROM sale WHERE day > 60")
        assert any(
            "predicate_introduction" in r for r in plan.rewrites_applied
        )
        result = sales_softdb.executor.execute(plan)
        assert result.row_count == 0

    def test_half_open_range_abbreviated(self, sales_softdb):
        sales_softdb.add_soft_constraint(
            MinMaxSC("mm_day2", "sale", "day", 0, 49)
        ) if "mm_day2" not in sales_softdb.registry.names() else None
        plan = sales_softdb.plan("SELECT id FROM sale WHERE day >= 40")
        fired = [
            r for r in plan.rewrites_applied if "abbreviated" in r
        ]
        assert fired


class TestHoleTrimming:
    @pytest.fixture(scope="class")
    def hole_db(self):
        db = build_join_hole_scenario(rows_per_table=2500, seed=6)
        constraint = mine_join_holes(
            db.database,
            "orders", "lead_time",
            "deliveries", "distance",
            "region_id", "region_id",
            grid_size=16,
        )
        db.add_soft_constraint(constraint, verify_first=True)
        return db

    QUERY = (
        "SELECT o.id FROM orders o, deliveries d "
        "WHERE o.region_id = d.region_id "
        "AND o.lead_time >= 30.0 AND d.distance BETWEEN 30.0 AND 45.0"
    )

    def test_trim_fires(self, hole_db):
        plan = hole_db.plan(self.QUERY)
        assert any("trimmed" in r for r in plan.rewrites_applied)

    def test_answers_preserved(self, hole_db):
        enabled, disabled = compare_optimizers(hole_db, self.QUERY)
        assert enabled.row_count == disabled.row_count

    def test_no_trim_without_join_path(self, hole_db):
        plan = hole_db.plan(
            "SELECT o.id FROM orders o WHERE o.lead_time >= 30.0"
        )
        assert not any("trimmed" in r for r in plan.rewrites_applied)


def _nodes_of_type(root, node_type):
    found = []
    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, node_type):
            found.append(node)
        stack.extend(node.children())
    return found
