"""Tests for inter-table linear correlations (JoinLinearSC)."""

import pytest

from repro.discovery.linear_miner import mine_join_linear_correlation
from repro.expr.intervals import Interval
from repro.softcon.base import SCState
from repro.softcon.joinlinear import JoinLinearSC
from repro.softcon.joinpath import JoinPathSpec
from repro.softcon.maintenance import DropPolicy, RepairPolicy
from repro.workload.schemas import build_join_linear_scenario


@pytest.fixture(scope="module")
def scenario():
    return build_join_linear_scenario(rows_per_table=1500, seed=61)


def make_sc(epsilon=10.0, confidence=1.0) -> JoinLinearSC:
    return JoinLinearSC(
        "jlin",
        table_one="freight",
        column_a="cost",
        table_two="shipments",
        column_b="weight",
        join_column_one="region_id",
        join_column_two="region_id",
        slope=3.0,
        intercept=50.0,
        epsilon=epsilon,
        confidence=confidence,
    )


class TestModel:
    def test_pair_residual_and_satisfies(self):
        sc = make_sc(epsilon=4.0)
        assert sc.residual(3.0 * 10 + 50 + 2.0, 10.0) == pytest.approx(2.0)
        assert sc.pair_satisfies(3.0 * 10 + 50 + 2.0, 10.0)
        assert not sc.pair_satisfies(3.0 * 10 + 50 + 9.0, 10.0)
        assert sc.pair_satisfies(None, 10.0)  # NULLs exempt

    def test_predict_a_interval(self):
        sc = make_sc(epsilon=4.0)
        interval = sc.forward_interval(Interval(10.0, 20.0))
        assert interval == Interval(80.0 - 4.0, 110.0 + 4.0)

    def test_predict_b_interval_inverts(self):
        sc = make_sc(epsilon=6.0)
        interval = sc.inverse_interval(Interval(80.0, 110.0))
        assert interval == Interval(10.0 - 2.0, 20.0 + 2.0)

    def test_unbounded_ranges_stay_unbounded(self):
        sc = make_sc()
        assert sc.forward_interval(Interval.at_least(1.0)).is_unbounded
        assert sc.inverse_interval(Interval.unbounded()).is_unbounded

    def test_zero_slope_cannot_invert(self):
        sc = JoinLinearSC(
            "flat", "freight", "cost", "shipments", "weight",
            "region_id", "region_id", 0.0, 5.0, 1.0,
        )
        assert sc.inverse_interval(Interval(0.0, 1.0)).is_unbounded

    def test_table_names_and_statement(self):
        sc = make_sc()
        assert sc.table_names() == ["freight", "shipments"]
        assert "JOINCHECK" in sc.statement_sql()

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            make_sc(epsilon=-1.0)


class TestJoinPathSpec:
    def test_join_pairs_follow_key(self, scenario):
        spec = JoinPathSpec(
            "freight", "cost", "shipments", "weight",
            "region_id", "region_id",
        )
        pairs = list(spec.join_pairs(scenario.database))
        assert len(pairs) > 1000

    def test_pairs_for_new_row_one_side(self, scenario):
        spec = JoinPathSpec(
            "freight", "cost", "shipments", "weight",
            "region_id", "region_id",
        )
        pairs = spec.pairs_for_new_row(
            scenario.database, "freight",
            {"region_id": 5, "cost": 123.0},
        )
        assert all(a == 123.0 for a, _ in pairs)

    def test_null_join_key_produces_no_pairs(self, scenario):
        spec = JoinPathSpec(
            "freight", "cost", "shipments", "weight",
            "region_id", "region_id",
        )
        assert spec.pairs_for_new_row(
            scenario.database, "freight", {"region_id": None, "cost": 1.0}
        ) == []


class TestMiningAndVerify:
    def test_mined_model_recovers_planted_correlation(self, scenario):
        candidates = mine_join_linear_correlation(
            scenario.database,
            "freight", "cost", "shipments", "weight",
            "region_id", "region_id",
            confidence_levels=(1.0,),
        )
        assert candidates
        asc = candidates[0]
        assert asc.slope == pytest.approx(3.0, abs=0.05)
        assert asc.intercept == pytest.approx(50.0, abs=10.0)
        violations, total = asc.verify(scenario.database)
        assert violations == 0 and total > 0

    def test_ssc_levels_emitted(self, scenario):
        candidates = mine_join_linear_correlation(
            scenario.database,
            "freight", "cost", "shipments", "weight",
            "region_id", "region_id",
            confidence_levels=(1.0, 0.9),
        )
        assert {c.confidence for c in candidates} == {1.0, 0.9}


class TestMaintenance:
    def test_violating_insert_detected_and_dropped(self):
        db = build_join_linear_scenario(rows_per_table=400, seed=62)
        sc = make_sc(epsilon=10.0)
        db.add_soft_constraint(sc, policy=DropPolicy(), verify_first=True)
        assert sc.state is SCState.ACTIVE
        # A freight row whose cost is far off the model for its region.
        db.execute("INSERT INTO freight VALUES (999999, 3, 99999.0)")
        assert sc.state is SCState.VIOLATED

    def test_repair_widens_epsilon(self):
        db = build_join_linear_scenario(rows_per_table=400, seed=63)
        sc = make_sc(epsilon=10.0)
        db.add_soft_constraint(sc, policy=RepairPolicy(), verify_first=True)
        db.execute("INSERT INTO freight VALUES (999999, 3, 99999.0)")
        assert sc.state is SCState.ACTIVE
        assert sc.epsilon > 10.0
        violations, _ = sc.verify(db.database)
        assert violations == 0

    def test_conforming_insert_keeps_asc(self):
        db = build_join_linear_scenario(rows_per_table=400, seed=64)
        sc = make_sc(epsilon=10.0)
        db.add_soft_constraint(sc, policy=DropPolicy(), verify_first=True)
        # region 3's base is whatever it is; probe an existing pair value.
        pairs = list(sc.path.join_pairs(db.database))
        a_value, _ = pairs[0]
        # Find the region of some freight row and reinsert a near-identical one.
        row = next(db.database.scan_dicts("freight"))
        db.execute(
            f"INSERT INTO freight VALUES (999999, {row['region_id']}, "
            f"{row['cost']})"
        )
        assert sc.state is SCState.ACTIVE
