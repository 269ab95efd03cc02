"""Tests for join-hole soft constraints: trimming, verify, repair."""

import pytest

from repro.engine.database import Database
from repro.engine.schema import Column, TableSchema
from repro.engine.types import DOUBLE, INTEGER
from repro.expr.intervals import Interval
from repro.softcon.holes import JoinHolesSC, Rectangle


@pytest.fixture
def sc() -> JoinHolesSC:
    return JoinHolesSC(
        "holes",
        table_one="one",
        column_a="a",
        table_two="two",
        column_b="b",
        join_column_one="j",
        join_column_two="j",
        holes=[Rectangle(25.0, 50.0, 25.0, 50.0)],
    )


class TestRectangle:
    def test_contains_point(self):
        rect = Rectangle(0, 10, 0, 10)
        assert rect.contains_point(5, 5)
        assert rect.contains_point(0, 10)
        assert not rect.contains_point(11, 5)
        assert not rect.contains_point(5, -1)

    def test_none_never_inside(self):
        rect = Rectangle(0, 10, 0, 10)
        assert not rect.contains_point(None, 5)

    def test_area(self):
        assert Rectangle(0, 4, 0, 5).area() == 20.0


class TestTrim:
    def test_trim_high_edge_of_a(self, sc):
        # Query box a in [0, 50] x b in [30, 40]: the hole covers the whole
        # b-range, so a can be trimmed to [0, 25).
        a_range, b_range = sc.trim(Interval(0.0, 50.0), Interval(30.0, 40.0))
        assert a_range.high == 25.0 and not a_range.high_inclusive
        assert b_range == Interval(30.0, 40.0)

    def test_trim_low_edge(self, sc):
        a_range, _ = sc.trim(Interval(30.0, 80.0), Interval(30.0, 40.0))
        assert a_range.low == 50.0 and not a_range.low_inclusive

    def test_query_inside_hole_becomes_empty(self, sc):
        a_range, b_range = sc.trim(Interval(30.0, 40.0), Interval(30.0, 40.0))
        assert a_range.is_empty or b_range.is_empty

    def test_no_trim_when_hole_does_not_span(self, sc):
        # b range extends past the hole: cannot trim a.
        a_range, b_range = sc.trim(Interval(0.0, 50.0), Interval(10.0, 40.0))
        assert a_range == Interval(0.0, 50.0)
        assert b_range == Interval(10.0, 40.0)

    def test_interior_hole_cannot_trim(self, sc):
        # Hole strictly inside the a-range (touches neither edge).
        a_range, _ = sc.trim(Interval(0.0, 80.0), Interval(30.0, 40.0))
        assert a_range == Interval(0.0, 80.0)

    def test_iterative_trimming(self):
        sc = JoinHolesSC(
            "holes2", "one", "a", "two", "b", "j", "j",
            holes=[
                Rectangle(40.0, 60.0, 0.0, 100.0),  # trims a to [0,40)
                Rectangle(0.0, 100.0, 80.0, 100.0),  # trims b to [0,80)
            ],
        )
        a_range, b_range = sc.trim(Interval(0.0, 60.0), Interval(50.0, 100.0))
        assert a_range.high == 40.0
        assert b_range.high == 80.0

    def test_trim_never_loses_answers(self, sc):
        # Points outside the hole must stay inside the trimmed box.
        points = [(10.0, 35.0), (20.0, 39.9), (24.9, 30.0)]
        a_range, b_range = sc.trim(Interval(0.0, 50.0), Interval(30.0, 40.0))
        for a, b in points:
            assert a_range.contains(a) and b_range.contains(b)


class TestVerifyAndRepair:
    @pytest.fixture
    def database(self) -> Database:
        db = Database()
        db.create_table(
            TableSchema(
                "one", [Column("j", INTEGER), Column("a", DOUBLE)]
            )
        )
        db.create_table(
            TableSchema(
                "two", [Column("j", INTEGER), Column("b", DOUBLE)]
            )
        )
        for n in range(20):
            db.insert("one", [n, 10.0])
            db.insert("two", [n, 10.0])
        return db

    def test_verify_clean(self, sc, database):
        violations, total = sc.verify(database)
        assert violations == 0 and total == 20

    def test_verify_detects_pair_in_hole(self, sc, database):
        database.insert("one", [0, 30.0])
        database.insert("two", [0, 30.0])
        violations, _ = sc.verify(database)
        assert violations >= 1

    def test_join_pairs_follow_join_key(self, sc, database):
        pairs = list(sc.path.join_pairs(database))
        assert len(pairs) == 20  # one match per key

    def test_split_hole_excludes_point(self, sc):
        hole = sc.holes[0]
        fragments = sc.split_hole(hole, 30.0, 30.0)
        assert hole not in sc.holes
        assert fragments
        assert not sc.point_in_hole(30.0, 30.0)

    def test_split_preserves_other_area(self, sc):
        sc.split_hole(sc.holes[0], 30.0, 30.0)
        # A far corner of the original hole is still covered by a fragment.
        assert sc.point_in_hole(49.0, 49.0)

    def test_drop_hole(self, sc):
        sc.drop_hole(sc.holes[0])
        assert sc.holes == []

    def test_row_satisfies_not_applicable(self, sc):
        with pytest.raises(NotImplementedError):
            sc.row_satisfies({})
