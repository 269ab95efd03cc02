"""Join-hole soft constraints: empty regions over a join path.

From the paper (Section 2, citing [8]): for a common join path
``one JOIN two ON one.j = two.j`` and a pair of attributes ``one.a``,
``two.b``, a *hole* is a two-dimensional range ``(a_lo..a_hi, b_lo..b_hi)``
in which the join result contains **no** tuples.  Knowing the maximal
holes lets the optimizer trim range conditions on ``a`` and ``b`` in
queries over that join path, shrinking the ranges that must be scanned.

The constraint stores a set of :class:`Rectangle` holes.  Trimming is the
sound operation of shaving a query rectangle's edges: an edge slab can be
removed when holes completely cover it.  Trimming never removes answer
tuples because holes contain none.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple, TYPE_CHECKING

from repro.expr.intervals import Interval
from repro.softcon.joinpath import JoinPathSC

if TYPE_CHECKING:  # pragma: no cover
    from repro.discovery.workload_model import Workload
    from repro.engine.database import Database


class Rectangle:
    """A closed 2-D range ``[a_low, a_high] x [b_low, b_high]``."""

    __slots__ = ("a_low", "a_high", "b_low", "b_high")

    def __init__(self, a_low: Any, a_high: Any, b_low: Any, b_high: Any) -> None:
        self.a_low = a_low
        self.a_high = a_high
        self.b_low = b_low
        self.b_high = b_high

    @property
    def a_interval(self) -> Interval:
        return Interval(self.a_low, self.a_high)

    @property
    def b_interval(self) -> Interval:
        return Interval(self.b_low, self.b_high)

    def contains_point(self, a_value: Any, b_value: Any) -> bool:
        return self.a_interval.contains(a_value) and self.b_interval.contains(
            b_value
        )

    def area(self) -> float:
        width_a = self.a_interval.width() or 0.0
        width_b = self.b_interval.width() or 0.0
        return width_a * width_b

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Rectangle):
            return NotImplemented
        return (
            self.a_low == other.a_low
            and self.a_high == other.a_high
            and self.b_low == other.b_low
            and self.b_high == other.b_high
        )

    def __hash__(self) -> int:
        return hash((self.a_low, self.a_high, self.b_low, self.b_high))

    def __repr__(self) -> str:
        return (
            f"Rectangle(a=[{self.a_low!r}, {self.a_high!r}], "
            f"b=[{self.b_low!r}, {self.b_high!r}])"
        )


class JoinHolesSC(JoinPathSC):
    """Empty 2-D regions of ``table_one ⋈ table_two`` w.r.t. (a, b).

    Parameters
    ----------
    table_one / table_two:
        The joined tables (attribute ``a`` lives in one, ``b`` in two).
    join_column_one / join_column_two:
        The equi-join columns defining the join path.
    column_a / column_b:
        The profiled attributes.
    holes:
        Maximal empty rectangles (typically found by the discovery
        algorithm in :mod:`repro.discovery.hole_miner`).

    A violation is a join-result tuple inside a hole (holes must be
    empty).
    """

    kind = "join_holes"

    def __init__(
        self,
        name: str,
        table_one: str,
        column_a: str,
        table_two: str,
        column_b: str,
        join_column_one: str,
        join_column_two: str,
        holes: Iterable[Rectangle] = (),
        confidence: float = 1.0,
    ) -> None:
        super().__init__(
            name, table_one, column_a, table_two, column_b,
            join_column_one, join_column_two, confidence,
        )
        self.holes: List[Rectangle] = list(holes)

    def statement_sql(self) -> str:
        path = self.path
        return (
            f"HOLES({len(self.holes)}) OVER {path.table_one}.{path.column_a} "
            f"x {path.table_two}.{path.column_b} ALONG "
            f"{path.table_one}.{path.join_column_one} = "
            f"{path.table_two}.{path.join_column_two}"
        )

    def record_fields(self) -> Dict[str, Any]:
        fields = super().record_fields()
        fields["holes"] = [
            [hole.a_low, hole.a_high, hole.b_low, hole.b_high]
            for hole in self.holes
        ]
        return fields

    @classmethod
    def from_record(cls, state: Dict[str, Any]) -> "JoinHolesSC":
        return cls(
            state["name"], *cls.path_args(state),
            holes=[Rectangle(*hole) for hole in state["holes"]],
            confidence=state["confidence"],
        )

    def workload_match(
        self, workload: "Workload", database: Optional["Database"]
    ) -> Tuple[float, float]:
        path = self.path
        matched = self._workload_join_frequency(workload)
        ranged = max(
            workload.range_frequency(path.table_one, path.column_a),
            workload.range_frequency(path.table_two, path.column_b),
        )
        return min(matched, ranged) if ranged else 0.0, 0.8

    def pair_satisfies(self, a_value: Any, b_value: Any) -> bool:
        return not self.point_in_hole(a_value, b_value)

    def point_in_hole(self, a_value: Any, b_value: Any) -> bool:
        return bool(self.holes_hit_by(a_value, b_value))

    # -- range trimming ----------------------------------------------------------

    def trim(
        self, a_range: Interval, b_range: Interval
    ) -> Tuple[Interval, Interval]:
        """Trim a query rectangle against the holes (paper Section 2, [8]).

        Repeatedly shaves edge slabs: if some hole covers the query's full
        ``b`` range and reaches the query's low (or high) ``a`` edge, the
        covered strip of ``a`` can be removed, and symmetrically for ``b``.
        Iterates to a fixpoint.  The result ranges are contained in the
        inputs and exclude only hole area, so the rewrite is sound.
        """
        a_current, b_current = a_range, b_range
        changed = True
        while changed and not (a_current.is_empty or b_current.is_empty):
            changed = False
            for hole in self.holes:
                trimmed = _shave(a_current, b_current, hole.a_interval, hole.b_interval)
                if trimmed is not None and trimmed != a_current:
                    a_current = trimmed
                    changed = True
                trimmed = _shave(b_current, a_current, hole.b_interval, hole.a_interval)
                if trimmed is not None and trimmed != b_current:
                    b_current = trimmed
                    changed = True
        return a_current, b_current

    # -- maintenance support ---------------------------------------------------------

    def repair(self, violating: Dict[str, Any]) -> bool:
        """Split every hole the violating pair landed in around it."""
        a_value, b_value = violating.get("__a__"), violating.get("__b__")
        for hole in self.holes_hit_by(a_value, b_value):
            self.split_hole(hole, a_value, b_value)
        return True

    def holes_hit_by(self, a_value: Any, b_value: Any) -> List[Rectangle]:
        """Holes a new (a, b) join pair lands in (these must be repaired)."""
        if a_value is None or b_value is None:
            return []
        return [h for h in self.holes if h.contains_point(a_value, b_value)]

    def drop_hole(self, hole: Rectangle) -> None:
        self.holes.remove(hole)

    def split_hole(self, hole: Rectangle, a_value: Any, b_value: Any) -> List[Rectangle]:
        """Split a violated hole around the violating point (sync repair).

        Produces up to four sub-rectangles that exclude the point's row and
        column strips.  This is the cheap *suboptimal synchronous repair* of
        Section 4.3: the fragments remain valid holes, but they are no
        longer maximal; the asynchronous miner restores maximality later.
        """
        self.holes.remove(hole)
        fragments: List[Rectangle] = []
        if hole.a_low < a_value:
            fragments.append(
                Rectangle(hole.a_low, _just_below(a_value), hole.b_low, hole.b_high)
            )
        if a_value < hole.a_high:
            fragments.append(
                Rectangle(_just_above(a_value), hole.a_high, hole.b_low, hole.b_high)
            )
        if hole.b_low < b_value:
            fragments.append(
                Rectangle(hole.a_low, hole.a_high, hole.b_low, _just_below(b_value))
            )
        if b_value < hole.b_high:
            fragments.append(
                Rectangle(hole.a_low, hole.a_high, _just_above(b_value), hole.b_high)
            )
        self.holes.extend(fragments)
        return fragments


def _shave(
    target: Interval, other: Interval, hole_target: Interval, hole_other: Interval
) -> Optional[Interval]:
    """Shave ``target`` by a hole, when the hole spans all of ``other``.

    Returns the shaved interval, or None when the hole does not apply.
    """
    if not hole_other.contains_interval(other):
        return None
    overlap = hole_target.intersect(target)
    if overlap.is_empty:
        return None
    # Hole covers the full other-range; remove the overlapped strip if it
    # touches an edge of the target interval.
    if target.low is not None and overlap.contains(target.low):
        if hole_target.contains_interval(target):
            return Interval.empty()
        return Interval(
            overlap.high,
            target.high,
            low_inclusive=False,
            high_inclusive=target.high_inclusive,
        )
    if target.high is not None and overlap.contains(target.high):
        return Interval(
            target.low,
            overlap.low,
            low_inclusive=target.low_inclusive,
            high_inclusive=False,
        )
    return None


def _just_below(value: Any) -> Any:
    """Largest representable value below ``value`` for hole splitting.

    For int domains this is ``value - 1``; for floats we nudge by a tiny
    epsilon (holes over continuous domains are approximate anyway).
    """
    if isinstance(value, int):
        return value - 1
    return float(value) - 1e-9


def _just_above(value: Any) -> Any:
    if isinstance(value, int):
        return value + 1
    return float(value) + 1e-9
