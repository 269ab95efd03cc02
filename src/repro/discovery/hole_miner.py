"""Discovering join holes: maximal empty rectangles over a join path.

From the paper ([8], Section 2): for a join path ``one ⋈ two`` and
attributes ``one.a``, ``two.b``, find the maximal two-dimensional ranges
containing **no** tuple of the join result.  The published algorithm is
linear in the size of the join result; we reproduce that complexity
profile with a two-phase approach:

1. one pass over the join result drops every (a, b) pair onto a ``g × g``
   grid over the bounding box — O(|join|);
2. maximal empty rectangles are found *on the grid* with the classic
   largest-rectangle-in-a-histogram sweep — O(g²) independent of data
   size.

Any rectangle of empty cells is guaranteed point-free, so the discovered
holes are sound (possibly slightly smaller than the true maximal holes —
the price of the grid resolution).
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.database import Database
from repro.softcon.holes import JoinHolesSC, Rectangle


class GridHole:
    """A maximal empty rectangle in grid coordinates (inclusive cells)."""

    __slots__ = ("row_lo", "row_hi", "col_lo", "col_hi")

    def __init__(self, row_lo: int, row_hi: int, col_lo: int, col_hi: int) -> None:
        self.row_lo = row_lo
        self.row_hi = row_hi
        self.col_lo = col_lo
        self.col_hi = col_hi

    @property
    def cell_count(self) -> int:
        return (self.row_hi - self.row_lo + 1) * (self.col_hi - self.col_lo + 1)

    def __repr__(self) -> str:
        return (
            f"GridHole(rows={self.row_lo}..{self.row_hi}, "
            f"cols={self.col_lo}..{self.col_hi})"
        )


def maximal_empty_rectangles(occupied: np.ndarray) -> List[GridHole]:
    """All maximal empty (all-False) rectangles of a boolean grid.

    Histogram-based sweep: for each row, maintain the count of consecutive
    empty cells above; every position where the histogram drops closes
    candidate rectangles.  Candidates are then filtered to keep only
    maximal ones (no candidate contains another).
    """
    rows, cols = occupied.shape
    heights = np.zeros(cols, dtype=int)
    candidates: List[GridHole] = []
    for row in range(rows):
        heights = np.where(occupied[row], 0, heights + 1)
        candidates.extend(_row_candidates(heights, row, cols))
    return _keep_maximal(candidates)


def _row_candidates(
    heights: np.ndarray, row: int, cols: int
) -> List[GridHole]:
    """Maximal-width rectangles ending at ``row`` from the height profile."""
    result: List[GridHole] = []
    stack: List[Tuple[int, int]] = []  # (start_col, height)
    for col in range(cols + 1):
        height = int(heights[col]) if col < cols else 0
        start = col
        while stack and stack[-1][1] >= height:
            open_col, open_height = stack.pop()
            if open_height > 0 and (not stack or stack[-1][1] < open_height):
                result.append(
                    GridHole(
                        row - open_height + 1, row, open_col, col - 1
                    )
                )
            start = open_col
        if height > 0 and (not stack or stack[-1][1] < height):
            stack.append((start, height))
    return result


def _keep_maximal(candidates: List[GridHole]) -> List[GridHole]:
    """Drop candidates contained in another candidate."""
    kept: List[GridHole] = []
    ordered = sorted(candidates, key=lambda h: -h.cell_count)
    for hole in ordered:
        contained = any(
            other.row_lo <= hole.row_lo
            and other.row_hi >= hole.row_hi
            and other.col_lo <= hole.col_lo
            and other.col_hi >= hole.col_hi
            for other in kept
        )
        if not contained:
            kept.append(hole)
    return kept


class HoleMiner:
    """Finds join holes for one join path and attribute pair.

    Parameters
    ----------
    grid_size:
        Resolution of the discretization grid per dimension.
    min_cells:
        Grid holes smaller than this many cells are discarded (tiny holes
        buy no optimization).
    max_holes:
        Keep only the top-N holes by area.
    """

    def __init__(
        self, grid_size: int = 32, min_cells: int = 2, max_holes: int = 16
    ) -> None:
        self.grid_size = grid_size
        self.min_cells = min_cells
        self.max_holes = max_holes

    def mine(
        self,
        database: Database,
        table_one: str,
        column_a: str,
        table_two: str,
        column_b: str,
        join_column_one: str,
        join_column_two: str,
        name: Optional[str] = None,
    ) -> JoinHolesSC:
        """Run discovery; returns a CANDIDATE :class:`JoinHolesSC`."""
        constraint = JoinHolesSC(
            name=name or f"holes_{table_one}_{column_a}_{table_two}_{column_b}",
            table_one=table_one,
            column_a=column_a,
            table_two=table_two,
            column_b=column_b,
            join_column_one=join_column_one,
            join_column_two=join_column_two,
        )
        pairs = [
            (a, b)
            for a, b in constraint.path.join_pairs(database)
            if a is not None and b is not None
        ]
        constraint.holes = self.holes_from_pairs(pairs)
        return constraint

    def holes_from_pairs(
        self, pairs: Sequence[Tuple[Any, Any]]
    ) -> List[Rectangle]:
        """Grid-discretize the pairs and extract maximal empty rectangles."""
        if not pairs:
            return []
        a_values = np.array([float(p[0]) for p in pairs])
        b_values = np.array([float(p[1]) for p in pairs])
        a_low, a_high = float(a_values.min()), float(a_values.max())
        b_low, b_high = float(b_values.min()), float(b_values.max())
        if a_high <= a_low or b_high <= b_low:
            return []
        grid = self.grid_size
        a_cells = np.minimum(
            ((a_values - a_low) / (a_high - a_low) * grid).astype(int), grid - 1
        )
        b_cells = np.minimum(
            ((b_values - b_low) / (b_high - b_low) * grid).astype(int), grid - 1
        )
        occupied = np.zeros((grid, grid), dtype=bool)
        occupied[a_cells, b_cells] = True

        a_step = (a_high - a_low) / grid
        b_step = (b_high - b_low) / grid
        # A value sitting exactly on a cell boundary belongs to the *next*
        # cell, so holes are shrunk by a sliver at their high edges to keep
        # the closed Rectangle sound against boundary points.
        a_sliver = (a_high - a_low) * 1e-9
        b_sliver = (b_high - b_low) * 1e-9
        holes: List[Rectangle] = []
        for grid_hole in maximal_empty_rectangles(occupied):
            if grid_hole.cell_count < self.min_cells:
                continue
            holes.append(
                Rectangle(
                    a_low + grid_hole.row_lo * a_step,
                    a_low + (grid_hole.row_hi + 1) * a_step - a_sliver,
                    b_low + grid_hole.col_lo * b_step,
                    b_low + (grid_hole.col_hi + 1) * b_step - b_sliver,
                )
            )
        holes.sort(key=lambda r: -r.area())
        return holes[: self.max_holes]


def mine_join_holes(
    database: Database,
    table_one: str,
    column_a: str,
    table_two: str,
    column_b: str,
    join_column_one: str,
    join_column_two: str,
    grid_size: int = 32,
) -> JoinHolesSC:
    """Convenience wrapper over :class:`HoleMiner`."""
    miner = HoleMiner(grid_size=grid_size)
    return miner.mine(
        database,
        table_one,
        column_a,
        table_two,
        column_b,
        join_column_one,
        join_column_two,
    )
