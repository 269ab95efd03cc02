"""Cardinality estimation, including the SSC twinning adjustment.

The baseline estimator is a classic System-R/DB2 model: per-column
statistics, interval consolidation for multiple range predicates on the
same column, and the *independence assumption* across columns.

The paper's contribution (Section 5.1) plugs in here: a statistical soft
constraint relates two columns, so a predicate on one can be **twinned**
into an estimation-only predicate on the other.  The twinned predicate is
consolidated with the query's own predicates on that column, and — since
the SC ties the linked columns together — the linked columns' predicates
are combined as *perfectly correlated* (the group's selectivity is the
minimum member fraction, the paper's "reducing the range predicates on
two columns to ... a single column") rather than multiplied as
independent.  The SSC's confidence blends the twinned estimate with the
plain independence estimate:

    ``estimate = confidence * with_twins + (1 - confidence) * without``

so a 100%-confidence SC pins the estimate and a weak one barely moves it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine.database import Database
from repro.errors import OptimizerError
from repro.expr import analysis
from repro.expr.intervals import Interval
from repro.optimizer.logical import EstimationPredicate, QueryBlock
from repro.sql import ast
from repro.stats.runstats import TableStats
from repro.stats.selectivity import (
    DEFAULT_OTHER_SELECTIVITY,
    SelectivityEstimator,
)

DEFAULT_JOIN_SELECTIVITY = 0.1


class CardinalityEstimator:
    """Estimates row counts for blocks, scans and joins.

    ``combiner`` selects how per-column selectivities multiply:

    * ``"independence"`` — the classic product (System R / DB2);
    * ``"exp_backoff"`` — SQL-Server-style exponential backoff,
      ``s1 * s2^(1/2) * s3^(1/4) * ...`` over the selectivities sorted
      ascending: a generic hedge against correlation that needs no SC
      knowledge (the ablation baseline E5 compares twinning against);
    * ``"feedback"`` — independence, but *observed* cardinalities from a
      :class:`~repro.feedback.store.FeedbackStore` override the model
      wherever an exact signature match exists: whole scan conjunct sets,
      base-table cardinalities, join edges, and grouping key sets.
      Anything the store has never seen falls back to independence.
    """

    def __init__(
        self,
        database: Database,
        combiner: str = "independence",
        feedback: Optional[object] = None,
    ) -> None:
        if combiner not in ("independence", "exp_backoff", "feedback"):
            raise OptimizerError(f"unknown combiner {combiner!r}")
        self.database = database
        self.combiner = combiner
        self.feedback = feedback

    @property
    def uses_feedback(self) -> bool:
        return self.combiner == "feedback" and self.feedback is not None

    def _combine(self, fractions: List[float]) -> float:
        if self.combiner != "exp_backoff" or len(fractions) <= 1:
            result = 1.0
            for fraction in fractions:
                result *= fraction
            return result
        result = 1.0
        for rank, fraction in enumerate(sorted(fractions)):
            result *= fraction ** (0.5 ** rank)
        return result

    # -- statistics access -----------------------------------------------------

    def table_stats(self, table_name: str) -> Optional[TableStats]:
        return self.database.catalog.statistics(table_name)

    def base_rows(self, table_name: str) -> float:
        if self.uses_feedback:
            # A completed sequential scan observed the table's *current*
            # cardinality — fresher than a stale RUNSTATS row count.
            observed = self.feedback.base_rows(table_name)
            if observed is not None:
                return max(1.0, observed)
        stats = self.table_stats(table_name)
        if stats is not None:
            return float(stats.row_count)
        return float(self.database.table(table_name).row_count)

    def distinct_count(self, table_name: str, column_name: str) -> Optional[int]:
        stats = self.table_stats(table_name)
        if stats is None:
            return None
        column = stats.column(column_name)
        return None if column is None else column.distinct_count

    # -- single-table estimation ---------------------------------------------------

    def scan_rows(
        self,
        table_name: str,
        conjuncts: Sequence[ast.Expression],
        estimation_predicates: Sequence[EstimationPredicate] = (),
    ) -> float:
        """Estimated rows a scan of ``table_name`` yields under the
        conjuncts, with the twinning adjustment applied."""
        if self.uses_feedback:
            from repro.feedback.signatures import conjunct_signature

            observed = self.feedback.scan_rows(
                table_name, conjunct_signature(conjuncts)
            )
            if observed is not None:
                return max(0.0, observed)
        base = self.base_rows(table_name)
        plain = self.conjunction_selectivity(table_name, conjuncts)
        if not estimation_predicates:
            return base * plain
        confidence = min(p.confidence for p in estimation_predicates)
        with_twins = self._twinned_selectivity(
            table_name, conjuncts, estimation_predicates
        )
        blended = confidence * with_twins + (1.0 - confidence) * plain
        return base * blended

    def _twinned_selectivity(
        self,
        table_name: str,
        conjuncts: Sequence[ast.Expression],
        estimation_predicates: Sequence[EstimationPredicate],
    ) -> float:
        """Selectivity assuming the twins' source SCs hold.

        Columns an SC links are (within epsilon) functions of one another,
        so the predicates on them are *not* independent: the combined
        selectivity of a linked group is the **minimum** of its members'
        interval fractions — the most selective single-column reduction,
        exactly the paper's "reducing the range predicates on two columns
        to ... a single column".  Columns outside any group, and
        non-interval predicates, multiply as usual.
        """
        estimator = SelectivityEstimator(self.table_stats(table_name))
        # Selectivity hints: the SC machinery precomputed a fraction for
        # one of the query's own conjuncts (e.g. a difference predicate).
        overrides: List[Tuple[ast.Expression, float]] = [
            (p.expression, p.fraction_override)
            for p in estimation_predicates
            if p.fraction_override is not None
        ]
        remaining_conjuncts: List[ast.Expression] = []
        override_factor = 1.0
        for conjunct in conjuncts:
            matched = next(
                (f for e, f in overrides if e == conjunct), None
            )
            if matched is not None:
                override_factor *= matched
            else:
                remaining_conjuncts.append(conjunct)
        twins = [
            p.expression
            for p in estimation_predicates
            if p.fraction_override is None
        ]
        intervals: Dict[str, Interval] = {}
        leftovers: List[ast.Expression] = []
        for conjunct in remaining_conjuncts + twins:
            bound = self._as_interval(conjunct)
            if bound is None:
                leftovers.append(conjunct)
                continue
            column, interval = bound
            current = intervals.get(column)
            intervals[column] = (
                interval if current is None else current.intersect(interval)
            )
        groups = _linked_groups(
            [p.linked_columns for p in estimation_predicates], set(intervals)
        )
        selectivity = override_factor
        grouped_columns: set = set()
        for group in groups:
            members = [c for c in group if c in intervals]
            if not members:
                continue
            grouped_columns.update(members)
            selectivity *= min(
                estimator.interval_fraction(column, intervals[column])
                for column in members
            )
        for column, interval in intervals.items():
            if column not in grouped_columns:
                selectivity *= estimator.interval_fraction(column, interval)
        for conjunct in leftovers:
            selectivity *= estimator.selectivity(conjunct)
        return max(0.0, min(1.0, selectivity))

    def conjunction_selectivity(
        self, table_name: str, conjuncts: Sequence[ast.Expression]
    ) -> float:
        """Selectivity of a conjunction with per-column interval merging.

        Range/equality predicates over the same column are intersected
        into one interval before consulting the histogram (as DB2 does);
        everything else multiplies under independence.
        """
        estimator = SelectivityEstimator(self.table_stats(table_name))
        intervals: Dict[str, Interval] = {}
        leftovers: List[ast.Expression] = []
        for conjunct in conjuncts:
            bound = self._as_interval(conjunct)
            if bound is None:
                leftovers.append(conjunct)
                continue
            column, interval = bound
            current = intervals.get(column)
            intervals[column] = (
                interval if current is None else current.intersect(interval)
            )
        fractions = [
            estimator.interval_fraction(column, interval)
            for column, interval in intervals.items()
        ] + [estimator.selectivity(conjunct) for conjunct in leftovers]
        return max(0.0, min(1.0, self._combine(fractions)))

    # ------------------------------------------------------------ internals

    @staticmethod
    def _as_interval(
        conjunct: ast.Expression,
    ) -> Optional[Tuple[str, Interval]]:
        columns = analysis.columns_in(conjunct)
        if len(columns) != 1:
            return None
        (column,) = columns
        interval = analysis.interval_of_predicate(conjunct, column)
        if interval is None:
            return None
        return column.column, interval

    # -- join estimation --------------------------------------------------------------

    def join_selectivity(
        self,
        conjunct: ast.Expression,
        binding_tables: Dict[str, str],
    ) -> float:
        """Selectivity of one cross-binding predicate.

        Equi-joins use the textbook ``1 / max(ndv_left, ndv_right)``;
        anything else falls back to a default.  In feedback mode an
        observed selectivity for the same (alias-normalized) edge wins.
        """
        equijoin = analysis.match_equijoin(conjunct)
        if self.uses_feedback:
            observed = self._observed_join_selectivity(
                conjunct, equijoin, binding_tables
            )
            if observed is not None:
                return observed
        if equijoin is None:
            return DEFAULT_OTHER_SELECTIVITY
        left, right = equijoin
        left_table = binding_tables.get(left.table or "")
        right_table = binding_tables.get(right.table or "")
        left_ndv = (
            self.distinct_count(left_table, left.column) if left_table else None
        )
        right_ndv = (
            self.distinct_count(right_table, right.column)
            if right_table
            else None
        )
        candidates = [n for n in (left_ndv, right_ndv) if n]
        if not candidates:
            return DEFAULT_JOIN_SELECTIVITY
        return 1.0 / max(candidates)

    def _observed_join_selectivity(
        self,
        conjunct: ast.Expression,
        equijoin: Optional[Tuple[ast.ColumnRef, ast.ColumnRef]],
        binding_tables: Dict[str, str],
    ) -> Optional[float]:
        from repro.feedback import signatures

        lowered = {
            binding.lower(): table
            for binding, table in binding_tables.items()
        }
        if equijoin is not None:
            signature = signatures.join_edge_signature(
                equijoin[0], equijoin[1], lowered
            )
        else:
            signature = signatures.theta_signature(conjunct, lowered)
        if signature is None:
            return None
        return self.feedback.join_selectivity(signature)

    # -- grouped output -------------------------------------------------------------------

    def group_output_rows(
        self,
        input_rows: float,
        keys: Sequence[ast.ColumnRef],
        binding_tables: Dict[str, str],
    ) -> float:
        """Estimated group count: product of key NDVs, capped by input."""
        if not keys:
            return 1.0
        if self.uses_feedback:
            from repro.feedback.signatures import group_signature

            lowered = {
                binding.lower(): table
                for binding, table in binding_tables.items()
            }
            observed = self.feedback.group_rows(
                group_signature(keys, lowered)
            )
            if observed is not None:
                return max(1.0, observed)
        product = 1.0
        for key in keys:
            table = binding_tables.get(key.table or "")
            ndv = self.distinct_count(table, key.column) if table else None
            product *= float(ndv) if ndv else max(1.0, input_rows * 0.1)
        return max(1.0, min(product, input_rows))

    # -- block-level helper ---------------------------------------------------------------

    def block_binding_tables(self, block: QueryBlock) -> Dict[str, str]:
        return {bound.binding: bound.table_name for bound in block.tables}

    def single_binding_conjuncts(
        self, block: QueryBlock, binding: str
    ) -> List[ast.Expression]:
        """The block's conjuncts that reference only ``binding``."""
        wanted = binding.lower()
        result = []
        for conjunct in block.predicates:
            tables = analysis.tables_in(conjunct)
            if tables == {wanted}:
                result.append(conjunct)
            elif not tables and not analysis.columns_in(conjunct):
                # Column-free conjuncts (e.g. a rewrite-proved FALSE) apply
                # at every scan; duplicating a constant is harmless and
                # lets the access path collapse to EmptyResult.
                result.append(conjunct)
        return result


def _linked_groups(
    linked_sets: Sequence[Tuple[str, ...]], known_columns: set
) -> List[set]:
    """Merge the twins' linked-column sets into disjoint correlation groups.

    Singleton link sets (or empty ones, from hand-built predicates) form
    no group: those twins multiply independently as before.
    """
    groups: List[set] = []
    for linked in linked_sets:
        members = {column for column in linked if column in known_columns}
        if len(members) < 2:
            continue
        overlapping = [g for g in groups if g & members]
        merged = set(members)
        for group in overlapping:
            merged |= group
            groups.remove(group)
        groups.append(merged)
    return groups
