"""Access-path selection: sequential scan vs. index scan per table.

For each base table in a block, the selector costs a sequential scan and
one index-scan candidate per index whose leading column is constrained to
an interval by the block's conjuncts (including any conjunct *introduced*
by the rewrite engine — which is exactly how a linear-correlation ASC
opens an index path, Section 2/[10]).  The cheapest wins.
"""

from __future__ import annotations

from typing import Any, List, Sequence, Tuple

from repro.engine.database import Database
from repro.expr import analysis
from repro.expr.intervals import Interval
from repro.optimizer.cardinality import CardinalityEstimator
from repro.optimizer.costmodel import CostModel
from repro.optimizer.logical import EstimationPredicate
from repro.optimizer.physical import (
    EmptyResult,
    IndexScan,
    PhysicalNode,
    SeqScan,
)
from repro.sql import ast
from repro.stats.selectivity import SelectivityEstimator


class AccessPathSelector:
    """Chooses the cheapest access path for one bound table."""

    def __init__(
        self,
        database: Database,
        estimator: CardinalityEstimator,
        cost_model: CostModel,
    ) -> None:
        self.database = database
        self.estimator = estimator
        self.cost_model = cost_model

    def best_scan(
        self,
        table_name: str,
        binding: str,
        conjuncts: Sequence[ast.Expression],
        estimation_predicates: Sequence[EstimationPredicate] = (),
    ) -> PhysicalNode:
        """The cheapest scan producing this table's qualifying rows."""
        if any(_is_constant_false(conjunct) for conjunct in conjuncts):
            empty = EmptyResult(table_name, binding)
            empty.estimated_rows = 0.0
            empty.estimated_cost = 0.0
            return empty
        output_rows = self.estimator.scan_rows(
            table_name, conjuncts, estimation_predicates
        )
        predicate = analysis.conjoin(list(conjuncts))
        best: PhysicalNode = SeqScan(table_name, binding, predicate)
        best.estimated_rows = output_rows
        best.estimated_cost = self.cost_model.seq_scan_cost(
            table_name, output_rows
        )
        for candidate in self._index_candidates(
            table_name, binding, conjuncts, output_rows
        ):
            if candidate.estimated_cost < best.estimated_cost:
                best = candidate
        return best

    def _index_candidates(
        self,
        table_name: str,
        binding: str,
        conjuncts: Sequence[ast.Expression],
        output_rows: float,
    ) -> List[IndexScan]:
        candidates: List[IndexScan] = []
        table_stats = self.estimator.table_stats(table_name)
        selectivity = SelectivityEstimator(table_stats)
        base_rows = self.estimator.base_rows(table_name)
        for index in self.database.catalog.indexes_on(table_name):
            if index.quarantined:
                # A corrupted index awaiting rebuild must not be planned
                # against; the query degrades to a (correct) seq scan.
                continue
            lead_column = index.column_names[0]
            interval = analysis.column_interval(
                list(conjuncts), ast.ColumnRef(lead_column, binding)
            )
            if interval.is_unbounded:
                continue
            matching = base_rows * selectivity.interval_fraction(
                lead_column, interval
            )
            low_key, high_key = _key_bounds(
                conjuncts, ast.ColumnRef(lead_column, binding), interval
            )
            node = IndexScan(
                table_name=table_name,
                binding=binding,
                index_name=index.name,
                low=None if low_key is None else (low_key,),
                high=None if high_key is None else (high_key,),
                low_inclusive=interval.low_inclusive,
                high_inclusive=interval.high_inclusive,
                predicate=analysis.conjoin(list(conjuncts)),
            )
            node.estimated_rows = output_rows
            node.estimated_cost = self.cost_model.index_scan_cost(
                table_name, index.name, matching
            )
            candidates.append(node)
        return candidates


def _is_constant_false(conjunct: ast.Expression) -> bool:
    """A conjunct the rewriter proved FALSE (or a constant that is)."""
    if isinstance(conjunct, ast.Literal):
        return conjunct.value is False
    if analysis.is_constant(conjunct):
        try:
            return analysis.constant_value(conjunct) is False
        except Exception:  # noqa: BLE001 - unevaluable constants stay live
            return False
    return False


def _key_bounds(
    conjuncts: Sequence[ast.Expression],
    column: ast.ColumnRef,
    interval: Interval,
) -> Tuple[Any, Any]:
    """The index key's low and high ends for ``interval`` on ``column``.

    An edge set by a runtime parameter (Section 4.2's soft-constraint
    bounds, a binding slot, an interval derived from slots) is the
    parameter itself, so the scan reads its value when it starts; any
    other edge is its value.  Which conjunct sets an edge shared by
    several depends on their values: when one of them follows the
    binding, the slots involved are pinned, so a cached plan serves only
    their values.
    """
    lows: List[ast.Expression] = []
    highs: List[ast.Expression] = []
    for top in conjuncts:
        for conjunct in analysis.split_conjuncts(top):
            edges = analysis.edge_operands(conjunct, column)
            if edges is not None:
                for operands, operand in zip((lows, highs), edges):
                    if operand is not None:
                        operands.append(operand)
    return _edge_key(lows, interval.low), _edge_key(highs, interval.high)


def _edge_key(operands: List[ast.Expression], value: Any) -> Any:
    if value is None:
        return None
    if len(operands) == 1 and isinstance(operands[0], ast.RuntimeParameter):
        return operands[0]
    ast.pin(analysis.slots_in(operands))
    for operand in operands:
        if (
            isinstance(operand, ast.RuntimeParameter)
            and operand.current_value() == value
        ):
            return operand
    return value
