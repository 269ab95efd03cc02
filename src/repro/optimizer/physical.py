"""Physical plan nodes.

Physical nodes are an executable tree interpreted by
:mod:`repro.executor.runtime`.  Every node carries the optimizer's
``estimated_rows`` and cumulative ``estimated_cost`` so EXPLAIN can show
estimates next to actuals and the cost model can be validated against the
executor's I/O counters.
"""

from __future__ import annotations

from typing import Any, List, Optional, Set, Tuple

from repro.optimizer.logical import Aggregate, OutputColumn
from repro.sql import ast
from repro.sql.printer import sql_of


class PhysicalNode:
    """Base class for physical operators."""

    def __init__(self) -> None:
        self.estimated_rows: float = 0.0
        self.estimated_cost: float = 0.0
        # Filled by an instrumented execution (EXPLAIN ANALYZE).
        self.actual_rows: Optional[int] = None
        # Batches this operator emitted; set only by an instrumented
        # *batched* execution (stays None row-at-a-time).
        self.actual_batches: Optional[int] = None

    def children(self) -> List["PhysicalNode"]:
        return []

    def describe(self) -> str:
        return type(self).__name__

    def __repr__(self) -> str:
        return (
            f"<{self.describe()} rows~{self.estimated_rows:.0f} "
            f"cost~{self.estimated_cost:.0f}>"
        )


class EmptyResult(PhysicalNode):
    """A scan proven empty at optimization time (constant-FALSE predicate
    from min/max abbreviation, branch knockout, or hole trimming)."""

    def __init__(self, table_name: str, binding: str) -> None:
        super().__init__()
        self.table_name = table_name
        self.binding = binding

    def describe(self) -> str:
        return f"EmptyResult({self.table_name} AS {self.binding})"


class SeqScan(PhysicalNode):
    """Full scan of a base table with an optional pushed-down filter."""

    def __init__(
        self,
        table_name: str,
        binding: str,
        predicate: Optional[ast.Expression] = None,
    ) -> None:
        super().__init__()
        self.table_name = table_name
        self.binding = binding
        self.predicate = predicate
        # CompiledExpr attached by the optimizer when
        # OptimizerConfig.compile_expressions is on; None = interpret.
        self.compiled_predicate = None
        # The names (bare or binding-qualified) the plan reads this
        # scan's columns by, set with the compiled expressions; None =
        # every column.
        self.read_columns = None
        # The batched scan's columns and their row positions, worked out
        # from read_columns and the table's schema on first execution.
        self.layout = None

    def describe(self) -> str:
        text = f"SeqScan({self.table_name} AS {self.binding}"
        if self.predicate is not None:
            text += f", filter: {sql_of(self.predicate)}"
        return text + ")"


class IndexScan(PhysicalNode):
    """B-tree range/point scan with RID fetches and a residual filter."""

    def __init__(
        self,
        table_name: str,
        binding: str,
        index_name: str,
        low: Optional[Tuple[Any, ...]] = None,
        high: Optional[Tuple[Any, ...]] = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
        predicate: Optional[ast.Expression] = None,
    ) -> None:
        super().__init__()
        self.table_name = table_name
        self.binding = binding
        self.index_name = index_name
        self.low = low
        self.high = high
        self.low_inclusive = low_inclusive
        self.high_inclusive = high_inclusive
        self.predicate = predicate
        self.compiled_predicate = None
        self.read_columns = None
        self.layout = None

    def describe(self) -> str:
        low = "-inf" if self.low is None else repr(list(self.low))
        high = "+inf" if self.high is None else repr(list(self.high))
        text = (
            f"IndexScan({self.table_name} AS {self.binding} VIA "
            f"{self.index_name} [{low}..{high}]"
        )
        if self.predicate is not None:
            text += f", filter: {sql_of(self.predicate)}"
        return text + ")"


class Filter(PhysicalNode):
    def __init__(self, child: PhysicalNode, predicate: ast.Expression) -> None:
        super().__init__()
        self.child = child
        self.predicate = predicate
        self.compiled_predicate = None

    def children(self) -> List[PhysicalNode]:
        return [self.child]

    def describe(self) -> str:
        return f"Filter({sql_of(self.predicate)})"


class NestedLoopJoin(PhysicalNode):
    def __init__(
        self,
        left: PhysicalNode,
        right: PhysicalNode,
        condition: Optional[ast.Expression] = None,
    ) -> None:
        super().__init__()
        self.left = left
        self.right = right
        self.condition = condition
        self.compiled_condition = None

    def children(self) -> List[PhysicalNode]:
        return [self.left, self.right]

    def describe(self) -> str:
        condition = (
            sql_of(self.condition) if self.condition is not None else "TRUE"
        )
        return f"NestedLoopJoin(on {condition})"


class HashJoin(PhysicalNode):
    """Equi-join: build on the right input, probe with the left."""

    def __init__(
        self,
        left: PhysicalNode,
        right: PhysicalNode,
        left_keys: List[ast.Expression],
        right_keys: List[ast.Expression],
        residual: Optional[ast.Expression] = None,
    ) -> None:
        super().__init__()
        self.left = left
        self.right = right
        self.left_keys = left_keys
        self.right_keys = right_keys
        self.residual = residual
        self.compiled_left_keys = None
        self.compiled_right_keys = None
        self.compiled_residual = None

    def children(self) -> List[PhysicalNode]:
        return [self.left, self.right]

    def describe(self) -> str:
        keys = ", ".join(
            f"{sql_of(l)}={sql_of(r)}"
            for l, r in zip(self.left_keys, self.right_keys)
        )
        text = f"HashJoin(on {keys}"
        if self.residual is not None:
            text += f", residual: {sql_of(self.residual)}"
        return text + ")"


class GroupBy(PhysicalNode):
    """Hash aggregation; emits group keys plus aggregate outputs."""

    def __init__(
        self,
        child: PhysicalNode,
        keys: List[ast.ColumnRef],
        aggregates: List[Aggregate],
        having: Optional[ast.Expression] = None,
        carried: Optional[List[ast.ColumnRef]] = None,
    ) -> None:
        super().__init__()
        self.child = child
        self.keys = keys
        self.aggregates = aggregates
        self.having = having
        # Columns proven group-constant by an FD and dropped from the hash
        # key; their value is taken from the group's first row.
        self.carried: List[ast.ColumnRef] = carried or []
        self.compiled_keys = None
        self.compiled_carried = None
        self.compiled_having = None
        # Parallel to ``aggregates``; None entries for COUNT(*).
        self.compiled_aggregate_args = None

    def children(self) -> List[PhysicalNode]:
        return [self.child]

    def describe(self) -> str:
        keys = ", ".join(sql_of(key) for key in self.keys) or "()"
        aggs = ", ".join(
            f"{agg.function}->{agg.output_name}" for agg in self.aggregates
        )
        text = f"GroupBy(keys: {keys}"
        if aggs:
            text += f"; aggs: {aggs}"
        if self.having is not None:
            text += f"; having: {sql_of(self.having)}"
        return text + ")"


class Extend(PhysicalNode):
    """Computes output columns, adding them to the row environment."""

    def __init__(self, child: PhysicalNode, outputs: List[OutputColumn]) -> None:
        super().__init__()
        self.child = child
        self.outputs = outputs
        self.compiled_outputs = None

    def children(self) -> List[PhysicalNode]:
        return [self.child]

    def describe(self) -> str:
        cols = ", ".join(
            f"{sql_of(out.expression)} AS {out.name}" for out in self.outputs
        )
        return f"Extend({cols})"


class Sort(PhysicalNode):
    def __init__(
        self,
        child: PhysicalNode,
        order: List[Tuple[ast.Expression, bool]],
    ) -> None:
        super().__init__()
        self.child = child
        self.order = order
        # Parallel to ``order``: (compiled expression, ascending) pairs.
        self.compiled_order = None

    def children(self) -> List[PhysicalNode]:
        return [self.child]

    def describe(self) -> str:
        keys = ", ".join(
            sql_of(expr) + ("" if ascending else " DESC")
            for expr, ascending in self.order
        )
        return f"Sort({keys})"


class Project(PhysicalNode):
    """Narrows rows to the named output columns, in order."""

    def __init__(
        self,
        child: PhysicalNode,
        names: List[str],
        source_names: Optional[List[str]] = None,
    ) -> None:
        super().__init__()
        self.child = child
        self.names = names
        # For UNION ALL branches: the child's own column names, renamed
        # positionally to ``names`` (the union's output names).
        self.source_names = source_names or names

    def children(self) -> List[PhysicalNode]:
        return [self.child]

    def describe(self) -> str:
        return f"Project({', '.join(self.names)})"


class Distinct(PhysicalNode):
    def __init__(self, child: PhysicalNode) -> None:
        super().__init__()
        self.child = child

    def children(self) -> List[PhysicalNode]:
        return [self.child]


class Limit(PhysicalNode):
    def __init__(self, child: PhysicalNode, count: int) -> None:
        super().__init__()
        self.child = child
        self.count = count

    def children(self) -> List[PhysicalNode]:
        return [self.child]

    def describe(self) -> str:
        return f"Limit({self.count})"


class UnionAll(PhysicalNode):
    def __init__(self, inputs: List[PhysicalNode]) -> None:
        super().__init__()
        self.inputs = inputs

    def children(self) -> List[PhysicalNode]:
        return list(self.inputs)

    def describe(self) -> str:
        return f"UnionAll({len(self.inputs)} branches)"


class PhysicalPlan:
    """A complete optimized plan plus its provenance.

    Attributes
    ----------
    root:
        The operator tree.
    output_names:
        Result column names, in order.
    sc_dependencies:
        Names of the soft constraints whose *validity* this plan relies
        on — the plan cache registers invalidation on these (Section 4.1).
    sc_value_dependencies:
        The subset whose concrete *values* (bounds, model parameters,
        holes) are inlined in the plan: a value-changing repair also
        invalidates these plans.
    rewrites_applied:
        Human-readable descriptions of the rewrites that fired.
    estimation_notes:
        Descriptions of estimation-only (twinned) predicates consulted.
    """

    def __init__(
        self,
        root: PhysicalNode,
        output_names: List[str],
        sql: str = "",
    ) -> None:
        self.root = root
        self.output_names = output_names
        self.sql = sql
        self.sc_dependencies: Set[str] = set()
        self.sc_value_dependencies: Set[str] = set()
        # Version snapshots at compile time, for stale-plan detection
        # (Section 4.1's transaction-conflict story): name -> version.
        self.sc_validity_snapshot: dict = {}
        self.sc_value_snapshot: dict = {}
        self.rewrites_applied: List[str] = []
        self.estimation_notes: List[str] = []
        # Expression-compilation provenance (set by the optimizer when
        # OptimizerConfig.compile_expressions is on).
        self.compiled = False
        self.compile_cache_hits = 0
        self.compile_cache_misses = 0

    @property
    def estimated_rows(self) -> float:
        return self.root.estimated_rows

    @property
    def estimated_cost(self) -> float:
        return self.root.estimated_cost

    def stale_constraints(self, registry: Any) -> List[str]:
        """The soft constraints this plan used that changed since it was
        compiled (Section 4.1): no longer ACTIVE, overturned or demoted
        since, dropped from ``registry``, or — for inlined values —
        repaired since."""
        from repro.softcon.base import SCState

        stale = set()
        for name, version in self.sc_validity_snapshot.items():
            try:
                constraint = registry.get(name)
            except Exception:  # noqa: BLE001 - dropped from the registry
                stale.add(name)
                continue
            if (
                constraint.state is not SCState.ACTIVE
                or constraint.validity_version != version
            ):
                stale.add(name)
        for name, version in self.sc_value_snapshot.items():
            try:
                constraint = registry.get(name)
            except Exception:  # noqa: BLE001
                stale.add(name)
                continue
            if constraint.values_version != version:
                stale.add(name)
        return sorted(stale)

    def __repr__(self) -> str:
        return (
            f"PhysicalPlan(cost~{self.estimated_cost:.0f}, "
            f"rows~{self.estimated_rows:.0f}, "
            f"rewrites={len(self.rewrites_applied)})"
        )
