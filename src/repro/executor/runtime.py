"""The plan interpreter and its execution metrics.

Two executors live behind the :class:`Executor` facade.  The production
path is the batched, columnar, compiled pipeline in
:mod:`repro.executor.vectorized`.  The oracle is the row-at-a-time
iterator model implemented here: it interprets every expression through
:func:`repro.expr.eval.evaluate` and shares no evaluation code with the
production path, which is what makes it the reference the differential
suites hold production to.  :meth:`Executor.execute` picks the oracle
when ``batch_size`` is 0 or the plan carries no compiled expressions.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.engine.database import Database
from repro.errors import ExecutionError, QueryGuardError
from repro.executor.aggregates import AggregateState, new_states
from repro.executor.batch import DEFAULT_BATCH_SIZE, RowBatch
from repro.executor.joins import run_hash_join, run_nested_loop_join
from repro.executor.scans import run_index_scan, run_seq_scan
from repro.executor.sorts import run_sort
from repro.executor.vectorized import BatchedInterpreter
from repro.expr.eval import evaluate
from repro.optimizer.physical import (
    Distinct,
    EmptyResult,
    Extend,
    Filter,
    GroupBy,
    HashJoin,
    IndexScan,
    Limit,
    NestedLoopJoin,
    PhysicalNode,
    PhysicalPlan,
    Project,
    SeqScan,
    Sort,
    UnionAll,
)

RowDict = Dict[str, Any]


class ExecutionResult:
    """Rows plus the I/O the plan actually performed.

    The oracle hands over its row dicts.  The production executor hands
    over the batches of the plan's top operator, and the result stays
    columnar: ``row_count``, :meth:`tuples`, :meth:`column` and
    :meth:`scalar` read the batches' columns, and :attr:`rows` builds
    the row dicts on first access and keeps them in the batches' place.
    The batches hold the values the plan read (storage rows are
    immutable tuples), so rows built after a later write still show the
    values as of execution.
    """

    #: True when a guard breach under the ``"partial"`` policy cut the
    #: execution short: ``rows`` holds only the rows produced so far.
    truncated: bool = False
    #: The armed guard's budget-consumption snapshot (None when the
    #: execution ran unguarded).
    guard_report: Optional[Dict[str, Any]] = None
    #: The typed breach that truncated this execution (partial policy
    #: only; None when the run completed).
    guard_breach: Optional[Exception] = None
    #: Which executor ran, as EXPLAIN ANALYZE prints it: ``"oracle"`` or
    #: ``"production (batch_size=…)"``.
    executor: str = "oracle"

    def __init__(
        self,
        columns: List[str],
        rows: Optional[List[RowDict]],
        page_reads: int,
        rows_read: int,
        batches: Sequence[RowBatch] = (),
    ) -> None:
        self.columns = columns
        self._rows = rows
        self._batches = batches
        self.page_reads = page_reads
        self.rows_read = rows_read
        self.row_count = (
            len(rows) if rows is not None else sum(map(len, batches))
        )

    @property
    def rows(self) -> List[RowDict]:
        """The rows as dicts (built from the batches once, then kept)."""
        if self._rows is None:
            self._rows = [
                row for batch in self._batches for row in batch.to_rows()
            ]
            self._batches = ()
        return self._rows

    def tuples(self) -> List[Tuple[Any, ...]]:
        """Rows as tuples in output-column order."""
        if self._rows is not None:
            return [
                tuple(row[name] for name in self.columns) for row in self._rows
            ]
        if not self.columns:
            return [()] * self.row_count
        out: List[Tuple[Any, ...]] = []
        for batch in self._batches:
            out.extend(zip(*[batch.column(name) for name in self.columns]))
        return out

    def column(self, name: str) -> List[Any]:
        if self._rows is not None:
            return [row[name] for row in self._rows]
        out: List[Any] = []
        for batch in self._batches:
            out.extend(batch.column(name))
        return out

    def scalar(self) -> Any:
        """The single value of a one-row one-column result."""
        if self.row_count != 1 or len(self.columns) != 1:
            raise ExecutionError(
                f"scalar() needs a 1x1 result, got "
                f"{self.row_count}x{len(self.columns)}"
            )
        return self.column(self.columns[0])[0]

    def __repr__(self) -> str:
        return (
            f"ExecutionResult(rows={self.row_count}, "
            f"page_reads={self.page_reads})"
        )


class Executor:
    """Interprets physical plans against a database.

    A plan that carries compiled expressions (``plan.compiled``, the
    optimizer's default) runs on the production executor: operators
    exchange :class:`~repro.executor.batch.RowBatch` objects of up to
    ``batch_size`` rows (see :mod:`repro.executor.vectorized`).
    ``batch_size=0`` (or ``None``), or a plan without them, runs on
    the oracle: the row-at-a-time interpreter, independently implemented,
    that the differential test harness holds production to.

    With a ``registry``, every execution first checks that the plan's soft
    constraints are still in the state they were compiled against — the
    guard for Section 4.1's conflict, where a plan compiled with an ASC is
    executed after another transaction overturned it.  A stale plan raises
    :class:`~repro.errors.StalePlanError`; the caller re-issues with a
    fresh compile (see :meth:`repro.api.SoftDB.execute_plan`).
    """

    def __init__(
        self,
        database: Database,
        registry: Optional[Any] = None,
        batch_size: Optional[int] = DEFAULT_BATCH_SIZE,
    ) -> None:
        self.database = database
        self.registry = registry
        self.batch_size = batch_size

    def execute(
        self,
        plan: PhysicalPlan,
        instrument: bool = False,
        guard: Optional[Any] = None,
        cancel: Optional[Any] = None,
    ) -> ExecutionResult:
        """Run a plan.  With ``instrument``, every operator's actual output
        row count is recorded on the node (``actual_rows``; production runs
        also record ``actual_batches``) so EXPLAIN ANALYZE can print
        estimates next to actuals.

        ``guard`` (a :class:`~repro.resilience.guards.QueryGuard`) imposes
        resource budgets checked at row/batch boundaries; ``cancel`` (a
        :class:`~repro.resilience.guards.CancellationToken`) allows
        cooperative cancellation.  A breach raises the typed
        :class:`~repro.errors.QueryGuardError`, or — under the guard's
        ``"partial"`` policy — returns the rows produced so far with
        ``truncated=True``."""
        self._guard_freshness(plan)
        active = self._arm(guard, cancel)
        production = bool(self.batch_size) and plan.compiled
        before_reads = self.database.counters.page_reads
        before_rows = self.database.counters.rows_read
        truncated = False
        rows: List[RowDict] = []
        batches: List[RowBatch] = []
        try:
            if production:
                interpreter = BatchedInterpreter(
                    self.database,
                    self.batch_size,
                    instrument=instrument,
                    guard=active,
                )
                if active is None:
                    batches = list(interpreter.run(plan.root))
                else:
                    for batch in interpreter.run(plan.root):
                        active.note_rows(len(batch))
                        batches.append(batch)
            else:
                self._instrument = instrument
                self._guard = active
                try:
                    if active is None:
                        rows = list(self._run_top(plan.root))
                    else:
                        for row in self._run_top(plan.root):
                            active.note_rows(1)
                            rows.append(row)
                finally:
                    self._instrument = False
                    self._guard = None
        except QueryGuardError as error:
            if guard is None or guard.on_breach != "partial":
                raise
            truncated = True
            breach = error
        result = ExecutionResult(
            columns=plan.output_names,
            rows=None if production else rows,
            page_reads=self.database.counters.page_reads - before_reads,
            rows_read=self.database.counters.rows_read - before_rows,
            batches=batches,
        )
        if production:
            result.executor = f"production (batch_size={self.batch_size})"
        result.truncated = truncated
        if truncated:
            result.guard_breach = breach
        if active is not None:
            result.guard_report = active.finish()
        return result

    def _arm(self, guard: Optional[Any], cancel: Optional[Any]) -> Optional[Any]:
        """Arm the guard (or a no-limit stand-in carrying just the token)."""
        if guard is None and cancel is None:
            return None
        from repro.resilience.guards import QueryGuard

        if guard is None:
            guard = QueryGuard()
        return guard.arm(self.database.counters, cancel)

    _instrument = False
    _guard = None

    def _run_top(self, node: PhysicalNode) -> Iterator[RowDict]:
        if not self._instrument:
            return self._run_raw(node)
        return self._counted(node)

    def _counted(self, node: PhysicalNode) -> Iterator[RowDict]:
        count = 0
        for row in self._run_raw(node):
            count += 1
            yield row
        node.actual_rows = count

    def _run(self, node: PhysicalNode) -> Iterator[RowDict]:
        """Child dispatch used by operators: instrumented when enabled."""
        if self._instrument:
            return self._counted(node)
        return self._run_raw(node)

    def _guard_freshness(self, plan: PhysicalPlan) -> None:
        if self.registry is None:
            return
        stale = plan.stale_constraints(self.registry)
        if stale:
            from repro.errors import StalePlanError

            raise StalePlanError(
                f"plan relies on changed soft constraint(s): {stale}",
                stale_constraints=tuple(stale),
            )

    # -- dispatch -------------------------------------------------------------

    def _run_raw(self, node: PhysicalNode) -> Iterator[RowDict]:
        if isinstance(node, EmptyResult):
            return iter(())
        if isinstance(node, SeqScan):
            return run_seq_scan(self.database, node, guard=self._guard)
        if isinstance(node, IndexScan):
            return run_index_scan(self.database, node, guard=self._guard)
        if isinstance(node, Filter):
            return self._run_filter(node)
        if isinstance(node, NestedLoopJoin):
            return run_nested_loop_join(node, self._run, guard=self._guard)
        if isinstance(node, HashJoin):
            return run_hash_join(node, self._run, guard=self._guard)
        if isinstance(node, GroupBy):
            return self._run_group_by(node)
        if isinstance(node, Extend):
            return self._run_extend(node)
        if isinstance(node, Sort):
            return run_sort(node, self._run(node.child), guard=self._guard)
        if isinstance(node, Project):
            return self._run_project(node)
        if isinstance(node, Distinct):
            return self._run_distinct(node)
        if isinstance(node, Limit):
            return itertools.islice(self._run(node.child), node.count)
        if isinstance(node, UnionAll):
            return itertools.chain.from_iterable(
                self._run(child) for child in node.inputs
            )
        raise ExecutionError(f"cannot execute {type(node).__name__}")

    # -- operators ----------------------------------------------------------------

    def _run_filter(self, node: Filter) -> Iterator[RowDict]:
        for row in self._run(node.child):
            if evaluate(node.predicate, row) is True:
                yield row

    def _run_extend(self, node: Extend) -> Iterator[RowDict]:
        for row in self._run(node.child):
            out = dict(row)
            for output in node.outputs:
                out[output.name] = evaluate(output.expression, row)
            yield out

    def _run_project(self, node: Project) -> Iterator[RowDict]:
        for row in self._run(node.child):
            yield {
                name: row.get(source)
                for name, source in zip(node.names, node.source_names)
            }

    def _run_distinct(self, node: Distinct) -> Iterator[RowDict]:
        seen: set = set()
        for row in self._run(node.child):
            key = tuple(sorted(row.items()))
            if key in seen:
                continue
            seen.add(key)
            yield row

    def _run_group_by(self, node: GroupBy) -> Iterator[RowDict]:
        groups: Dict[Tuple[Any, ...], Tuple[RowDict, List[AggregateState]]] = {}
        order: List[Tuple[Any, ...]] = []
        for row in self._run(node.child):
            key = tuple(evaluate(column, row) for column in node.keys)
            entry = groups.get(key)
            if entry is None:
                entry = (row, new_states(node.aggregates))
                groups[key] = entry
                order.append(key)
            for state in entry[1]:
                state.update(row)
        if not groups and not node.keys:
            # Scalar aggregation over an empty input: one all-default row.
            empty: Dict[str, Any] = {}
            for state in new_states(node.aggregates):
                empty[state.spec.output_name] = state.result()
            if node.having is None or self._having_ok(node, empty):
                yield empty
            return
        for key in order:
            first_row, states = groups[key]
            out: RowDict = {}
            for column, value in zip(node.keys, key):
                out[column.qualified] = value
                out[column.column] = value
            for column in node.carried:
                value = evaluate(column, first_row)
                out[column.qualified] = value
                out[column.column] = value
            for state in states:
                out[state.spec.output_name] = state.result()
            if node.having is None or self._having_ok(node, out):
                yield out

    @staticmethod
    def _having_ok(node: GroupBy, row: RowDict) -> bool:
        return evaluate(node.having, row) is True
