"""The plan interpreter and its execution metrics.

Two executors live behind the :class:`Executor` facade.  The production
path is the batched, columnar, compiled pipeline in
:mod:`repro.executor.vectorized`.  The oracle is the row-at-a-time
iterator model implemented here: it interprets every expression through
:func:`repro.expr.eval.evaluate` and shares no evaluation code with the
production path, which is what makes it the reference the differential
suites hold production to.  :meth:`Executor.execute` picks the oracle
when ``batch_size`` is 0 or the plan carries no compiled closures.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.engine.database import Database
from repro.errors import ExecutionError, QueryGuardError
from repro.executor.aggregates import AggregateState, new_states
from repro.executor.batch import DEFAULT_BATCH_SIZE
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
    """Rows plus the I/O the plan actually performed."""

    #: Worst per-node q-error of this execution; set only when feedback
    #: collection was on (None otherwise).
    max_qerror: Optional[float] = None
    #: Observations this execution contributed to the feedback store.
    feedback_observations: int = 0
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
        rows: List[RowDict],
        page_reads: int,
        rows_read: int,
    ) -> None:
        self.columns = columns
        self.rows = rows
        self.page_reads = page_reads
        self.rows_read = rows_read

    @property
    def row_count(self) -> int:
        return len(self.rows)

    def tuples(self) -> List[Tuple[Any, ...]]:
        """Rows as tuples in output-column order."""
        return [
            tuple(row[name] for name in self.columns) for row in self.rows
        ]

    def column(self, name: str) -> List[Any]:
        return [row[name] for row in self.rows]

    def scalar(self) -> Any:
        """The single value of a one-row one-column result."""
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise ExecutionError(
                f"scalar() needs a 1x1 result, got "
                f"{len(self.rows)}x{len(self.columns)}"
            )
        return self.rows[0][self.columns[0]]

    def __repr__(self) -> str:
        return (
            f"ExecutionResult(rows={self.row_count}, "
            f"page_reads={self.page_reads})"
        )


class Executor:
    """Interprets physical plans against a database.

    A plan that carries compiled closures (``plan.compiled``, the
    optimizer's default) runs on the production executor: operators
    exchange :class:`~repro.executor.batch.RowBatch` objects of up to
    ``batch_size`` rows (see :mod:`repro.executor.vectorized`).
    ``batch_size=0`` (or ``None``), or a plan without closures, runs on
    the oracle: the row-at-a-time interpreter, independently implemented,
    that the differential test harness holds production to.

    With a ``registry``, every execution first checks that the plan's soft
    constraints are still in the state they were compiled against — the
    guard for Section 4.1's conflict, where a plan compiled with an ASC is
    executed after another transaction overturned it.  A stale plan raises
    :class:`~repro.errors.StalePlanError`; the caller re-issues with a
    fresh compile (see :meth:`repro.api.SoftDB.execute_plan`).

    With a ``feedback`` store (:class:`~repro.feedback.store.FeedbackStore`),
    every execution is instrumented, its per-node actual cardinalities are
    harvested into the store, and the result carries ``max_qerror`` /
    ``feedback_observations``.  Without one, nothing feedback-related runs
    — the default path does zero extra work.
    """

    def __init__(
        self,
        database: Database,
        registry: Optional[Any] = None,
        batch_size: Optional[int] = DEFAULT_BATCH_SIZE,
        feedback: Optional[Any] = None,
    ) -> None:
        self.database = database
        self.registry = registry
        self.batch_size = batch_size
        self.feedback = feedback

    def execute(
        self,
        plan: PhysicalPlan,
        instrument: bool = False,
        collect_feedback: Optional[bool] = None,
        guard: Optional[Any] = None,
        cancel: Optional[Any] = None,
    ) -> ExecutionResult:
        """Run a plan.  With ``instrument``, every operator's actual output
        row count is recorded on the node (``actual_rows``; production runs
        also record ``actual_batches``) so EXPLAIN ANALYZE can print
        estimates next to actuals.  ``collect_feedback``
        (default: on iff the executor holds a feedback store) implies
        instrumentation, also counts scan input rows / join pairs, and
        harvests the actuals into the store afterwards.

        ``guard`` (a :class:`~repro.resilience.guards.QueryGuard`) imposes
        resource budgets checked at row/batch boundaries; ``cancel`` (a
        :class:`~repro.resilience.guards.CancellationToken`) allows
        cooperative cancellation.  A breach raises the typed
        :class:`~repro.errors.QueryGuardError`, or — under the guard's
        ``"partial"`` policy — returns the rows produced so far with
        ``truncated=True``.  Feedback is harvested only from successful,
        untruncated executions, so partial operator counters never pollute
        the store."""
        self._guard_freshness(plan)
        collect = (
            self.feedback is not None
            if collect_feedback is None
            else collect_feedback
        )
        if collect:
            from repro.feedback.counters import clear_actuals

            # A cached plan still carries the previous run's counters;
            # reset so partially-executed operators can't leak old counts.
            clear_actuals(plan.root)
            instrument = True
        active = self._arm(guard, cancel)
        production = bool(self.batch_size) and plan.compiled
        before_reads = self.database.counters.page_reads
        before_rows = self.database.counters.rows_read
        truncated = False
        rows: List[RowDict] = []
        try:
            if production:
                interpreter = BatchedInterpreter(
                    self.database,
                    self.batch_size,
                    instrument=instrument,
                    collect=collect,
                    guard=active,
                )
                if active is None:
                    rows = interpreter.rows(plan.root)
                else:
                    for batch in interpreter.run(plan.root):
                        active.note_rows(len(batch))
                        rows.extend(batch.to_rows())
            else:
                self._instrument = instrument
                self._collect = collect
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
                    self._collect = False
                    self._guard = None
        except QueryGuardError as error:
            if guard is None or guard.on_breach != "partial":
                raise
            truncated = True
            breach = error
        result = ExecutionResult(
            columns=plan.output_names,
            rows=rows,
            page_reads=self.database.counters.page_reads - before_reads,
            rows_read=self.database.counters.rows_read - before_rows,
        )
        if production:
            result.executor = f"production (batch_size={self.batch_size})"
        result.truncated = truncated
        if truncated:
            result.guard_breach = breach
        if active is not None:
            result.guard_report = active.finish()
        if collect and not truncated:
            if self.feedback is not None:
                from repro.feedback.counters import harvest

                summary = harvest(plan, self.feedback)
                result.max_qerror = summary.max_qerror
                result.feedback_observations = summary.observations
            else:
                from repro.feedback.qerror import plan_max_qerror

                result.max_qerror = plan_max_qerror(plan.root)
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
    _collect = False
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
            return run_seq_scan(
                self.database,
                node,
                count_input=self._collect,
                guard=self._guard,
            )
        if isinstance(node, IndexScan):
            return run_index_scan(
                self.database,
                node,
                count_input=self._collect,
                guard=self._guard,
            )
        if isinstance(node, Filter):
            return self._run_filter(node)
        if isinstance(node, NestedLoopJoin):
            return run_nested_loop_join(
                node, self._run, count_pairs=self._collect, guard=self._guard
            )
        if isinstance(node, HashJoin):
            return run_hash_join(
                node, self._run, count_pairs=self._collect, guard=self._guard
            )
        if isinstance(node, GroupBy):
            return self._run_group_by(node)
        if isinstance(node, Extend):
            return self._run_extend(node)
        if isinstance(node, Sort):
            return run_sort(
                node,
                self._run(node.child),
                count_input=self._collect,
                guard=self._guard,
            )
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
