"""The production executor: the batched (vectorized) plan interpreter.

Operators exchange :class:`~repro.executor.batch.RowBatch` objects instead
of single row dicts, and every expression — predicates, Extend outputs,
group keys, aggregate arguments, FD-carried columns, HAVING, join keys,
conditions and residuals, sort keys — runs once per batch as the numpy
kernel of the plan's compiled expression (:mod:`repro.expr.compile`;
this interpreter only runs plans that carry them), through
:func:`~repro.expr.vector.select_rows` or
:func:`~repro.expr.vector.value_columns`.  A plain column reference is
the batch's own column.  The per-row overhead (dict materialization,
recursive expression dispatch) is amortized over ``batch_size`` rows.
A GROUP BY builds its output as one batch, so HAVING and the FD-carried
columns are evaluated once over all groups.

Scans go further: a scan's batch reads its columns lazily out of the
row tuples or the table image, so only the columns a predicate touches
are transposed and promoted to numpy vectors with explicit null masks
(:mod:`repro.executor.vecbatch`), and only surviving rows are
materialized — late materialization.  A scan emits only the columns
its plan reads (``read_columns``, recorded with the compiled
expressions).  Whether a batch runs on the kernel or, when the kernel
declines it, row by row through the interpreter is decided in one
place, :mod:`repro.expr.vector`.

The operators above the scans work on numpy too.  Hash-join, group and
DISTINCT keys become int64 codes (``vecbatch.factorise``): joins probe
sorted codes, a GROUP BY looks up each batch's distinct keys once, and a
DISTINCT checks only each batch's first-seen keys against the keys of
earlier batches.  Keyed and scalar aggregation fold a batch in one call,
:func:`~repro.executor.aggregates.fold_groups` (scalar aggregation is one
group); a sort is one ``np.lexsort`` (:mod:`repro.executor.sorts`).

Semantics — result rows and their order, row counts, and page-I/O
accounting — match the row-at-a-time interpreter in
:mod:`repro.executor.runtime` exactly; the differential harness in
``tests/executor/test_batched_differential.py`` pins the two together.
That includes LIMIT: a :class:`~repro.executor.scans.ScanQuota` created
by the Limit operator clamps every scan fetch to the rows still needed,
so page-read accounting under LIMIT is bit-identical to the
row-at-a-time pipeline too.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.database import Database
from repro.errors import ExecutionError
from repro.executor.aggregates import AggregateState, fold_groups, new_states
from repro.executor.batch import DEFAULT_BATCH_SIZE, RowBatch
from repro.executor.joins import (
    run_hash_join_batched,
    run_nested_loop_join_batched,
)
from repro.executor.scans import (
    ScanQuota,
    run_index_scan_batched,
    run_seq_scan_batched,
)
from repro.executor.sorts import run_sort_batched
from repro.executor.vecbatch import factorise
from repro.expr.vector import select_rows, value_columns
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
    Project,
    SeqScan,
    Sort,
    UnionAll,
)

RowDict = Dict[str, Any]

class BatchedInterpreter:
    """Interprets a physical plan batch-at-a-time.

    One instance serves one execution: it carries the ``batch_size``
    and, when instrumented, records per-node actual row *and batch*
    counts for EXPLAIN ANALYZE.
    """

    def __init__(
        self,
        database: Database,
        batch_size: int = DEFAULT_BATCH_SIZE,
        instrument: bool = False,
        guard: Any = None,
    ) -> None:
        if batch_size < 1:
            raise ExecutionError(
                f"batch_size must be >= 1, got {batch_size}"
            )
        self.database = database
        self.batch_size = batch_size
        self.instrument = instrument
        # An armed ActiveGuard (repro.resilience.guards) or None; threaded
        # to the operators that can burn unbounded work.
        self.guard = guard

    # -- dispatch -------------------------------------------------------------

    def run(
        self, node: PhysicalNode, quota: Optional[ScanQuota] = None
    ) -> Iterator[RowBatch]:
        if not self.instrument:
            return self._run_raw(node, quota)
        return self._counted(node, quota)

    def _counted(
        self, node: PhysicalNode, quota: Optional[ScanQuota]
    ) -> Iterator[RowBatch]:
        rows = 0
        batches = 0
        for batch in self._run_raw(node, quota):
            rows += len(batch)
            batches += 1
            yield batch
        node.actual_rows = rows
        node.actual_batches = batches

    def _run_raw(
        self, node: PhysicalNode, quota: Optional[ScanQuota] = None
    ) -> Iterator[RowBatch]:
        # ``quota`` is a LIMIT clamp, forwarded only through streaming
        # at-most-one-output-per-input operators; blocking operators
        # (joins, sorts, grouping) materialize fully in both pipelines
        # and therefore drop it.
        if isinstance(node, EmptyResult):
            return iter(())
        if isinstance(node, SeqScan):
            return run_seq_scan_batched(
                self.database,
                node,
                self.batch_size,
                guard=self.guard,
                quota=quota,
            )
        if isinstance(node, IndexScan):
            return run_index_scan_batched(
                self.database,
                node,
                self.batch_size,
                guard=self.guard,
                quota=quota,
            )
        if isinstance(node, Filter):
            return self._run_filter(node, quota)
        if isinstance(node, NestedLoopJoin):
            return run_nested_loop_join_batched(
                node,
                self.run,
                self.batch_size,
                guard=self.guard,
            )
        if isinstance(node, HashJoin):
            return run_hash_join_batched(
                node,
                self.run,
                self.batch_size,
                guard=self.guard,
            )
        if isinstance(node, GroupBy):
            return self._run_group_by(node)
        if isinstance(node, Extend):
            return self._run_extend(node, quota)
        if isinstance(node, Sort):
            return run_sort_batched(
                node,
                self.run(node.child),
                self.batch_size,
                guard=self.guard,
            )
        if isinstance(node, Project):
            return self._run_project(node, quota)
        if isinstance(node, Distinct):
            return self._run_distinct(node, quota)
        if isinstance(node, Limit):
            return self._run_limit(node, quota)
        if isinstance(node, UnionAll):
            return itertools.chain.from_iterable(
                self.run(child, quota) for child in node.inputs
            )
        raise ExecutionError(f"cannot execute {type(node).__name__}")

    # -- operators ----------------------------------------------------------------

    def _run_filter(
        self, node: Filter, quota: Optional[ScanQuota]
    ) -> Iterator[RowBatch]:
        for batch in self.run(node.child, quota):
            survivors = select_rows(node.compiled_predicate, batch)
            if len(survivors):
                yield survivors

    def _run_extend(
        self, node: Extend, quota: Optional[ScanQuota]
    ) -> Iterator[RowBatch]:
        for batch in self.run(node.child, quota):
            columns = list(batch.columns)
            data = {name: batch.column(name) for name in columns}
            present = set(columns)
            # Evaluated against the child batch, as the row form
            # evaluates against the original row.
            values = value_columns(node.compiled_outputs, batch)
            for output, column in zip(node.outputs, values):
                data[output.name] = column
                if output.name not in present:
                    columns.append(output.name)
                    present.add(output.name)
            yield RowBatch(columns, data, len(batch))

    def _run_project(
        self, node: Project, quota: Optional[ScanQuota]
    ) -> Iterator[RowBatch]:
        for batch in self.run(node.child, quota):
            data: Dict[str, Sequence[Any]] = {}
            for name, source in zip(node.names, node.source_names):
                data[name] = (
                    batch.column(source)
                    if source in batch.columns
                    else [None] * len(batch)
                )
            yield RowBatch(node.names, data, len(batch))

    def _run_distinct(
        self, node: Distinct, quota: Optional[ScanQuota]
    ) -> Iterator[RowBatch]:
        seen: set = set()
        for batch in self.run(node.child, quota):
            # The row form keys a row by tuple(sorted(row.items())): the
            # sorted names, then the values.  Within the batch keys are
            # numbered by factorise; only each one's first row meets
            # ``seen``.
            names = tuple(sorted(batch.columns))
            if names:
                _, firsts, keys = factorise([batch.column(name) for name in names])
            else:
                firsts, keys = [0], [()]
            keep: List[int] = []
            for first, key in zip(firsts, keys):
                key = (names, key)
                if key not in seen:
                    seen.add(key)
                    keep.append(first)
            if not keep:
                continue
            yield batch if len(keep) == len(batch) else batch.take(keep)

    def _run_limit(
        self, node: Limit, quota: Optional[ScanQuota]
    ) -> Iterator[RowBatch]:
        # The quota clamps upstream scan fetches to the rows still
        # needed.  Every forwarding operator emits at most one row per
        # fetched row, so a received batch can never exceed
        # ``inner.remaining`` — the slice below only fires for blocking
        # subtrees (which do not forward the quota).
        count = node.count
        if quota is not None:
            count = min(count, quota.remaining)
        inner = ScanQuota(count)
        if inner.remaining <= 0:
            return
        for batch in self.run(node.child, inner):
            if len(batch) < inner.remaining:
                inner.remaining -= len(batch)
                yield batch
            else:
                yield batch.slice(0, inner.remaining)
                inner.remaining = 0
                return

    def _run_group_by(self, node: GroupBy) -> Iterator[RowBatch]:
        groups: Dict[Tuple[Any, ...], Tuple[RowDict, List[AggregateState]]] = {}
        order: List[Tuple[Any, ...]] = []
        has_keys = bool(node.keys)
        if not has_keys:
            # Scalar aggregation: one group, even over an empty input.
            groups[()] = ({}, new_states(node.aggregates))
            order.append(())
        key_count = len(node.compiled_keys)
        for batch in self.run(node.child):
            # Keys, then aggregate arguments: the row form's order per row.
            columns = value_columns(
                node.compiled_keys + node.compiled_aggregate_args, batch
            )
            key_columns, aggregate_columns = columns[:key_count], columns[key_count:]
            if not has_keys:
                codes = np.zeros(len(batch), dtype=np.int64)
                fold_groups([groups[()][1]], aggregate_columns, codes)
                continue
            # Distinct keys in first-seen order (the oracle's group order),
            # each looked up once.
            codes, firsts, keys = factorise(key_columns)
            local: List[List[AggregateState]] = []
            for first, key in zip(firsts, keys):
                if key not in groups:
                    groups[key] = (batch.row(first), new_states(node.aggregates))
                    order.append(key)
                local.append(groups[key][1])
            fold_groups(local, aggregate_columns, codes)

        if not order:
            return
        # The output batch, built column-major with the row form's names:
        # each key and carried column under its qualified and bare name,
        # then the aggregate outputs.
        data: Dict[str, List[Any]] = {}
        for position, column in enumerate(node.keys):
            values = [key[position] for key in order]
            data[column.qualified] = values
            data[column.column] = values
        if node.carried:
            # Group-constant by an FD: read once, off the groups' first rows.
            first_rows = RowBatch.from_rows([groups[key][0] for key in order])
            carried = value_columns(node.compiled_carried, first_rows)
            for column, values in zip(node.carried, carried):
                data[column.qualified] = values
                data[column.column] = values
        states = [groups[key][1] for key in order]
        for position, spec in enumerate(node.aggregates):
            data[spec.output_name] = [group[position].result() for group in states]
        out = RowBatch(list(data), data, len(order))
        if node.having is not None:
            out = select_rows(node.compiled_having, out)
        yield from out.split(self.batch_size)
