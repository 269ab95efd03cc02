"""Sorting with SQL NULL ordering (NULLs sort last ascending).

Keys are decorated as plain ``(is_null, value)`` tuples — computed once
per row per sort pass — so the stable multi-key sort compares at C level
instead of bouncing through a Python-level total-order wrapper object on
every comparison.  The ``is_null`` flag puts NULLs after every value
ascending (before, descending, matching the previous wrapper's order);
the ``0`` stand-in for NULL values keeps tied NULL keys comparable.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List

import numpy as np

from repro.executor.batch import RowBatch
from repro.executor.vecbatch import try_int64
from repro.expr.eval import evaluate
from repro.optimizer.physical import Sort

RowDict = Dict[str, Any]

_NULL_KEY = (True, 0)


def _decorate(value: Any):
    return _NULL_KEY if value is None else (False, value)


def run_sort(
    node: Sort,
    rows: Iterator[RowDict],
    guard: Any = None,
) -> Iterator[RowDict]:
    """Materialize and sort; stable multi-key sort, last key first."""
    materialized: List[RowDict] = list(rows)
    if guard is not None:
        # A sort pins its whole input in memory; charge the row budget at
        # the materialization point, before any sorting work.
        guard.note_rows(len(materialized))
    for expression, ascending in reversed(node.order):
        materialized.sort(
            key=lambda row, _e=expression: _decorate(evaluate(_e, row)),
            reverse=not ascending,
        )
    return iter(materialized)


def run_sort_batched(
    node: Sort,
    batches: Iterable[RowBatch],
    batch_size: int,
    guard: Any = None,
) -> Iterator[RowBatch]:
    """Batched twin of :func:`run_sort`: sort an index permutation.

    Key columns are evaluated once per sort pass over the concatenated
    input and decorated in one comprehension; the stable multi-pass sort
    permutes row indices, and the result is gathered and re-chunked to
    ``batch_size``.
    """
    materialized = RowBatch.concat(list(batches))
    if guard is not None:
        guard.note_rows(0 if materialized is None else len(materialized))
    if materialized is None or len(materialized) == 0:
        return
    indices = list(range(len(materialized)))
    passes = [
        (batch_fn(materialized), ascending)
        for batch_fn, ascending in reversed(node.compiled_order)
    ]
    if len(passes) == 1:
        values, ascending = passes[0]
        array = try_int64(values)
        if array is not None and (
            ascending or len(array) == 0 or int(array.min()) != -(2**63)
        ):
            # Single pure-int64 key, no NULLs: a stable argsort gives
            # exactly the permutation the decorated sort would (negating
            # the key instead of reversing preserves stability for the
            # descending case, matching ``list.sort(reverse=True)`` on
            # a fresh identity permutation).
            order = np.argsort(
                array if ascending else -array, kind="stable"
            )
            yield from materialized.take(order.tolist()).split(batch_size)
            return
    for values, ascending in passes:
        keys = [
            _NULL_KEY if value is None else (False, value) for value in values
        ]
        indices.sort(key=keys.__getitem__, reverse=not ascending)
    yield from materialized.take(indices).split(batch_size)
