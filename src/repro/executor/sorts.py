"""Sorting with SQL NULL ordering (NULLs sort last ascending).

The oracle (:func:`run_sort`) sorts rows once per key, last key first,
each key decorated as a plain ``(is_null, value)`` tuple: the ``is_null``
flag puts NULLs after every value ascending (before, descending), and
the ``0`` stand-in for NULL values keeps tied NULL keys comparable.

The production sort (:func:`run_sort_batched`) gives the same
permutation with one stable ``np.lexsort`` whenever every key has a
total order numpy can see: int64 values, float64 values without NaN,
or the dense codes of ints, bools, strings or dates (see
:func:`_lexsort_keys`).  Each key's NULL flag sits just above its
values; a descending key is negated, so the stable sort keeps ties in
input order as ``list.sort(reverse=True)`` does.  NaN, int/float mixes
and mixes that cannot be ordered take the oracle's decorated passes.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.executor.batch import RowBatch
from repro.executor.vecbatch import dense, promote, sortable
from repro.expr.eval import evaluate
from repro.expr.vector import value_columns
from repro.optimizer.physical import Sort

RowDict = Dict[str, Any]

_NULL_KEY = (True, 0)

_INT64_MIN = np.iinfo(np.int64).min

#: One sort key's values over the whole input, and its direction.
Pass = Tuple[Sequence[Any], bool]


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

    Key columns are evaluated once over the concatenated input, last key
    first as the oracle's passes are.  The permutation is gathered one
    ``batch_size`` chunk at a time, so a LIMIT above stops the gather.
    """
    materialized = RowBatch.concat(list(batches))
    if guard is not None:
        guard.note_rows(0 if materialized is None else len(materialized))
    if materialized is None or len(materialized) == 0:
        return
    passes = [
        (value_columns([key], materialized)[0], ascending)
        for key, ascending in reversed(node.compiled_order)
    ]
    order = _lexsort(passes)
    if order is None:
        order = _decorated_order(passes)
    for start in range(0, len(order), batch_size):
        yield materialized.take(order[start : start + batch_size])


def _lexsort(passes: Sequence[Pass]) -> Optional[List[int]]:
    """The stable multi-key order by one ``np.lexsort`` (whose last key
    is the primary one, as the last pass is); None when a key has no
    numpy-visible total order."""
    columns: List[np.ndarray] = []
    for values, ascending in passes:
        parts = _lexsort_keys(values, ascending)
        if parts is None:
            return None
        columns.extend(parts)
    return np.lexsort(columns).tolist()


def _lexsort_keys(
    values: Sequence[Any], ascending: bool
) -> Optional[List[np.ndarray]]:
    """One sort key as lexsort columns, least significant first: its
    values, then (when it has NULLs) a NULL flag that orders them after
    every value ascending and before every value descending."""
    vec = promote(values)
    array, mask = vec.values, vec.mask
    kind = array.dtype.kind
    if kind == "f":
        if np.isnan(array).any():
            return None
    elif kind != "i":
        # Bools, strings, dates, wide ints: their dense codes.
        try:
            array = sortable(values)
            if array is not None and array.dtype == object:
                array = dense(array)
        except TypeError:  # an unorderable mix, such as str with int
            return None
        if array is None:
            return None
    if not ascending:
        if kind == "i" and len(array) and array.min() == _INT64_MIN:
            array = np.unique(array, return_inverse=True)[1]
        array = -array
    if mask is None:
        return [array]
    return [array, mask if ascending else ~mask]


def _decorated_order(passes: Sequence[Pass]) -> List[int]:
    """The oracle's passes over an index permutation, last key first."""
    indices = list(range(len(passes[0][0])))
    for values, ascending in passes:
        decorated = [
            _NULL_KEY if value is None else (False, value) for value in values
        ]
        indices.sort(key=decorated.__getitem__, reverse=not ascending)
    return indices
