"""Aggregate computation for the GROUP BY operator.

The oracle folds row by row (:meth:`AggregateState.update`).  The
production executor folds a batch at a time through one path,
:func:`fold_groups`, keyed or scalar (one group): numpy where the fold is
exact, ``update_values`` per group where it is not.
"""

from __future__ import annotations

import sys
from typing import Any, Dict, List, Optional, Sequence, Set

import numpy as np

from repro.errors import ExecutionError
from repro.executor.vecbatch import promote
from repro.expr.eval import evaluate
from repro.optimizer.logical import Aggregate

#: int64 folds stay exact as long as ``n * max|v|`` is well inside the
#: dtype; anything wider falls back to Python's arbitrary-precision sum.
_INT_FOLD_SAFE = 2**62

#: ``sum()`` of floats is a plain left-to-right fold, which ``np.add.at``
#: repeats bit for bit, only before Python 3.12 (which compensates it).
_PLAIN_FLOAT_SUM = sys.version_info < (3, 12)

RowDict = Dict[str, Any]


class AggregateState:
    """Accumulates one aggregate over one group (SQL NULL semantics).

    NULL inputs are ignored by every aggregate; COUNT(*) counts rows.  An
    empty group yields NULL for SUM/AVG/MIN/MAX and 0 for COUNT.
    """

    __slots__ = (
        "spec",
        "count",
        "total",
        "minimum",
        "maximum",
        "seen",
    )

    def __init__(self, spec: Aggregate) -> None:
        self.spec = spec
        self.count = 0
        self.total: Optional[float] = None
        self.minimum: Any = None
        self.maximum: Any = None
        self.seen: Optional[Set[Any]] = set() if spec.distinct else None

    def update(self, row: RowDict) -> None:
        if self.spec.argument is None:  # COUNT(*)
            self.count += 1
            return
        value = evaluate(self.spec.argument, row)
        if value is None:
            return
        if self.seen is not None:
            if value in self.seen:
                return
            self.seen.add(value)
        self.count += 1
        if self.spec.function in ("sum", "avg"):
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ExecutionError(
                    f"{self.spec.function.upper()} over non-numeric "
                    f"value {value!r}"
                )
            self.total = value if self.total is None else self.total + value
        if self.spec.function == "min":
            if self.minimum is None or value < self.minimum:
                self.minimum = value
        if self.spec.function == "max":
            if self.maximum is None or value > self.maximum:
                self.maximum = value

    def update_count_star(self, additional: int) -> None:
        """Batched COUNT(*): credit a whole run of rows at once."""
        self.count += additional

    def update_values(self, values: Sequence[Any]) -> None:
        """Batched update: fold a gathered column slice into the state.

        Semantically identical to calling :meth:`update` once per value
        (NULLs skipped, DISTINCT de-duplicated in arrival order), but the
        numeric folds run through the C-level ``sum``/``min``/``max``
        builtins instead of a Python-level loop per row.
        """
        if self.seen is None:
            fresh = [value for value in values if value is not None]
        else:
            fresh = []
            seen = self.seen
            for value in values:
                if value is None or value in seen:
                    continue
                seen.add(value)
                fresh.append(value)
        if not fresh:
            return
        function = self.spec.function
        if function in ("sum", "avg"):
            for value in fresh:
                if not isinstance(value, (int, float)) or isinstance(
                    value, bool
                ):
                    raise ExecutionError(
                        f"{function.upper()} over non-numeric value {value!r}"
                    )
            folded: Any = sum(fresh)
        elif function == "min":
            folded = min(fresh)
        elif function == "max":
            folded = max(fresh)
        else:
            folded = None
        self.merge(len(fresh), folded)

    def merge(self, count: int, folded: Any) -> None:
        """Credit ``count`` (> 0) non-NULL values whose sum, minimum or
        maximum — whichever the function keeps — is ``folded``."""
        self.count += count
        function = self.spec.function
        if function in ("sum", "avg"):
            self.total = folded if self.total is None else self.total + folded
        elif function == "min":
            if self.minimum is None or folded < self.minimum:
                self.minimum = folded
        elif function == "max":
            if self.maximum is None or folded > self.maximum:
                self.maximum = folded

    def result(self) -> Any:
        function = self.spec.function
        if function == "count":
            return self.count
        if function == "sum":
            return self.total
        if function == "avg":
            if self.count == 0 or self.total is None:
                return None
            return self.total / self.count
        if function == "min":
            return self.minimum
        if function == "max":
            return self.maximum
        raise ExecutionError(f"unknown aggregate {function!r}")


def new_states(specs: List[Aggregate]) -> List[AggregateState]:
    """Fresh per-group states."""
    return [AggregateState(spec) for spec in specs]


def fold_groups(
    groups: Sequence[Sequence[AggregateState]],
    columns: Sequence[Optional[Sequence[Any]]],
    codes: np.ndarray,
) -> None:
    """Fold one batch into its groups: ``groups[g][j]`` is group *g*'s
    state for aggregate *j*, ``columns[j]`` that aggregate's argument
    column (None for COUNT(*)) and ``codes[i]`` row *i*'s group.  Each
    state ends as if :meth:`AggregateState.update_values` had folded its
    group's rows in order.  Scalar aggregation is one group with all-zero
    codes.

    COUNT runs on ``np.bincount``; SUM/AVG/MIN/MAX over an int64 column
    on ``np.add.at``/``np.minimum.at``/``np.maximum.at`` while the sums
    stay inside ``_INT_FOLD_SAFE`` (integer folds are exact in any
    order); float SUM/AVG, where ``sum()`` is a plain fold, on
    ``np.add.at`` (left to right from 0.0, bit for bit).  DISTINCT, float
    MIN/MAX (NaN ordering), object columns (error parity) and wide ints
    take ``update_values`` per group, over one split of the batch."""
    count = len(groups)
    sizes = np.bincount(codes, minlength=count)
    split: Optional[List[List[int]]] = None  # each group's rows, in order
    for position, values in enumerate(columns):
        states = [group[position] for group in groups]
        if values is None:
            for state, size in zip(states, sizes.tolist()):
                state.update_count_star(size)
            continue
        spec = states[0].spec
        if not spec.distinct and _fold_numpy(spec.function, states, values, codes):
            continue
        if count == 1:
            states[0].update_values(values)
            continue
        if split is None:
            order = np.argsort(codes, kind="stable")
            split = [
                rows.tolist()
                for rows in np.split(order, np.cumsum(sizes)[:-1])
            ]
        for state, rows in zip(states, split):
            state.update_values([values[i] for i in rows])


#: Identity elements of the int64 folds, by aggregate function.
_INT_FOLDS = {
    "sum": (np.add, 0),
    "avg": (np.add, 0),
    "min": (np.minimum, np.iinfo(np.int64).max),
    "max": (np.maximum, np.iinfo(np.int64).min),
}


def _fold_numpy(
    function: str,
    states: Sequence[AggregateState],
    values: Sequence[Any],
    codes: np.ndarray,
) -> bool:
    """Fold one non-DISTINCT aggregate's column into ``states`` on numpy,
    where that is bit-identical to ``update_values``; False (nothing
    folded) where it is not."""
    if function != "count":
        kinds = set(map(type, values)) - {type(None)}
        if kinds != {int} and not (
            _PLAIN_FLOAT_SUM and function in ("sum", "avg") and kinds == {float}
        ):
            return False
    vec = promote(values)
    present, fresh = codes, vec.values
    if vec.mask is not None:
        present, fresh = codes[~vec.mask], fresh[~vec.mask]
    count = len(states)
    folded: List[Any] = [None] * count
    if function != "count":
        if fresh.dtype.kind == "i":
            if function in ("sum", "avg") and len(fresh):
                bound = max(abs(int(fresh.min())), abs(int(fresh.max())))
                if len(fresh) * bound >= _INT_FOLD_SAFE:
                    return False
            ufunc, identity = _INT_FOLDS[function]
            accumulated = np.full(count, identity, dtype=np.int64)
        elif fresh.dtype.kind == "f":
            ufunc, accumulated = np.add, np.zeros(count)
        else:  # ints beyond int64 promote to object
            return False
        ufunc.at(accumulated, present, fresh)
        folded = accumulated.tolist()
    counts = np.bincount(present, minlength=count).tolist()
    for state, fresh_count, value in zip(states, counts, folded):
        if fresh_count:
            state.merge(fresh_count, value)
    return True
