"""Join operators: hash join and (materialized-inner) nested loops.

Each join has a row-at-a-time form (the oracle: it interprets its
expressions) and a batched twin (the production executor: it runs the
kernels of the plan's compiled expressions).  The batched forms
materialize the build/inner side as one concatenated
:class:`~repro.executor.batch.RowBatch`, evaluate join keys once per
batch, and emit column-major output whose inner-side columns are gathered
(or, for nested loops, tiled by C-level list repetition) rather than
merged dict-by-dict.  Conditions and residuals run over that output
batch itself (:func:`~repro.expr.vector.select_rows`).  The batched hash
join matches int64 key codes with a stable sort and ``searchsorted``, so
its output keeps the oracle's order: probe order, then build insertion
order.  NULL and NaN keys never match.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.executor.batch import RowBatch
from repro.executor.vecbatch import factorise, promote
from repro.expr.eval import evaluate
from repro.expr.vector import select_rows, value_columns
from repro.optimizer.physical import HashJoin, NestedLoopJoin

RowDict = Dict[str, Any]
RowIterator = Iterator[RowDict]
ChildRunner = Callable[[object], RowIterator]
BatchRunner = Callable[[object], Iterator[RowBatch]]


def _note_pairs_per_row(
    rows: RowIterator, guard: Any, inner_size: int
) -> RowIterator:
    """Charge the guard's join-pair budget as each outer row arrives."""
    for row in rows:
        guard.note_pairs(inner_size)
        yield row


def run_nested_loop_join(
    node: NestedLoopJoin,
    run_child: ChildRunner,
    guard: Any = None,
) -> RowIterator:
    """Nested loops with the inner input materialized once.

    Materializing mirrors the cost model (inner I/O paid once, CPU per
    pair) and keeps correctness simple — our page counters would otherwise
    charge repeated physical rescans that a real engine's buffer pool
    would absorb.
    """
    inner_rows: List[RowDict] = list(run_child(node.right))
    if guard is not None:
        guard.note_rows(len(inner_rows))
    outer_rows = run_child(node.left)
    if guard is not None:
        outer_rows = _note_pairs_per_row(outer_rows, guard, len(inner_rows))
    condition = node.condition
    if condition is None:
        for left_row in outer_rows:
            for right_row in inner_rows:
                yield {**left_row, **right_row}
    else:
        for left_row in outer_rows:
            for right_row in inner_rows:
                merged = {**left_row, **right_row}
                if evaluate(condition, merged) is True:
                    yield merged


def run_hash_join(
    node: HashJoin,
    run_child: ChildRunner,
    guard: Any = None,
) -> RowIterator:
    """Classic hash join: build on the right input, probe with the left.

    NULL and NaN key components never match (SQL equality semantics).
    """
    residual = node.residual
    build: Dict[Tuple[Any, ...], List[RowDict]] = {}
    for right_row in run_child(node.right):
        key = tuple(evaluate(expr, right_row) for expr in node.right_keys)
        if _unmatchable(key):
            continue
        build.setdefault(key, []).append(right_row)
        if guard is not None:
            guard.note_rows(1)
    if not build:
        return  # empty build side: skip scanning the probe input entirely
    for left_row in run_child(node.left):
        key = tuple(evaluate(expr, left_row) for expr in node.left_keys)
        if _unmatchable(key):
            continue
        matches = build.get(key)
        if not matches:
            continue
        if guard is not None:
            guard.note_pairs(len(matches))
        for right_row in matches:
            merged = {**left_row, **right_row}
            if residual is None or evaluate(residual, merged) is True:
                yield merged


# -- batched variants ----------------------------------------------------------


def run_nested_loop_join_batched(
    node: NestedLoopJoin,
    run_child: BatchRunner,
    batch_size: int,
    guard: Any = None,
) -> Iterator[RowBatch]:
    """Batched nested loops: inner materialized once, outer tiled against it.

    For an outer chunk of *k* rows and an inner of *m* rows the output
    chunk repeats each outer value *m* times and tiles the inner columns
    *k* times (``column * k`` — a C-level copy), then evaluates the join
    condition once over the whole k×m chunk.
    """
    inner = RowBatch.concat(list(run_child(node.right)))
    if guard is not None:
        guard.note_rows(0 if inner is None else len(inner))
    if inner is None or len(inner) == 0:
        return
    # The inner columns below are aliased into every output chunk
    # (``column * 1`` shares the object); freeze them so an in-place
    # mutation anywhere downstream fails loudly instead of
    # corrupting other chunks.
    inner.freeze()
    m = len(inner)
    # Keep output chunks near batch_size rows without splitting inner runs.
    outer_chunk = max(1, batch_size // m)
    for left in run_child(node.left):
        for start in range(0, len(left), outer_chunk):
            piece = left.slice(start, start + outer_chunk)
            k = len(piece)
            if guard is not None:
                guard.note_pairs(k * m)
            # ``{**left_row, **right_row}``: left columns first, then
            # right-only ones; on a name collision the right side wins.
            data: Dict[str, Sequence[Any]] = {}
            for name in piece.columns:
                column = piece.column(name)
                data[name] = [value for value in column for _ in range(m)]
            for name in inner.columns:
                column = inner.column(name)
                data[name] = column * k if k > 1 else column
            merged = RowBatch(data, data, k * m)
            if node.condition is not None:
                merged = select_rows(node.compiled_condition, merged)
            if len(merged):
                yield merged


class _BuildIndex:
    """The build side's key codes, stably sorted (equal keys keep build
    insertion order).  A single ``int64`` key is its own code; other keys
    are numbered by :func:`~repro.executor.vecbatch.factorise`, and
    ``lookup`` maps each distinct key tuple to its code.  A key with a
    NULL or NaN component gets no code, so it never matches."""

    __slots__ = ("identity", "lookup", "codes", "rows")

    def __init__(self, keys: List[Sequence[Any]]) -> None:
        vec = promote(keys[0]) if len(keys) == 1 else None
        self.identity = vec is not None and vec.values.dtype.kind == "i"
        self.lookup: Optional[Dict[Tuple[Any, ...], int]] = None
        if self.identity:
            codes = vec.values
            valid = None if vec.mask is None else ~vec.mask
        else:
            codes, _, distinct = factorise(keys)
            matchable = np.asarray([not _unmatchable(k) for k in distinct], dtype=bool)
            self.lookup = {
                key: code for code, key in enumerate(distinct) if matchable[code]
            }
            valid = matchable[codes]
        rows = np.arange(len(codes)) if valid is None else np.flatnonzero(valid)
        order = np.argsort(codes[rows], kind="stable")
        self.codes, self.rows = codes[rows[order]], rows[order]

    def probe(self, keys: List[Sequence[Any]]) -> Tuple[np.ndarray, np.ndarray]:
        """``(probe_idx, build_idx)`` of every matching pair, in order."""
        vec = promote(keys[0]) if self.identity else None
        if vec is not None and vec.values.dtype.kind == "i":
            codes, missing = vec.values, vec.mask
        else:
            if self.lookup is None:
                distinct = np.unique(self.codes).tolist()
                self.lookup = {(code,): code for code in distinct}
            # One lookup per distinct probe key, not per row.
            local, _, distinct = factorise(keys)
            found = [self.lookup.get(key) for key in distinct]
            codes = np.asarray([code or 0 for code in found], dtype=np.int64)[local]
            missing = np.asarray([code is None for code in found])[local]
        left = np.searchsorted(self.codes, codes, side="left")
        counts = np.searchsorted(self.codes, codes, side="right") - left
        if missing is not None:
            counts[missing] = 0
        probe_idx = np.repeat(np.arange(len(codes)), counts)
        # Each probe row's run starts at ``left``; step through it.
        starts = np.repeat(left - (np.cumsum(counts) - counts), counts)
        return probe_idx, self.rows[starts + np.arange(len(probe_idx))]


def _unmatchable(key: Tuple[Any, ...]) -> bool:
    """SQL ``=`` is never true for a NULL or NaN component."""
    return any(part is None or part != part for part in key)


def run_hash_join_batched(
    node: HashJoin,
    run_child: BatchRunner,
    batch_size: int,
    guard: Any = None,
) -> Iterator[RowBatch]:
    """Batched hash join: the build side is concatenated once and its key
    codes sorted (:class:`_BuildIndex`); each probe batch finds its build
    runs with ``searchsorted`` and gathers both sides' columns by index —
    no per-row dict merging."""
    build_side = RowBatch.concat(list(run_child(node.right)))
    if guard is not None:
        guard.note_rows(0 if build_side is None else len(build_side))
    index = None
    if build_side is not None and len(build_side):
        # Build columns are gathered into every output batch; freeze
        # them so aliased in-place mutation fails loudly (see RowBatch).
        build_side.freeze()
        index = _BuildIndex(value_columns(node.compiled_right_keys, build_side))
    if index is None or not len(index.rows):
        return  # empty build side: skip scanning the probe input entirely
    for left in run_child(node.left):
        probe_idx, build_idx = index.probe(
            value_columns(node.compiled_left_keys, left)
        )
        if not len(probe_idx):
            continue
        if guard is not None:
            guard.note_pairs(len(probe_idx))
        data: Dict[str, Sequence[Any]] = {}  # as ``{**left_row, **right_row}``
        for side, picks in ((left, probe_idx), (build_side, build_idx)):
            taken = side.take(picks.tolist())
            data.update((name, taken.column(name)) for name in side.columns)
        merged = RowBatch(data, data, len(probe_idx))
        if node.residual is not None:
            merged = select_rows(node.compiled_residual, merged)
        if len(merged):
            yield merged
