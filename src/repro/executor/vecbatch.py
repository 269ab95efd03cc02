"""Columnar vectors: numpy value arrays paired with explicit null masks.

A :class:`Vec` is one column of a batch in true columnar form: a numpy
array of values plus an optional boolean ``mask`` marking SQL NULL
positions (``True`` = NULL).  :meth:`RowBatch.vec
<repro.executor.batch.RowBatch.vec>` promotes a batch's Python columns
into Vecs one column at a time, so vectorized kernels only ever pay
conversion for the columns an expression actually touches (late
materialization).  A :class:`ColumnImage` keeps one scan chunk's
transposed columns and their Vecs across statements.

Dtype promotion rules (exact, decided from ``set(map(type, column))``):

* all ``int`` (``bool`` excluded — it is not a SQL number) → ``int64``;
* all ``float`` → ``float64``;
* either of the above plus ``None`` → same dtype with the NULL slots
  filled by ``0`` and marked in the mask;
* an all-``None`` column → ``int64`` zeros, fully masked;
* anything else — strings, bools, mixed ``int``/``float``, exotic
  objects, ints beyond ``int64`` — → ``object`` dtype with ``None`` kept
  in place.  Kernels run the interpreter's own operators element by
  element over object columns (:mod:`repro.expr.vector`); a batch in
  which some row raises is re-evaluated row by row through the
  interpreter, errors included.

Mixed ``int``/``float`` deliberately does *not* promote to ``float64``:
``2**53 + 1 == float(2**53)`` under numpy's lossy int→float cast, while
Python compares int-to-float exactly — the object fallback keeps those
columns bit-faithful.  ``NaN`` is a float *value*, never NULL: it stays
unmasked, so ``x IS NULL`` is False and ``x = x`` is False for a NaN,
matching the interpreter.

Vec value arrays are frozen (``writeable=False``): downstream operators
alias columns across batches, and an in-place numpy mutation would
corrupt every aliased reader.
"""

from __future__ import annotations

import datetime
from operator import itemgetter
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: int64-vs-float64 interactions are exact only below 2**53; kernels
#: consult this bound before mixing the two dtypes.
FLOAT_EXACT_INT = 2**53

_NONE_TYPE = type(None)


class Vec:
    """One column: a numpy values array + optional null mask (True = NULL).

    For numeric dtypes the masked slots hold a ``0`` filler; for object
    dtype they hold ``None`` itself (so ``tolist`` round-trips for free).
    """

    __slots__ = ("values", "mask")

    def __init__(
        self, values: np.ndarray, mask: Optional[np.ndarray] = None
    ) -> None:
        self.values = values
        self.mask = mask

    def __len__(self) -> int:
        return len(self.values)

    @property
    def is_numeric(self) -> bool:
        return self.values.dtype.kind in ("i", "f")

    def to_list(self) -> List[Any]:
        """Python values with ``None`` restored at masked positions."""
        out = self.values.tolist()
        if self.mask is not None and self.values.dtype != object:
            for i in np.flatnonzero(self.mask).tolist():
                out[i] = None
        return out

    def __repr__(self) -> str:
        nulls = 0 if self.mask is None else int(self.mask.sum())
        return f"Vec(n={len(self.values)}, dtype={self.values.dtype}, nulls={nulls})"


def _freeze(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def promote(values: Sequence[Any]) -> Vec:
    """Promote one Python column to a :class:`Vec` per the module rules."""
    kinds = set(map(type, values))
    has_null = _NONE_TYPE in kinds
    kinds.discard(_NONE_TYPE)
    if kinds == {int} or not kinds:
        filler = values
        if has_null or not kinds:
            filler = [0 if v is None else v for v in values]
        try:
            array = np.asarray(filler, dtype=np.int64)
        except OverflowError:
            return _object_vec(values, has_null)
        mask = None
        if has_null or not kinds:
            mask = np.fromiter(
                (v is None for v in values), dtype=bool, count=len(values)
            )
            if not mask.any():
                mask = None
        return Vec(_freeze(array), mask)
    if kinds == {float}:
        if has_null:
            filler = [0.0 if v is None else v for v in values]
            mask = np.fromiter(
                (v is None for v in values), dtype=bool, count=len(values)
            )
        else:
            filler = values
            mask = None
        return Vec(_freeze(np.asarray(filler, dtype=np.float64)), mask)
    return _object_vec(values, has_null)


def _object_vec(values: Sequence[Any], has_null: bool) -> Vec:
    array = np.empty(len(values), dtype=object)
    array[:] = values
    mask = None
    if has_null:
        mask = np.fromiter(
            (v is None for v in values), dtype=bool, count=len(values)
        )
    return Vec(_freeze(array), mask)


#: Key types whose sort order and ``==`` group as a dict does.  Not
#: floats: NaN is unequal to itself, so sorting cannot group it.
_SORTABLE_KEYS = frozenset((int, bool, str, datetime.date, _NONE_TYPE))


Factorised = Tuple[np.ndarray, List[int], List[Tuple[Any, ...]]]


def factorise(columns: Sequence[Sequence[Any]]) -> Factorised:
    """Number a batch's key tuples in first-seen order: ``(codes, firsts,
    keys)``, where row *i* holds key ``codes[i]`` and key *k* first shows
    in row ``firsts[k]`` as ``keys[k]``.  NULL equals NULL (a join drops
    NULL keys itself).  Ints, bools, strings and dates are numbered by
    ``np.unique``; floats or an unsortable mix take the dict fallback."""
    try:
        keys = [sortable(values) for values in columns]
        if any(column is None for column in keys):
            return _dict_codes(columns)
        codes = keys[0]
        for column in keys[1:]:
            codes = dense(codes) * len(column) + dense(column)
        _, firsts, codes = np.unique(codes, return_index=True, return_inverse=True)
    except TypeError:  # an unorderable mix, such as str with int
        return _dict_codes(columns)
    # np.unique numbers keys in sorted order; renumber by first row.
    order = np.argsort(firsts)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    firsts = firsts[order].tolist()
    return rank[codes], firsts, list(zip(*[[c[i] for i in firsts] for c in columns]))


def sortable(values: Sequence[Any]) -> Optional[np.ndarray]:
    """One key column as an array that sorts like its values, NULL as
    one more value; None for a column that cannot be sorted."""
    vec = promote(values)
    if vec.values.dtype.kind == "f" or (
        vec.values.dtype == object and not set(map(type, values)) <= _SORTABLE_KEYS
    ):
        return None
    if vec.mask is None:
        return vec.values
    codes = np.full(len(values), len(values), dtype=np.int64)
    codes[~vec.mask] = dense(vec.values[~vec.mask])
    return codes


def dense(array: np.ndarray) -> np.ndarray:
    """Codes 0..k-1 numbering ``array``'s k distinct values in sort order."""
    return np.unique(array, return_inverse=True)[1]


def _dict_codes(columns: Sequence[Sequence[Any]]) -> Factorised:
    """:func:`factorise`'s fallback: number key tuples through a dict."""
    numbers: Dict[Tuple[Any, ...], int] = {}
    codes = np.asarray(
        [numbers.setdefault(key, len(numbers)) for key in zip(*columns)],
        dtype=np.int64,
    )
    # Codes count up from 0 in first-seen order, so sorted is first-seen.
    return codes, np.unique(codes, return_index=True)[1].tolist(), list(numbers)


class ColumnImage:
    """One scan chunk's storage row tuples, kept across statements: each
    column position is transposed to a tuple, and promoted to a
    :class:`Vec`, the first time a predicate or an output touches it.

    The sequential scan's table image (:mod:`repro.executor.scans`)
    holds these while the table's write version holds, so an unchanged
    chunk is transposed and promoted once, not once per statement.
    """

    __slots__ = ("rows", "_columns", "_vecs")

    def __init__(self, rows: List[Tuple[Any, ...]]) -> None:
        self.rows = rows
        self._columns: Dict[int, Tuple[Any, ...]] = {}
        self._vecs: Dict[int, Vec] = {}

    def __len__(self) -> int:
        return len(self.rows)

    def column(self, position: int) -> Tuple[Any, ...]:
        column = self._columns.get(position)
        if column is None:
            column = tuple(map(itemgetter(position), self.rows))
            self._columns[position] = column
        return column

    def vec(self, position: int) -> Vec:
        vector = self._vecs.get(position)
        if vector is None:
            vector = promote(self.column(position))
            self._vecs[position] = vector
        return vector
