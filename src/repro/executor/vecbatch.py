"""Columnar vectors: numpy value arrays paired with explicit null masks.

A :class:`Vec` is one column of a batch in true columnar form: a numpy
array of values plus an optional boolean ``mask`` marking SQL NULL
positions (``True`` = NULL).  A :class:`ColumnarBatch` lazily promotes
the plain Python column lists of a :class:`RowBatch` into Vecs, one
column at a time, so vectorized kernels only ever pay conversion for the
columns an expression actually touches (late materialization).

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

from repro.executor.batch import RowBatch, gather

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

    def row_batch(
        self,
        names: Tuple[str, ...],
        indices: Optional[np.ndarray],
        positions: Optional[Tuple[int, ...]] = None,
    ) -> RowBatch:
        """All rows, or the rows at ``indices``, gathered out of the
        cached column tuples: those at ``positions`` (by default the
        first ``len(names)``), under ``names``."""
        if positions is None:
            positions = tuple(range(len(names)))
        columns = [self.column(position) for position in positions]
        if indices is None:
            return RowBatch(names, dict(zip(names, columns)), len(self.rows))
        positions = indices.tolist()
        gathered = gather(columns, positions)
        return RowBatch(names, dict(zip(names, gathered)), len(positions))


class ColumnarBatch:
    """A batch whose columns promote to :class:`Vec` lazily, on first use.

    Wraps raw storage row tuples (one-shot scan chunks), a retained
    :class:`ColumnImage` (the sequential scan's table image), or an
    existing :class:`~repro.executor.batch.RowBatch` (filter path).  A
    scan's batch names only the columns its plan reads; ``positions``
    maps each to its place in a storage row (None: the columns are the
    row's, in order).
    Row-backed batches transpose one column at a time, on demand, so a
    predicate over two of ten columns never even transposes the other
    eight.  One-shot survivors gather straight from the row tuples, so
    columns only the output touches are materialized solely for
    survivors; image survivors gather from the image's column tuples,
    which later statements reuse.
    """

    __slots__ = (
        "columns", "length", "_raw", "_rows", "_image", "_positions", "_vecs"
    )

    def __init__(
        self,
        columns: Sequence[str],
        raw: Dict[str, Sequence[Any]],
        length: int,
        rows: Optional[Sequence[Tuple[Any, ...]]] = None,
        image: Optional[ColumnImage] = None,
        positions: Optional[Tuple[int, ...]] = None,
    ) -> None:
        self.columns: Tuple[str, ...] = tuple(columns)
        self.length = length
        self._raw = raw
        self._rows = rows
        self._image = image
        self._positions = positions
        self._vecs: Dict[str, Vec] = {}

    def __len__(self) -> int:
        return self.length

    @classmethod
    def from_tuples(
        cls,
        columns: Sequence[str],
        positions: Tuple[int, ...],
        rows: Sequence[Tuple[Any, ...]],
    ) -> "ColumnarBatch":
        """Wrap storage row tuples (the columnar scan's entry point);
        no transposition happens until a column is actually used."""
        return cls(columns, {}, len(rows), rows=rows, positions=positions)

    @classmethod
    def from_image(
        cls,
        columns: Sequence[str],
        positions: Tuple[int, ...],
        image: ColumnImage,
    ) -> "ColumnarBatch":
        """View a retained chunk under one scan's column names; columns
        and Vecs come from (and are cached in) the image."""
        return cls(columns, {}, len(image), image=image, positions=positions)

    @classmethod
    def from_row_batch(cls, batch: RowBatch) -> "ColumnarBatch":
        """View an existing list-based batch columnar-ly (zero copy)."""
        return cls(batch.columns, batch.data, batch.length)

    def _position(self, name: str) -> Optional[int]:
        """The named column's place in a storage row."""
        try:
            index = self.columns.index(name)
        except ValueError:
            return None
        return index if self._positions is None else self._positions[index]

    def _column(self, name: str) -> Optional[Sequence[Any]]:
        """The raw Python column, transposing it out of the row tuples
        on first use (cached)."""
        raw = self._raw.get(name)
        if raw is None:
            if self._rows is None:
                return None
            position = self._position(name)
            if position is None:
                return None
            raw = [row[position] for row in self._rows]
            self._raw[name] = raw
        return raw

    def vec(self, name: str) -> Optional[Vec]:
        """The named column as a Vec (promoted once, cached); None when
        the batch has no such column."""
        vector = self._vecs.get(name)
        if vector is None:
            if self._image is not None:
                position = self._position(name)
                if position is None:
                    return None
                vector = self._image.vec(position)
            else:
                raw = self._column(name)
                if raw is None:
                    return None
                vector = promote(raw)
            self._vecs[name] = vector
        return vector

    def to_row_batch(
        self, indices: Optional[np.ndarray] = None
    ) -> RowBatch:
        """Materialize (a selection of) the batch as a list-based
        :class:`RowBatch` — the late-materialization step: only surviving
        rows are ever converted back to Python values, which flow through
        as the original objects (exact parity for free)."""
        if self._image is not None:
            return self._image.row_batch(self.columns, indices, self._positions)
        if self._rows is not None:
            rows = self._rows
            if indices is not None:
                rows = [rows[p] for p in indices.tolist()]
            return RowBatch.from_tuples(self.columns, rows, self._positions)
        batch = RowBatch(self.columns, self._raw, self.length)
        return batch if indices is None else batch.take(indices.tolist())
