"""The one batch type, over each of its backings.

A :class:`~repro.executor.batch.RowBatch` holds columns an operator
built (``data``), or reads them lazily, by ``positions``, from storage
row tuples or from one table-image chunk
(:class:`~repro.executor.vecbatch.ColumnImage`).  The same rows built
all three ways must give the same answer from every reader and every
selection — ``column``, ``vec``, ``row``, ``take``, ``slice``,
``split``, ``concat``, ``freeze``, ``filter_true`` and ``to_rows`` —
over NULL, NaN, int/float mixes, ints past int64, strings, bools and
dates.  A backed batch reads only what is asked of it: a predicate
kernel over two columns transposes those two and no other position.
"""

import datetime

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExecutionError
from repro.executor.batch import RowBatch
from repro.executor.vecbatch import ColumnImage, promote
from repro.expr.compile import compile_expr
from repro.expr.vector import filter_indices, kernel_of, select_rows
from repro.sql.parser import parse_expression

NAN = float("nan")

_KINDS = {
    "int": st.integers(-5, 5),
    "float": st.sampled_from([0.5, -1.25, 0.0, -0.0, NAN]),
    "int-float": st.sampled_from([1, 1.0, 2**53 + 1, float(2**53), 3]),
    "past-int64": st.sampled_from([2**63, -(2**70), 7]),
    "str": st.sampled_from(["", "a", "b", "ab"]),
    "bool": st.booleans(),
    "date": st.sampled_from([datetime.date(2020, 1, d) for d in (1, 2, 3)]),
    "mixed": st.sampled_from([1, "1", True, 2.5, datetime.date(2020, 1, 1)]),
}


@st.composite
def stored(draw, max_rows=12):
    """``(rows, names, positions)``: storage tuples of 1–6 columns of
    drawn kinds (NULL in about one value of three) and a layout reading
    some of their positions, in any order."""
    kinds = draw(st.lists(st.sampled_from(sorted(_KINDS)), min_size=1, max_size=6))
    values = [st.one_of(st.none(), _KINDS[kind], _KINDS[kind]) for kind in kinds]
    rows = draw(st.lists(st.tuples(*values), max_size=max_rows))
    positions = tuple(
        draw(st.permutations(range(len(kinds))))[: draw(st.integers(0, len(kinds)))]
    )
    names = tuple(f"t.c{position}" for position in positions)
    return rows, names, positions


def _backings(rows, names, positions):
    """The same rows as a built, a tuple-backed and an image-backed batch."""
    data = {
        name: [row[position] for row in rows]
        for name, position in zip(names, positions)
    }
    return {
        "built": RowBatch(names, data, len(rows)),
        "tuples": RowBatch.from_tuples(names, positions, rows),
        "image": RowBatch.from_image(names, positions, ColumnImage(rows)),
    }


def _agree(batches, read, expected):
    """``read`` of every backing gives ``expected``, by ``repr`` (which
    tells 1 from 1.0 and True, -0.0 from 0.0, and shows NaN)."""
    for kind, batch in batches.items():
        assert repr(read(batch)) == repr(expected), kind


def _vec_form(vector):
    mask = None if vector.mask is None else vector.mask.tolist()
    return str(vector.values.dtype), vector.to_list(), mask


@settings(max_examples=150, deadline=None)
@given(stored(), st.data())
def test_every_backing_reads_and_selects_as_the_rows_do(layout, data):
    rows, names, positions = layout
    batches = _backings(rows, names, positions)
    # The reference: the layout's row dicts, selected in plain Python.
    dicts = [{name: row[p] for name, p in zip(names, positions)} for row in rows]
    count = len(rows)
    _agree(batches, len, count)
    _agree(batches, RowBatch.to_rows, dicts)
    for name in names:
        values = [row[name] for row in dicts]
        _agree(batches, lambda batch: list(batch.column(name)), values)
        vector = _vec_form(promote(values))
        _agree(batches, lambda batch: _vec_form(batch.vec(name)), vector)
        _agree(batches, lambda batch: batch.vec(name) is batch.vec(name), True)
    if count:
        at = data.draw(st.integers(0, count - 1))
        _agree(batches, lambda batch: batch.row(at), dicts[at])
    picks = data.draw(st.lists(st.integers(0, max(count - 1, 0)), max_size=2 * count))
    taken = [dicts[i] for i in picks]
    _agree(batches, lambda batch: batch.take(picks).to_rows(), taken)
    start, stop = sorted(data.draw(st.tuples(*[st.integers(0, count + 2)] * 2)))
    piece = dicts[start:stop]
    _agree(batches, lambda batch: len(batch.slice(start, stop)), len(piece))
    _agree(batches, lambda batch: batch.slice(start, stop).to_rows(), piece)
    size = data.draw(st.integers(1, count + 1))
    _agree(
        batches,
        lambda batch: [part.to_rows() for part in batch.split(size)],
        [dicts[i : i + size] for i in range(0, count, size)],
    )
    cut = data.draw(st.integers(0, count))

    def joined(batch):
        return RowBatch.concat([batch.slice(0, cut), batch.slice(cut, count)]).to_rows()

    _agree(batches, joined, dicts)
    flags = st.sampled_from([True, False, None, 1])
    mask = data.draw(st.lists(flags, min_size=count, max_size=count))
    _agree(
        batches,
        lambda batch: batch.filter_true(mask).to_rows(),
        [row for row, flag in zip(dicts, mask) if flag is True],
    )
    for batch in batches.values():
        assert batch.freeze() is batch
        assert all(type(batch.data[name]) is tuple for name in batch.data)
    _agree(batches, RowBatch.to_rows, dicts)


@pytest.mark.parametrize("kind", ["tuples", "image"])
def test_a_predicate_on_two_columns_transposes_only_those_two(kind):
    rows = [tuple(range(i, i + 10)) for i in range(20)]
    names = tuple(f"t.c{position}" for position in range(10))
    image = ColumnImage(rows)
    batch = (
        RowBatch.from_tuples(names, tuple(range(10)), rows)
        if kind == "tuples"
        else RowBatch.from_image(names, tuple(range(10)), image)
    )
    predicate = compile_expr(parse_expression("c1 > 3 AND c8 < 20"))
    kept = filter_indices(kernel_of(predicate), batch)
    assert kept.tolist() == list(range(3, 12))
    assert batch.column("t.c1")[:2] == (1, 2)
    if kind == "tuples":
        assert set(batch.data) == {"t.c1", "t.c8"}
    else:
        assert set(image._columns) == {1, 8} and set(image._vecs) == {1, 8}
        assert batch.vec("t.c1") is image.vec(1), "the image's own Vec"


def test_tuple_survivors_stay_backed_by_their_rows():
    rows = [(i, f"s{i}", i / 2) for i in range(8)]
    batch = RowBatch.from_tuples(("t.a", "t.c"), (0, 2), rows)
    survivors = select_rows(compile_expr(parse_expression("a >= 6")), batch)
    assert survivors.data == {}, "nothing transposed for the survivors yet"
    assert survivors.to_rows() == [{"t.a": 6, "t.c": 3.0}, {"t.a": 7, "t.c": 3.5}]


def test_an_image_backed_batch_reads_the_image_columns():
    image = ColumnImage([(1, "a"), (2, "b")])
    batch = RowBatch.from_image(("t.b",), (1,), image)
    assert batch.column("t.b") is image.column(1)
    assert batch.to_rows() == [{"t.b": "a"}, {"t.b": "b"}]


@pytest.mark.parametrize("kind", ["built", "tuples", "image"])
def test_an_unknown_column_raises_a_typed_error(kind):
    batch = _backings([(1,)], ("t.a",), (0,))[kind]
    with pytest.raises(ExecutionError):
        batch.column("t.b")


def test_zero_column_batches_keep_their_length():
    for batch in _backings([(1,), (2,)], (), ()).values():
        assert len(batch) == 2
        assert batch.to_rows() == [{}, {}]
        assert len(batch.take([1])) == 1 and batch.take([1]).to_rows() == [{}]
        assert len(batch.slice(1, 5)) == 1


def test_vec_promotes_int_columns_to_int64():
    for batch in _backings([(1, 2**64), (None, 3)], ("t.a", "t.b"), (0, 1)).values():
        vector = batch.vec("t.a")
        assert vector.values.dtype == np.int64 and vector.mask.tolist() == [False, True]
        assert batch.vec("t.b").values.dtype == object
