"""The redo stream applies resolved transactions in log order, aborted
ones included, and keeps bookkeeping only for open transactions."""

from repro.durability.redo import RedoStream


def recording_stream():
    redo = RedoStream()
    applied = []
    redo._redo = lambda record: applied.append(record["row"]) or 1
    return redo, applied


def row(txn, value):
    return {"op": "insert_run", "txn": txn, "row": value, "rids": [0]}


def test_overlapping_transactions_keep_the_open_set_bounded():
    """With some transaction always open the hold never empties; each
    transaction must still leave the open set once it commits or aborts,
    and an aborted one's records apply like a committed one's."""
    redo, applied = recording_stream()
    for txn in range(1, 500):
        redo.feed(row(txn, txn))
        if txn > 1:
            outcome = "commit" if txn % 2 else "abort"
            redo.feed({"op": outcome, "txn": txn - 1})
        assert redo.held == 1
        assert redo._open == {txn} and not redo._aborted
    assert applied == list(range(1, 499))
    redo.finish()
    assert redo.held == 0 and not redo._open
    assert redo.skipped == 1


def test_aborted_records_apply_at_the_abort_in_log_order():
    """A rollback's compensations are logged under its id before the
    ``abort``; they replay there, in log order with what they interleave,
    and ``finish`` drops only the records of transactions still open."""
    redo, applied = recording_stream()
    redo.feed(row(1, "a insert"))
    redo.feed(row(2, "b insert"))
    redo.feed(row(1, "a compensation"))
    redo.feed({"op": "commit", "txn": 2})
    assert applied == [] and redo.held == 3
    redo.feed(row(3, "c insert"))
    redo.feed({"op": "abort", "txn": 1})
    assert applied == ["a insert", "b insert", "a compensation"]
    assert redo._open == {3}
    redo.feed({"op": "sc_state", "txn": None, "row": "autonomous"})
    redo.feed(row(4, "d insert"))
    redo.feed({"op": "abort", "txn": 4})
    assert redo.held == 3
    redo.finish()
    assert applied == [
        "a insert", "b insert", "a compensation", "autonomous", "d insert"
    ]
    assert redo.skipped == 1
    assert redo.held == 0 and not redo._open


def test_an_aborted_transaction_applies_whole_or_not_at_all():
    """An aborted transaction's first record blocks the hold while an
    open transaction's record precedes its last one; chained aborts wait
    together.  ``finish`` applies a waiting abort whole."""
    redo, applied = recording_stream()
    redo.feed(row(1, "a insert"))
    redo.feed(row(2, "x insert"))
    redo.feed(row(1, "a compensation"))
    redo.feed({"op": "abort", "txn": 1})
    assert applied == [] and redo._aborted == {1}
    redo.feed(row(3, "y insert"))
    redo.feed(row(2, "x compensation"))
    redo.feed({"op": "abort", "txn": 2})
    assert applied == [] and redo._aborted == {1, 2}
    redo.feed({"op": "commit", "txn": 3})
    assert applied == [
        "a insert", "x insert", "a compensation", "y insert",
        "x compensation",
    ]
    assert redo.held == 0 and not redo._aborted
    redo.feed(row(4, "b insert"))
    redo.feed(row(5, "z insert"))
    redo.feed(row(4, "b compensation"))
    redo.feed({"op": "abort", "txn": 4})
    assert redo.held == 3 and redo._aborted == {4}
    redo.finish()
    assert applied[-2:] == ["b insert", "b compensation"]
    assert redo.skipped == 1
    assert redo.held == 0 and not redo._open and not redo._aborted
