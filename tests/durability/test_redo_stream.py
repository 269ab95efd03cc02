"""The redo stream's hold keeps bounded bookkeeping."""

from repro.durability.redo import RedoStream


def test_overlapping_transactions_keep_the_outcome_table_bounded():
    """With some transaction always open the hold never empties; the
    outcome of each transaction must still go once its records drain."""
    redo = RedoStream()
    applied = []
    redo._redo = lambda record: applied.append(record["row"]) or 1
    for txn in range(1, 500):
        redo.feed({"op": "insert_run", "txn": txn, "row": txn, "rids": [0]})
        if txn > 1:
            redo.feed({"op": "commit", "txn": txn - 1})
        assert redo.held == 1
        assert len(redo._resolved) <= 1
    assert applied == list(range(1, 499))
    redo.finish()
    assert redo.held == 0 and not redo._resolved
    assert redo.skipped == 1
