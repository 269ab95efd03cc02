"""Unit tests for the write-ahead log: framing, scan, torn tails,
mid-log corruption, and the deterministic ``wal_append`` crash site."""

import pytest

from repro.durability.wal import WriteAheadLog, _decode_line, _frame
from repro.errors import WALCorruptionError
from repro.resilience.faults import FaultInjector, SimulatedCrash


def test_append_scan_roundtrip(tmp_path):
    wal = WriteAheadLog(tmp_path / "wal.log")
    records = [
        {"op": "insert", "table": "t", "rid": [0, n], "row": [n, None]}
        for n in range(25)
    ]
    for record in records:
        wal.append(record)
    wal.flush()
    scanned, end_offset, torn = wal.scan()
    assert scanned == records
    assert not torn
    assert end_offset == (tmp_path / "wal.log").stat().st_size
    # Scanning from an intermediate offset yields the suffix.
    prefix = sum(len(_frame(record)) for record in records[:10])
    suffix, _, _ = wal.scan(prefix)
    assert suffix == records[10:]
    wal.close()


def test_scan_survives_reopen(tmp_path):
    wal = WriteAheadLog(tmp_path / "wal.log")
    wal.append({"op": "commit", "txn": 1})
    wal.close()
    reopened = WriteAheadLog(tmp_path / "wal.log")
    scanned, _, torn = reopened.scan()
    assert scanned == [{"op": "commit", "txn": 1}] and not torn
    reopened.close()


def test_torn_final_record_is_tolerated_and_truncated(tmp_path):
    path = tmp_path / "wal.log"
    wal = WriteAheadLog(path)
    wal.append({"op": "insert", "table": "t", "rid": [0, 0], "row": [1]})
    wal.append({"op": "commit", "txn": 1})
    wal.flush()
    intact_size = path.stat().st_size
    # Simulate a torn write: half of a final record, no newline.
    with open(path, "ab") as handle:
        torn_line = _frame({"op": "insert", "table": "t", "rid": [0, 1], "row": [2]})
        handle.write(torn_line[: len(torn_line) // 2])
    records, end_offset, torn = wal.scan()
    assert torn
    assert end_offset == intact_size
    assert [record["op"] for record in records] == ["insert", "commit"]
    wal.truncate_to(end_offset)
    assert path.stat().st_size == intact_size
    # After truncation the log is clean again and still appendable.
    wal.append({"op": "abort", "txn": 2})
    records, _, torn = wal.scan()
    assert not torn
    assert [record["op"] for record in records] == ["insert", "commit", "abort"]
    wal.close()


def test_corrupt_final_record_with_newline_counts_as_torn(tmp_path):
    path = tmp_path / "wal.log"
    wal = WriteAheadLog(path)
    wal.append({"op": "commit", "txn": 1})
    wal.flush()
    good_size = path.stat().st_size
    line = bytearray(_frame({"op": "commit", "txn": 2}))
    line[3] = ord("f") if line[3] != ord("f") else ord("0")  # break the CRC
    with open(path, "ab") as handle:
        handle.write(bytes(line))
    records, end_offset, torn = wal.scan()
    assert torn and end_offset == good_size
    assert records == [{"op": "commit", "txn": 1}]
    wal.close()


def test_mid_log_corruption_raises(tmp_path):
    path = tmp_path / "wal.log"
    wal = WriteAheadLog(path)
    wal.append({"op": "commit", "txn": 1})
    wal.append({"op": "commit", "txn": 2})
    wal.flush()
    data = bytearray(path.read_bytes())
    data[4] = data[4] ^ 0xFF  # flip a byte inside the FIRST record
    path.write_bytes(bytes(data))
    with pytest.raises(WALCorruptionError):
        wal.scan()
    wal.close()


def test_decode_line_rejects_malformed_frames():
    good = _frame({"op": "commit", "txn": 1}).rstrip(b"\n")
    assert _decode_line(good) == {"op": "commit", "txn": 1}
    assert _decode_line(b"") is None
    assert _decode_line(b"short") is None
    assert _decode_line(b"zzzzzzzz " + good[9:]) is None  # bad hex
    assert _decode_line(good[:-1]) is None  # payload truncated: CRC fails


def test_wal_append_crash_site_tears_the_record(tmp_path):
    path = tmp_path / "wal.log"
    crash_points = FaultInjector(seed=1).add("wal_append", "crash", at_visit=3)
    wal = WriteAheadLog(path, crash_points)
    wal.append({"op": "insert", "table": "t", "rid": [0, 0], "row": [1]})
    wal.append({"op": "commit", "txn": 1})
    with pytest.raises(SimulatedCrash):
        wal.append({"op": "insert", "table": "t", "rid": [0, 1], "row": [2]})
    # The third record is half-written: a later scan sees a torn tail
    # covering exactly the two intact records.
    records, _, torn = wal.scan()
    assert torn
    assert len(records) == 2
    wal.close()
