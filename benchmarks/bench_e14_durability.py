"""E14 — Durability: WAL overhead and checkpoint-accelerated recovery.

The durability subsystem (``repro.durability``) must be close to free
while the engine runs, and must make restarts cheap when it matters.
E14 gates both halves:

**Steady state.**  A churn workload (batched inserts, then a
``DELETE WHERE`` sweep that keeps ~20% of each batch) runs against a
WAL-on durable session.  The gate is on exact counts, which do not
drift with disk noise: the log holds one record per row operation plus
one commit record per statement, and each commit costs exactly one
flush.  The same churn against an in-memory session gives the wall
ratio, recorded but not gated (a 1.15x wall bound read 1.205x on an
unchanged tree).

**Recovery.**  The same workload leaves a ~100k-record log behind.
Recovering by replaying that entire log from offset zero is the
baseline; recovering from a final checkpoint (restore the image, replay
nothing) is the candidate, and must win by at least ``TARGET_SPEEDUP``
(5x) — the reason :meth:`SoftDB.close` checkpoints by default.

Emits ``BENCH_e14.json`` for ``check_bench_regression.py``: a
``steady_state`` section of counts and the recovery pipeline (generic
``baseline_s``/``candidate_s`` keys).

Set ``E14_FAST=1`` for a smoke-sized run (CI): smaller churn, results
written to a temp directory (the committed BENCH_e14.json is never
clobbered), and a loosened recovery bound — small absolute timings make
ratios noisy.
"""

import json
import os
import shutil
import tempfile
import time
from pathlib import Path

import pytest

from repro import SoftDB

FAST = bool(os.environ.get("E14_FAST"))

#: Rows inserted per churn cycle; 80% are deleted again by the sweep.
BATCH = 1_000
#: Churn cycles: each logs BATCH inserts + 0.8 * BATCH deletes, so the
#: full-size run leaves a ~100k-record log behind ~11k surviving rows.
CYCLES = 4 if FAST else 56
#: Checkpoint-restore must beat full-log replay by this factor.
TARGET_SPEEDUP = 2.0 if FAST else 5.0
#: Timing repetitions (min is reported).
REPS = 2 if FAST else 3

RESULTS_PATH = (
    Path(tempfile.mkdtemp(prefix="bench_e14_")) / "BENCH_e14.json"
    if FAST
    else Path(__file__).resolve().parent / "BENCH_e14.json"
)

SCHEMA_SQL = "CREATE TABLE churn (id INT PRIMARY KEY, payload INT)"


def _run_churn(db: SoftDB) -> int:
    """The workload: batched inserts, then a 90% DELETE WHERE sweep.

    Returns the number of logical row operations performed (each one is
    one WAL record in a durable session).
    """
    operations = 0
    for cycle in range(CYCLES):
        base = cycle * BATCH
        db.database.insert_many(
            "churn",
            [(base + n, (base + n) * 31 % 9973) for n in range(BATCH)],
        )
        deleted = db.execute("DELETE FROM churn WHERE id % 5 <> 0")
        operations += BATCH + deleted
    return operations


def _timed(callable_, repetitions: int = REPS) -> float:
    times = []
    for _ in range(repetitions):
        times.append(callable_())
    return min(times)


def _steady_state_in_memory() -> float:
    db = SoftDB()
    db.execute(SCHEMA_SQL)
    start = time.perf_counter()
    _run_churn(db)
    return time.perf_counter() - start


def _steady_state_wal(base_dir: Path):
    """One WAL-on churn: (seconds, row operations, records, flushes)."""
    path = base_dir / f"wal-run-{time.monotonic_ns()}"
    db = SoftDB.open(path)
    db.execute(SCHEMA_SQL)
    records, flushes = db.durability.records_logged, db.durability.wal.flushes
    start = time.perf_counter()
    operations = _run_churn(db)
    elapsed = time.perf_counter() - start
    records = db.durability.records_logged - records
    flushes = db.durability.wal.flushes - flushes
    db.durability.close()
    shutil.rmtree(path, ignore_errors=True)
    return elapsed, operations, records, flushes


def _timed_recovery(path: Path, repetitions: int = REPS):
    """Min-timed recovery of one durable directory.

    Recovery never mutates a clean directory (the WAL is only truncated
    when a torn tail is found), so repeated opens are fair repetitions.
    """
    runs = []
    for _ in range(repetitions):
        start = time.perf_counter()
        db = SoftDB.open(path)
        elapsed = time.perf_counter() - start
        summary = db.durability.last_recovery
        assert summary is not None, "recovery did not run"
        rows = db.database.table("churn").row_count
        db.durability.close()
        runs.append((elapsed, summary, rows))
    return min(runs, key=lambda run: run[0])


@pytest.fixture(scope="module")
def churn_logs(tmp_path_factory):
    """Two durable directories with the identical churn history: one
    closed without a checkpoint (full replay) and one with (restore)."""
    base = tmp_path_factory.mktemp("e14")
    stats = {}
    for label, take_checkpoint in (("replay", False), ("checkpoint", True)):
        path = base / label
        db = SoftDB.open(path)
        db.execute(SCHEMA_SQL)
        stats[label] = {
            "operations": _run_churn(db),
            "rows": db.database.table("churn").row_count,
            "records": db.durability.records_logged,
        }
        db.close(checkpoint=take_checkpoint)
        stats[label]["path"] = path
    return stats


def test_e14_steady_state_wal_overhead(report, tmp_path):
    in_memory_s = _timed(_steady_state_in_memory)
    runs = [_steady_state_wal(tmp_path) for _ in range(REPS)]
    wal_s = min(run[0] for run in runs)
    _, operations, records, flushes = runs[0]
    # Two statements per churn cycle (the insert batch, the sweep).
    commits = 2 * CYCLES
    section = {
        "operations": operations,
        "commits": commits,
        "wal_records": records,
        "wal_flushes": flushes,
        "flushes_per_commit": round(flushes / commits, 3),
        "in_memory_s": round(in_memory_s, 4),
        "wal_s": round(wal_s, 4),
        "wall_ratio": round(wal_s / in_memory_s, 3),
    }
    report(
        "E14: steady-state churn, WAL-on (counts gated, wall recorded)",
        ["operations", "commits", "wal records", "flushes", "wall ratio x"],
        [[operations, commits, records, flushes, section["wall_ratio"]]],
    )
    test_e14_steady_state_wal_overhead.section = section
    assert all(run[1:] == runs[0][1:] for run in runs), runs
    from check_bench_regression import _check_steady_state

    assert _check_steady_state(section) == []


def test_e14_recovery_checkpoint_beats_replay(report, churn_logs):
    replay_s, replay_summary, replay_rows = _timed_recovery(
        churn_logs["replay"]["path"]
    )
    checkpoint_s, checkpoint_summary, checkpoint_rows = _timed_recovery(
        churn_logs["checkpoint"]["path"]
    )
    # Both recoveries land on the same logical state.
    assert replay_rows == churn_logs["replay"]["rows"]
    assert checkpoint_rows == churn_logs["checkpoint"]["rows"]
    assert replay_rows == checkpoint_rows
    # The shapes differ exactly as advertised: full replay vs restore.
    # (records_logged counts the per-statement commit records too — one
    # for CREATE TABLE plus two per churn cycle — which replay skips.)
    assert not replay_summary["checkpoint"]
    commits = 1 + 2 * CYCLES
    assert replay_summary["replayed"] == (
        churn_logs["replay"]["records"] - commits
    )
    assert checkpoint_summary["checkpoint"]
    assert checkpoint_summary["replayed"] == 0
    speedup = replay_s / checkpoint_s
    entry = {
        "name": f"recovery-{churn_logs['replay']['records']}-record-log",
        "log_records": churn_logs["replay"]["records"],
        "recovered_rows": replay_rows,
        "baseline_s": round(replay_s, 4),
        "candidate_s": round(checkpoint_s, 4),
        "speedup": round(speedup, 2),
        "target_speedup": TARGET_SPEEDUP,
        "headline": True,
    }
    report(
        "E14: recovery time, full WAL replay vs checkpoint restore",
        ["pipeline", "rows", "replay s", "checkpoint s", "speedup x"],
        [[entry["name"], replay_rows, entry["baseline_s"],
          entry["candidate_s"], entry["speedup"]]],
    )
    payload = {"experiment": "E14", "pipelines": [entry]}
    steady = getattr(test_e14_steady_state_wal_overhead, "section", None)
    if steady is not None:
        payload["steady_state"] = steady
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    assert speedup >= TARGET_SPEEDUP, (
        f"checkpoint recovery only {speedup:.2f}x faster than full "
        f"replay (target {TARGET_SPEEDUP}x)"
    )
    # The gate must accept the file it will re-check at session end.
    from check_bench_regression import check_regressions

    assert check_regressions(RESULTS_PATH) == []
