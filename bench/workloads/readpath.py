"""What the two read workloads share: the oracle, the closed loop over
``SoftDB.execute`` and the traced replay with its SC-off twin."""

from __future__ import annotations

import statistics
import time
from typing import Dict, List, Optional, Sequence, Tuple

import harness
from harness import Repetition, Tracer

from repro.errors import ReproError
from repro.executor.runtime import Executor
from repro.expr.compile import cache_stats, clear_cache
from repro.harness.classify import validate_rows
from repro.harness.runner import all_off
from repro.optimizer.planner import Optimizer


class Oracle:
    """The row-at-a-time *interpreted* SC-off path: no registry, no
    batches, no compiled closures — never the path under test."""

    def __init__(self, db) -> None:
        self.optimizer = Optimizer(
            db.database, None,
            all_off(batch_size=0, compile_expressions=False),
        )
        self.executor = Executor(db.database, batch_size=0)

    def rows(self, sql: str) -> List[tuple]:
        return self.executor.execute(self.optimizer.optimize(sql)).tuples()


def validate(db, sqls: Sequence[str]) -> Tuple[int, List[int]]:
    """Check each statement's answer against the oracle (row count and
    order-insensitive checksum).  Returns the number of mismatches and the
    validated row counts, which the timed loop then holds every run to."""
    oracle = Oracle(db)
    failed = 0
    row_counts = []
    for sql in sqls:
        try:
            rows = db.execute(sql).tuples()
            ok = validate_rows(rows, oracle.rows(sql)).ok
        except ReproError:
            rows, ok = [], False
        failed += not ok
        row_counts.append(len(rows))
    return failed, row_counts


def run_block(
    db, sqls: Sequence[str], expected_rows: Sequence[Optional[int]]
) -> Tuple[Repetition, int]:
    """One closed-loop block through ``SoftDB.execute``, one client."""
    execute = db.execute
    clock = time.perf_counter
    latencies = []
    failed = 0
    cpu_start = time.process_time()
    start = clock()
    for sql, expected in zip(sqls, expected_rows):
        begun = clock()
        try:
            result = execute(sql)
            latencies.append(clock() - begun)
            if expected is not None and result.row_count != expected:
                failed += 1
        except ReproError:
            latencies.append(clock() - begun)
            failed += 1
    elapsed = clock() - start
    cpu = time.process_time() - cpu_start
    return Repetition(elapsed, cpu, latencies), failed


def trace(
    db,
    warm_sqls: Sequence[str],
    sqls: Sequence[str],
    passes: int,
    tracer: Tracer,
) -> Dict[str, float]:
    """The traced run of a read workload.

    Every measured pass starts from the compile-cache state the timed run
    has at the start of a block: cache cleared, then ``warm_sqls`` run
    through the same configuration (for ``corpus_scan`` those are the
    measured statements themselves — the timed run repeats them; for
    ``template_point`` an earlier block with other literals).
    """
    sc_off = Optimizer(db.database, db.registry, all_off())
    clock = time.perf_counter

    def on(sql):
        return db.execute(sql)

    def off(sql):
        return db.executor.execute(sc_off.optimize(sql))

    def warm(run) -> None:
        clear_cache()
        for sql in warm_sqls:
            run(sql)

    metrics: Dict[str, float] = {}
    count = len(sqls)
    untraced: List[List[float]] = []
    on_times: List[List[float]] = []
    off_times: List[List[float]] = []
    on_pages: List[int] = []
    off_pages: List[int] = []
    # Untraced and traced passes alternate, so drift on a shared box
    # lands on both sides of trace.overhead_ratio.
    for round_ in range(passes):
        warm(on)
        hits_before, misses_before = cache_stats()
        io_before = db.database.counters.snapshot()
        times = []
        rows_read = rows_out = 0
        for sql in sqls:
            begun = clock()
            result = on(sql)
            times.append(clock() - begun)
            rows_read += result.rows_read
            rows_out += result.row_count
        untraced.append(times)
        hits, misses = cache_stats()
        io_after = db.database.counters.snapshot()
        for root, run, times, pages in (
            ("api.execute", on, on_times, on_pages),
            ("twin.sc_off", off, off_times, off_pages),
        ):
            warm(run)
            first = len(tracer.spans)
            pages.clear()
            harness.patch_layers(tracer)
            try:
                for index, sql in enumerate(sqls):
                    result = tracer.call(
                        root, run, sql, stmt_id=round_ * count + index
                    )
                    pages.append(result.page_reads)
            finally:
                tracer.unpatch_all()
            times.append(
                [
                    span[3] - span[2]
                    for span in tracer.spans[first:]
                    if span[1] == root
                ]
            )

    # The counts repeat exactly, so the last pass speaks for all.
    lookups = (hits - hits_before) + (misses - misses_before)
    metrics["expr.compile_cache_hit_ratio"] = (
        (hits - hits_before) / lookups if lookups else 0.0
    )
    metrics["engine.page_reads_per_stmt"] = (
        io_after["page_reads"] - io_before["page_reads"]
    ) / count
    metrics["engine.page_writes_per_stmt"] = (
        io_after["page_writes"] - io_before["page_writes"]
    ) / count
    metrics["executor.rows_read_per_row_out"] = rows_read / max(1, rows_out)
    untraced_times = harness.per_statement(untraced)
    metrics["client.select_p50_ms"] = (
        harness.percentile(untraced_times, 0.50) * 1e3
    )
    metrics["client.stmt_p99_ms"] = (
        harness.percentile(untraced_times, 0.99) * 1e3
    )
    fired = sum(
        1 for sql in sqls if db.optimizer.optimize(sql).rewrites_applied
    )
    metrics["optimizer.rewrite_fired_ratio"] = fired / count

    for name in ("sql.parse", "optimizer.optimize", "executor.execute"):
        if not tracer.count(name):
            raise RuntimeError(f"no {name} span fired: the boundary moved")

    statements = passes * count
    metrics.update(harness.read_path_layers(tracer, statements, "api.execute"))
    twin = harness.read_path_layers(tracer, statements, "twin.sc_off")
    metrics["optimizer.sc_off_total_ms"] = twin["optimizer.total_ms"]
    metrics["executor.sc_off_execute_ms"] = twin["executor.execute_ms"]
    metrics["api.self_ms"] = (
        tracer.total("api.execute", self_time=True) * 1e3 / statements
    )
    traced_on = harness.per_statement(on_times)
    traced_off = harness.per_statement(off_times)
    metrics["trace.overhead_ratio"] = sum(traced_on) / sum(untraced_times)
    metrics["softcon.wall_speedup"] = statistics.geometric_mean(
        off_s / on_s for off_s, on_s in zip(traced_off, traced_on)
    )
    metrics["softcon.page_speedup"] = statistics.geometric_mean(
        max(off_p, 1) / max(on_p, 1)
        for off_p, on_p in zip(off_pages, on_pages)
    )
    return metrics
