#!/usr/bin/env python
"""Fail when any recorded ``BENCH_*.json`` shows a perf regression.

Every benchmark module that emits a ``BENCH_<experiment>.json`` with a
``pipelines`` list is gated here.  Each pipeline entry records a baseline
and a candidate timing under schema-specific key names; the candidate
must never be slower than the baseline (the universal 1.0x hard floor),
and must meet the experiment's headline ``target_speedup`` when the
entry carries one.

Usable two ways:

* standalone — ``python benchmarks/check_bench_regression.py [paths...]``
  discovers every ``BENCH_*.json`` next to this script (or checks just
  the given paths) and exits 1 with a message per failure;
* from the benchmark conftest — ``pytest_sessionfinish`` calls
  :func:`check_all_regressions` after a benchmark run so freshly written
  regressed results fail the run.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

BENCH_DIR = Path(__file__).resolve().parent

#: The candidate path must never be slower than its baseline.
HARD_FLOOR = 1.0

#: Per-file timing schema: (baseline key, candidate key, headline floor).
#: The headline floor applies to entries whose ``target_speedup`` is
#: null/absent only through each entry's own ``target_speedup`` — the
#: third element documents the experiment's expected headline target so
#: a results file that *lost* its target_speedup field still gets gated.
SCHEMAS: Dict[str, Tuple[str, str, float]] = {
    # BENCH_e14.json's ``steady_state`` section is gated on exact counts
    # by :func:`_check_steady_state`; its pipeline is the recovery timing.
    "BENCH_e14.json": ("baseline_s", "candidate_s", 5.0),
    "BENCH_e16.json": ("oracle_s", "production_s", 10.0),
    # BENCH_e17.json has no timing pipelines: its ``sessions`` section is
    # gated by :func:`_check_sessions` (flush amortization, abort rate).
    "BENCH_e18.json": ("primary_only_s", "fleet_s", 1.8),
    # BENCH_e19.json has no timing pipelines either: its top-level
    # ``failover`` section is gated by :func:`_check_failover` (recovery
    # p99 ceiling, zero lost updates / untyped errors / stale reads).
}

#: Fallback timing key pairs tried, in order, for BENCH files that are
#: not in SCHEMAS yet.
GENERIC_KEYS = [
    ("baseline_s", "candidate_s"),
]


def discover_results(directory: Path = BENCH_DIR) -> List[Path]:
    """Every recorded ``BENCH_*.json`` in ``directory``, sorted by name."""
    return sorted(directory.glob("BENCH_*.json"))


def _entry_keys(name: str, entry: dict) -> Tuple[str, str, float]:
    schema = SCHEMAS.get(name)
    if schema is not None and schema[0] in entry and schema[1] in entry:
        return schema
    for baseline_key, candidate_key in GENERIC_KEYS:
        if baseline_key in entry and candidate_key in entry:
            return baseline_key, candidate_key, HARD_FLOOR
    if schema is not None:
        return schema
    return "", "", HARD_FLOOR


def _check_corpus(corpus: dict) -> List[str]:
    """Gate a corpus-classification section (``BENCH_e15.json``).

    The corpus contract is absolute: zero REGRESSION statuses, zero
    ERROR/FAIL statuses, zero validation mismatches against the oracle,
    and the win rate / query count floors the file records for itself.
    A PR that turns any NEUTRAL into a REGRESSION therefore fails here.
    """
    failures: List[str] = []
    if corpus.get("regressions", 0):
        failures.append(
            f"corpus: {corpus['regressions']} REGRESSION statuses "
            f"(the corpus contract allows none)"
        )
    if corpus.get("errors", 0):
        failures.append(f"corpus: {corpus['errors']} ERROR/FAIL statuses")
    if corpus.get("validation_mismatches", 0):
        failures.append(
            f"corpus: {corpus['validation_mismatches']} validation "
            f"mismatches vs the oracle executor"
        )
    min_queries = corpus.get("min_queries")
    if min_queries is not None and corpus.get("queries", 0) < min_queries:
        failures.append(
            f"corpus: only {corpus.get('queries', 0)} queries classified "
            f"(floor {min_queries})"
        )
    floor = corpus.get("min_win_rate")
    if floor is not None and corpus.get("win_rate", 0.0) < floor:
        failures.append(
            f"corpus: win rate {corpus.get('win_rate', 0.0)} below the "
            f"recorded {floor} floor"
        )
    return failures


def _check_sessions(sessions: dict) -> List[str]:
    """Gate a multi-session section (``BENCH_e17.json``).

    Group commit must amortize WAL flushes by the recorded factor at the
    recorded writer count, and the traffic simulation's abort rate
    (deadlock victims + first-updater losers over transactions started)
    must stay under its recorded ceiling — aborts are snapshot isolation
    working, but a runaway rate means the lock manager is thrashing.
    """
    failures: List[str] = []
    floor = sessions.get("min_flush_amortization")
    amortization = sessions.get("flush_amortization")
    if floor is not None:
        if amortization is None:
            failures.append(
                "sessions: flush_amortization missing despite a recorded "
                "min_flush_amortization floor"
            )
        elif amortization < floor:
            failures.append(
                f"sessions: group commit amortizes flushes only "
                f"{amortization}x (floor {floor}x at "
                f"{sessions.get('writers', '?')} writers)"
            )
    ceiling = sessions.get("max_abort_rate")
    if ceiling is not None and sessions.get("abort_rate", 0.0) > ceiling:
        failures.append(
            f"sessions: abort rate {sessions.get('abort_rate')} over the "
            f"recorded {ceiling} ceiling"
        )
    if not sessions.get("statements", 0):
        failures.append("sessions: traffic simulation served no statements")
    return failures


def _check_steady_state(steady: dict) -> List[str]:
    """Gate a WAL steady-state section (``BENCH_e14.json``) on counts.

    The log must hold exactly one record per row operation plus one
    commit record per statement, and every commit must cost exactly one
    flush.  The wall ratio against an in-memory run is recorded only:
    as a gate it failed on an unchanged tree from disk noise.
    """
    failures: List[str] = []
    commits = steady.get("commits", 0)
    if not commits:
        failures.append("steady_state: the churn committed nothing")
        return failures
    expected = steady.get("operations", 0) + commits
    if steady.get("wal_records") != expected:
        failures.append(
            f"steady_state: {steady.get('wal_records')} WAL records for "
            f"{steady.get('operations')} row operations + {commits} "
            f"commits (expected {expected})"
        )
    if steady.get("wal_flushes") != commits:
        failures.append(
            f"steady_state: {steady.get('wal_flushes')} WAL flushes for "
            f"{commits} commits (expected one per commit)"
        )
    return failures


def _check_replication(replication: dict) -> List[str]:
    """Gate a replication section (``BENCH_e18.json``).

    The correctness counters are absolute: replicas may never serve rows
    that diverge from the primary's ground truth (mismatches), a routed
    read under ``max_staleness=0`` may never be stale (stale-read
    violations), and converged replicas may never miss a committed write
    (lost updates).  The failover phase must have actually failed over
    at least once, raised nothing outside the typed taxonomy, and kept
    the per-statement p99 — kill included — under the recorded ceiling.
    """
    failures: List[str] = []
    mismatches = replication.get("replica_read_mismatches", 0)
    if mismatches:
        failures.append(
            f"replication: {mismatches} replica reads diverged from the "
            f"primary's ground truth"
        )
    failover = replication.get("failover") or {}
    if not failover.get("statements", 0):
        failures.append("replication: failover phase served no statements")
    elif failover.get("failovers", 0) < 1:
        failures.append(
            "replication: the server kill never forced a client failover"
        )
    if failover.get("untyped_errors", 0):
        failures.append(
            f"replication: {failover['untyped_errors']} errors escaped "
            f"the typed taxonomy during failover"
        )
    ceiling = failover.get("max_p99_ms")
    if ceiling is not None and failover.get("p99_ms", 0.0) > ceiling:
        failures.append(
            f"replication: failover p99 {failover.get('p99_ms')}ms over "
            f"the recorded {ceiling}ms ceiling"
        )
    routed = replication.get("routed") or {}
    if not routed.get("steps", 0):
        failures.append("replication: routed loop ran no steps")
    if routed.get("stale_read_violations", 0):
        failures.append(
            f"replication: {routed['stale_read_violations']} stale reads "
            f"served under max_staleness=0"
        )
    if routed.get("lost_updates", 0):
        failures.append(
            f"replication: {routed['lost_updates']} converged replicas "
            f"missing committed writes (lost updates)"
        )
    if not (
        routed.get("reads_on_replica", 0) + routed.get("reads_on_primary", 0)
    ):
        failures.append("replication: the router placed no reads at all")
    return failures


def _check_failover(failover: dict) -> List[str]:
    """Gate an automatic-failover section (``BENCH_e19.json``).

    The correctness counters are absolute: a promotion may never lose a
    cluster-acked commit, a deposed primary may only fail with the typed
    :class:`FencedError` (anything else is an untyped error), and a
    rebound ``max_staleness=0`` routed read may never be stale.  The run
    must have exercised the fence at least once (a partition trial), and
    the detection-to-first-successful-write p99 must stay under the
    recorded ceiling.
    """
    failures: List[str] = []
    if not failover.get("trials", 0):
        failures.append("failover: no failover trials ran")
    if not failover.get("cluster_acked", 0):
        failures.append("failover: no commit ever reached cluster-ack")
    if failover.get("lost_updates", 0):
        failures.append(
            f"failover: {failover['lost_updates']} cluster-acked commits "
            f"lost across a promotion"
        )
    if failover.get("untyped_errors", 0):
        failures.append(
            f"failover: {failover['untyped_errors']} deposed-primary "
            f"writes failed outside the typed FencedError path"
        )
    if failover.get("stale_read_violations", 0):
        failures.append(
            f"failover: {failover['stale_read_violations']} stale reads "
            f"served after rebind under max_staleness=0"
        )
    if not failover.get("fenced_rejections", 0):
        failures.append(
            "failover: no partition trial ever exercised the fence"
        )
    ceiling = failover.get("max_recovery_p99_ms")
    if ceiling is not None and failover.get("recovery_p99_ms", 0.0) > ceiling:
        failures.append(
            f"failover: recovery p99 {failover.get('recovery_p99_ms')}ms "
            f"over the recorded {ceiling}ms ceiling"
        )
    return failures


def check_regressions(path: Path) -> List[str]:
    """Return a list of human-readable regression descriptions (empty = ok)."""
    path = Path(path)
    payload = json.loads(path.read_text())
    failures: List[str] = []
    if isinstance(payload.get("corpus"), dict):
        failures.extend(_check_corpus(payload["corpus"]))
    if isinstance(payload.get("sessions"), dict):
        failures.extend(_check_sessions(payload["sessions"]))
    if isinstance(payload.get("steady_state"), dict):
        failures.extend(_check_steady_state(payload["steady_state"]))
    if isinstance(payload.get("replication"), dict):
        failures.extend(_check_replication(payload["replication"]))
    if isinstance(payload.get("failover"), dict):
        failures.extend(_check_failover(payload["failover"]))
    for entry in payload.get("pipelines", []):
        name = entry.get("name", "?")
        baseline_key, candidate_key, headline_floor = _entry_keys(
            path.name, entry
        )
        baseline_s = entry.get(baseline_key)
        candidate_s = entry.get(candidate_key)
        if not baseline_s or not candidate_s:
            failures.append(f"{name}: incomplete timings in {path}")
            continue
        # Overhead entries: the candidate adds a feature that must cost
        # (nearly) nothing, so it is allowed up to ``max_slowdown`` x the
        # baseline instead of the speedup floors below.
        max_slowdown = entry.get("max_slowdown")
        if max_slowdown is not None:
            if candidate_s > baseline_s * max_slowdown:
                failures.append(
                    f"{name}: {candidate_key} overhead too high "
                    f"({candidate_s:.4f}s vs {baseline_s:.4f}s baseline, "
                    f"{candidate_s / baseline_s:.3f}x > allowed "
                    f"{max_slowdown}x)"
                )
            continue
        speedup = baseline_s / candidate_s
        if speedup < HARD_FLOOR:
            failures.append(
                f"{name}: {candidate_key} is SLOWER than {baseline_key} "
                f"({candidate_s:.4f}s vs {baseline_s:.4f}s, {speedup:.2f}x)"
            )
        floor = entry.get("target_speedup")
        if floor is None and entry.get("headline"):
            floor = headline_floor
        if floor is not None and speedup < floor:
            failures.append(
                f"{name}: speedup {speedup:.2f}x below the experiment's "
                f"{floor}x target"
            )
    return failures


def check_all_regressions(directory: Path = BENCH_DIR) -> List[str]:
    """Gate every discovered BENCH_*.json; failures are path-prefixed."""
    failures: List[str] = []
    for path in discover_results(directory):
        failures.extend(
            f"{path.name}: {failure}" for failure in check_regressions(path)
        )
    return failures


def _speedups(path: Path) -> List[str]:
    payload = json.loads(path.read_text())
    lines = []
    corpus = payload.get("corpus")
    if isinstance(corpus, dict):
        lines.append(
            f"ok: {path.name} corpus {corpus.get('queries', 0)} queries, "
            f"win rate {corpus.get('win_rate', 0.0)}, "
            f"{corpus.get('regressions', 0)} regressions, "
            f"{corpus.get('validation_mismatches', 0)} mismatches"
        )
    steady = payload.get("steady_state")
    if isinstance(steady, dict):
        lines.append(
            f"ok: {path.name} steady state {steady.get('wal_records')} WAL "
            f"records, {steady.get('flushes_per_commit')} flushes/commit, "
            f"wall {steady.get('wall_ratio')}x (recorded, not gated)"
        )
    sessions = payload.get("sessions")
    if isinstance(sessions, dict):
        lines.append(
            f"ok: {path.name} sessions "
            f"{sessions.get('sessions', 0)} simulated, flush amortization "
            f"{sessions.get('flush_amortization', '?')}x, abort rate "
            f"{sessions.get('abort_rate', 0.0)}, p99 "
            f"{sessions.get('p99_ms', '?')}ms"
        )
    replication = payload.get("replication")
    if isinstance(replication, dict):
        failover = replication.get("failover") or {}
        routed = replication.get("routed") or {}
        lines.append(
            f"ok: {path.name} replication failovers "
            f"{failover.get('failovers', 0)}, failover p99 "
            f"{failover.get('p99_ms', '?')}ms, "
            f"{routed.get('stale_read_violations', 0)} stale reads, "
            f"{routed.get('lost_updates', 0)} lost updates"
        )
    failover = payload.get("failover")
    if isinstance(failover, dict):
        lines.append(
            f"ok: {path.name} failover {failover.get('trials', 0)} trials, "
            f"recovery p99 {failover.get('recovery_p99_ms', '?')}ms, "
            f"{failover.get('lost_updates', 0)} lost updates, "
            f"{failover.get('fenced_rejections', 0)} fenced rejections, "
            f"{failover.get('stale_read_violations', 0)} stale reads"
        )
    for entry in payload.get("pipelines", []):
        baseline_key, candidate_key, _ = _entry_keys(path.name, entry)
        baseline_s = entry.get(baseline_key)
        candidate_s = entry.get(candidate_key)
        if baseline_s and candidate_s:
            if entry.get("max_slowdown") is not None:
                lines.append(
                    f"ok: {path.name} {entry.get('name', '?')} overhead "
                    f"{candidate_s / baseline_s:.3f}x "
                    f"(allowed {entry['max_slowdown']}x)"
                )
            else:
                lines.append(
                    f"ok: {path.name} {entry.get('name', '?')} "
                    f"{baseline_s / candidate_s:.2f}x"
                )
    return lines


def main(argv: List[str]) -> int:
    paths = [Path(arg) for arg in argv[1:]] or discover_results()
    if not paths:
        print(f"no BENCH_*.json results in {BENCH_DIR}; run the benchmarks")
        return 1
    missing = [path for path in paths if not path.exists()]
    if missing:
        for path in missing:
            print(f"no benchmark results at {path}")
        return 1
    failures: List[str] = []
    for path in paths:
        failures.extend(
            f"{path.name}: {failure}" for failure in check_regressions(path)
        )
    if failures:
        for failure in failures:
            print(f"REGRESSION: {failure}")
        return 1
    for path in paths:
        for line in _speedups(path):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
