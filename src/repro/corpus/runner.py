"""The corpus runner: execute, measure, validate and classify every query.

For each :class:`~repro.corpus.generator.CorpusQuery` the runner executes
four configurations over one database:

* **SC-on** — the session's full optimizer (every constraint-driven
  rewrite armed), batched + compiled: the candidate;
* **SC-off** — :func:`repro.harness.runner.all_off`: the baseline;
* both again through a plan cache (the cached axis, isolating optimize
  cost from execution cost in the wall-clock ratios);
* the **oracle** — the row-at-a-time *interpreted* executor under the
  SC-off plan, an independently-implemented path the candidate's answers
  are validated against (row count + order-insensitive checksum).

Classification follows :mod:`repro.harness.classify`.  The status-bearing
ratio defaults to logical **page reads** (deterministic, so the CI gate
is noise-free); wall-clock ratios are recorded alongside.  A guard
truncation on either side tags the outcome ``vs_timeout_ceiling`` (or
``both_timeout``) — ceiling-bounded outcomes are excluded from measured
aggregates and skip validation (a truncated row set is not an answer).
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence

from repro.api import SoftDB
from repro.errors import CatalogError, OptimizerError, SqlError
from repro.executor.runtime import ExecutionResult, Executor
from repro.harness.classify import (
    ERROR,
    FAIL,
    MEASURED,
    QueryOutcome,
    classify_speedup,
    speedup_type,
    summarize,
    validate_rows,
)
from repro.harness.runner import all_off
from repro.optimizer.planner import Optimizer, PlanCache
from repro.stats.errors import q_error
from repro.corpus.generator import CorpusQuery

#: Structural failures (parse / bind / plan) route to FAIL; SqlError
#: covers lex/parse/bind, CatalogError covers unknown tables/columns
#: surfaced during binding, OptimizerError covers planning.
_STRUCTURAL_ERRORS = (SqlError, CatalogError, OptimizerError)


class CorpusRunner:
    """Runs a corpus against one database, producing classified outcomes.

    Parameters
    ----------
    db:
        The populated session (soft constraints registered and ACTIVE
        for the SC-on side).
    metric:
        ``"pages"`` (default) classifies on the page-read ratio —
        deterministic, the CI-gated signal; ``"wall"`` classifies on the
        wall-clock ratio (querytorque's original contract, noisier).
    guard:
        Optional :class:`~repro.resilience.guards.QueryGuard` armed on
        the measured executions.  Use the ``"partial"`` breach policy:
        truncations are then tagged ceiling-bounded instead of raising.
    validate:
        Switch the oracle comparison off entirely (timing sweeps only).
    """

    def __init__(
        self,
        db: SoftDB,
        metric: str = "pages",
        guard: Optional[Any] = None,
        validate: bool = True,
    ) -> None:
        if metric not in ("pages", "wall"):
            raise ValueError(f"unknown metric {metric!r}")
        self.db = db
        self.metric = metric
        self.guard = guard
        self.validate = validate
        self.sc_on = db.optimizer
        self.sc_off = Optimizer(db.database, db.registry, all_off())
        # The oracle plans without any registry at all and interprets
        # row-at-a-time: maximum independence from the candidate path.
        self.oracle_optimizer = Optimizer(
            db.database,
            None,
            all_off(batch_size=0, compile_expressions=False),
        )
        self.oracle_executor = Executor(db.database, batch_size=0)
        self.executor = db.executor
        self.sc_on_cache = PlanCache(self.sc_on)
        self.sc_off_cache = PlanCache(self.sc_off)

    # -- per-query protocol ---------------------------------------------------

    def run_query(self, query: CorpusQuery) -> QueryOutcome:
        outcome = QueryOutcome(query.query_id, query.sql, query.family)
        try:
            candidate, candidate_s = self._measure(self.sc_on, query.sql)
            baseline, baseline_s = self._measure(self.sc_off, query.sql)
        except _STRUCTURAL_ERRORS as error:
            outcome.status = FAIL
            outcome.error = f"{type(error).__name__}: {error}"
            return outcome
        except Exception as error:  # execution-time failure
            outcome.status = ERROR
            outcome.error = f"{type(error).__name__}: {error}"
            return outcome
        plan = candidate.plan
        outcome.rewrites = list(plan.rewrites_applied)
        outcome.candidate_pages = candidate.result.page_reads
        outcome.baseline_pages = baseline.result.page_reads
        outcome.candidate_s = candidate_s
        outcome.baseline_s = baseline_s
        outcome.page_ratio = _ratio(
            baseline.result.page_reads, candidate.result.page_reads
        )
        outcome.wall_ratio = _wall_ratio(baseline_s, candidate_s)
        outcome.speedup_type = speedup_type(
            candidate.result.truncated, baseline.result.truncated
        )
        outcome.row_count = candidate.result.row_count
        if outcome.speedup_type != MEASURED:
            # Ceiling-bounded: the ratio is a bound, not a measurement,
            # and a truncated row set cannot be validated.
            outcome.speedup = (
                1.0
                if candidate.result.truncated and baseline.result.truncated
                else outcome.speedup_for(self.metric)
            )
            outcome.status = classify_speedup(outcome.speedup)
            return outcome
        outcome.qerror = q_error(
            plan.estimated_rows, candidate.result.row_count
        )
        outcome.speedup = outcome.speedup_for(self.metric)
        outcome.status = classify_speedup(outcome.speedup)
        if self.validate:
            self._validate(outcome, candidate.result, baseline.result)
        outcome.cached_wall_ratio = self._cached_ratio(query.sql)
        return outcome

    def run(
        self, queries: Sequence[CorpusQuery]
    ) -> List[QueryOutcome]:
        return [self.run_query(query) for query in queries]

    def run_and_summarize(
        self, queries: Sequence[CorpusQuery]
    ) -> Dict[str, Any]:
        outcomes = self.run(queries)
        return {
            "outcomes": outcomes,
            "summary": summarize(outcomes),
        }

    # -- internals ------------------------------------------------------------

    def _measure(self, optimizer: Optimizer, sql: str):
        """Optimize + execute once; wall-clock covers both phases."""
        start = time.perf_counter()
        plan = optimizer.optimize(sql)
        result = self.executor.execute(plan, guard=self.guard)
        elapsed = time.perf_counter() - start
        return _Measured(plan, result), elapsed

    def _validate(
        self,
        outcome: QueryOutcome,
        candidate: ExecutionResult,
        baseline: ExecutionResult,
    ) -> None:
        try:
            oracle_plan = self.oracle_optimizer.optimize(outcome.sql)
            oracle = self.oracle_executor.execute(oracle_plan)
        except Exception as error:
            outcome.status = ERROR
            outcome.error = f"oracle: {type(error).__name__}: {error}"
            return
        validation = validate_rows(candidate.tuples(), oracle.tuples())
        outcome.validation = validation
        if not validation.ok or baseline.row_count != oracle.row_count:
            outcome.status = ERROR
            outcome.error = (
                "validation mismatch vs oracle "
                f"(candidate {candidate.row_count} rows, "
                f"baseline {baseline.row_count}, oracle {oracle.row_count})"
            )

    def _cached_ratio(self, sql: str) -> Optional[float]:
        """SC-off/SC-on wall ratio through the plan caches (second
        executions, optimize cost amortized away)."""
        try:
            on_s = self._cached_time(self.sc_on_cache, sql)
            off_s = self._cached_time(self.sc_off_cache, sql)
        except Exception:
            return None
        return _wall_ratio(off_s, on_s)

    def _cached_time(self, cache: PlanCache, sql: str) -> float:
        cache.get_plan(sql)  # populate outside the timed region
        start = time.perf_counter()
        self.executor.execute(cache.get_plan(sql))
        return time.perf_counter() - start


class _Measured:
    __slots__ = ("plan", "result")

    def __init__(self, plan: Any, result: ExecutionResult) -> None:
        self.plan = plan
        self.result = result


def _ratio(baseline: float, candidate: float) -> float:
    """baseline/candidate with both sides floored at one page, so empty
    scans (0 pages read) stay finite."""
    return max(baseline, 1.0) / max(candidate, 1.0)


def _wall_ratio(baseline_s: float, candidate_s: float) -> float:
    """baseline/candidate over seconds, floored at clock resolution."""
    return max(baseline_s, 1e-9) / max(candidate_s, 1e-9)


def run_corpus(
    db: SoftDB,
    queries: Sequence[CorpusQuery],
    metric: str = "pages",
    guard: Optional[Any] = None,
) -> Dict[str, Any]:
    """One-call convenience: run + summarize."""
    return CorpusRunner(db, metric=metric, guard=guard).run_and_summarize(
        queries
    )
