"""Query guards: resource budgets and cooperative cancellation.

A :class:`QueryGuard` declares per-query budgets — a wall-clock deadline,
a cap on rows materialized, on logical page reads, and on join pairs
considered — plus a breach policy.  Guards are *cooperative*: the
executors check them at row/batch boundaries (and joins/sorts at their
materialization points), so a runaway plan is stopped within one
boundary of the breach rather than pre-empted mid-operator.

One guard can serve many executions; each execution *arms* it, producing
an :class:`ActiveGuard` that carries that run's consumption counters.
When no guard is armed the executors do zero extra work — the default
path is untouched.

Breaches raise typed errors (:class:`~repro.errors.QueryTimeoutError`,
:class:`~repro.errors.BudgetExceededError`,
:class:`~repro.errors.QueryCancelledError`).  Under the ``"partial"``
policy the executor converts the breach into a truncated result
(``ExecutionResult.truncated=True``) carrying the rows produced so far.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Optional

from repro.errors import (
    BudgetExceededError,
    ExecutionError,
    QueryCancelledError,
    QueryTimeoutError,
)

#: Rows processed between wall-clock consultations.  Budget and
#: cancellation checks are pure integer/flag compares and run at every
#: boundary; only the (comparatively expensive) clock read is strided.
CLOCK_STRIDE = 512


class VirtualClock:
    """A manually-advanced clock: ``sleep`` moves time, nothing blocks.

    Used by the storage retry/backoff machinery and by deterministic
    guard tests — no real wall time ever passes.  Instances are callable
    so they can stand in for ``time.monotonic``.
    """

    __slots__ = ("now",)

    def __init__(self, start: float = 0.0) -> None:
        self.now = float(start)

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        """Advance virtual time; never blocks the process."""
        self.now += seconds

    def __repr__(self) -> str:
        return f"VirtualClock(now={self.now:.6f})"


class CancellationToken:
    """A cooperative cancellation flag shared with the query's issuer.

    The issuer calls :meth:`cancel`; the executor observes the flag at
    row/batch boundaries and raises
    :class:`~repro.errors.QueryCancelledError`.  Tokens are one-shot but
    reusable across queries until cancelled.
    """

    __slots__ = ("_cancelled", "reason")

    def __init__(self) -> None:
        self._cancelled = False
        self.reason = ""

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def cancel(self, reason: str = "cancelled by caller") -> None:
        self._cancelled = True
        self.reason = reason

    def __repr__(self) -> str:
        state = f"cancelled: {self.reason!r}" if self._cancelled else "live"
        return f"CancellationToken({state})"


class QueryGuard:
    """Declarative per-query resource budgets.

    Parameters
    ----------
    deadline:
        Wall-clock budget in seconds (from arming), or None for no limit.
    max_rows:
        Cap on rows *materialized* during execution: result rows plus
        rows pinned by blocking operators (a join's build/inner side, a
        sort's input).  None for no limit.
    max_page_reads:
        Cap on logical page reads charged to the database counters while
        the query runs.  None for no limit.
    max_join_pairs:
        Cap on row pairs considered across all joins in the plan — the
        backstop against a mis-planned exploding join.  None for no
        limit.
    on_breach:
        ``"abort"`` (default) propagates the typed error; ``"partial"``
        makes the executor return the rows produced so far with
        ``truncated=True``.
    clock:
        Monotonic-time callable; override with a
        :class:`VirtualClock` for deterministic tests.
    """

    __slots__ = (
        "deadline",
        "max_rows",
        "max_page_reads",
        "max_join_pairs",
        "on_breach",
        "clock",
    )

    def __init__(
        self,
        deadline: Optional[float] = None,
        max_rows: Optional[int] = None,
        max_page_reads: Optional[int] = None,
        max_join_pairs: Optional[int] = None,
        on_breach: str = "abort",
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if on_breach not in ("abort", "partial"):
            raise ExecutionError(
                f"on_breach must be 'abort' or 'partial', got {on_breach!r}"
            )
        for name, value in (
            ("deadline", deadline),
            ("max_rows", max_rows),
            ("max_page_reads", max_page_reads),
            ("max_join_pairs", max_join_pairs),
        ):
            if value is not None and value <= 0:
                raise ExecutionError(f"{name} must be positive, got {value}")
        self.deadline = deadline
        self.max_rows = max_rows
        self.max_page_reads = max_page_reads
        self.max_join_pairs = max_join_pairs
        self.on_breach = on_breach
        self.clock = clock

    def arm(
        self, counters: Any, cancel: Optional[CancellationToken] = None
    ) -> "ActiveGuard":
        """Bind the guard to one execution's I/O counters and token."""
        return ActiveGuard(self, counters, cancel)

    def __repr__(self) -> str:
        limits = ", ".join(
            f"{name}={value}"
            for name, value in (
                ("deadline", self.deadline),
                ("max_rows", self.max_rows),
                ("max_page_reads", self.max_page_reads),
                ("max_join_pairs", self.max_join_pairs),
            )
            if value is not None
        )
        return f"QueryGuard({limits or 'no limits'}, on_breach={self.on_breach})"


class ActiveGuard:
    """One execution's armed guard: consumption counters plus checks.

    The executors call :meth:`note_rows` / :meth:`note_pairs` /
    :meth:`tick` at their boundaries.  All three run the cheap checks
    (budgets, cancellation, page-read delta); the wall clock is consulted
    once per :data:`CLOCK_STRIDE` rows of progress.
    """

    __slots__ = (
        "guard",
        "cancel",
        "counters",
        "rows",
        "pairs",
        "pages_base",
        "started_at",
        "deadline_at",
        "elapsed",
        "tripped",
        "_since_clock",
    )

    def __init__(
        self,
        guard: QueryGuard,
        counters: Any,
        cancel: Optional[CancellationToken] = None,
    ) -> None:
        self.guard = guard
        self.cancel = cancel
        self.counters = counters
        self.rows = 0
        self.pairs = 0
        self.pages_base = counters.page_reads
        self.started_at = guard.clock()
        self.deadline_at = (
            None
            if guard.deadline is None
            else self.started_at + guard.deadline
        )
        self.elapsed = 0.0
        self.tripped: Optional[Exception] = None
        self._since_clock = 0

    # -- boundary checks ----------------------------------------------------

    def note_rows(self, count: int) -> None:
        """Account ``count`` materialized rows, then run boundary checks."""
        self.rows += count
        limit = self.guard.max_rows
        if limit is not None and self.rows > limit:
            self._trip(
                BudgetExceededError(
                    f"row budget exhausted: {self.rows} rows materialized "
                    f"(limit {limit})",
                    budget="rows",
                )
            )
        self._boundary(count)

    def note_pairs(self, count: int) -> None:
        """Account ``count`` join pairs considered, then check."""
        self.pairs += count
        limit = self.guard.max_join_pairs
        if limit is not None and self.pairs > limit:
            self._trip(
                BudgetExceededError(
                    f"join-pair budget exhausted: {self.pairs} pairs "
                    f"considered (limit {limit})",
                    budget="join_pairs",
                )
            )
        self._boundary(count)

    def tick(self, weight: int = 1) -> None:
        """A progress boundary with no row accounting (e.g. scan input)."""
        self._boundary(weight)

    def _boundary(self, weight: int) -> None:
        cancel = self.cancel
        if cancel is not None and cancel._cancelled:
            self._trip(
                QueryCancelledError(f"query cancelled: {cancel.reason}")
            )
        limit = self.guard.max_page_reads
        if limit is not None:
            used = self.counters.page_reads - self.pages_base
            if used > limit:
                self._trip(
                    BudgetExceededError(
                        f"page-read budget exhausted: {used} pages read "
                        f"(limit {limit})",
                        budget="page_reads",
                    )
                )
        if self.deadline_at is not None:
            self._since_clock += weight
            if self._since_clock >= CLOCK_STRIDE:
                self._since_clock = 0
                self.check_deadline()

    def check_deadline(self) -> None:
        """Consult the clock now (called strided from the boundaries)."""
        if self.deadline_at is None:
            return
        now = self.guard.clock()
        if now > self.deadline_at:
            self._trip(
                QueryTimeoutError(
                    f"query deadline of {self.guard.deadline:.3f}s exceeded "
                    f"({now - self.started_at:.3f}s elapsed)"
                )
            )

    def _trip(self, error: Exception) -> None:
        self.tripped = error
        error.report = self.finish()
        raise error

    # -- reporting ----------------------------------------------------------

    @property
    def page_reads(self) -> int:
        return self.counters.page_reads - self.pages_base

    def finish(self) -> Dict[str, Any]:
        """Freeze and return the consumption report for this execution."""
        self.elapsed = self.guard.clock() - self.started_at
        return self.report()

    def report(self) -> Dict[str, Any]:
        """A JSON-friendly budget-consumption snapshot."""
        guard = self.guard
        return {
            "rows": self.rows,
            "max_rows": guard.max_rows,
            "page_reads": self.page_reads,
            "max_page_reads": guard.max_page_reads,
            "join_pairs": self.pairs,
            "max_join_pairs": guard.max_join_pairs,
            "elapsed_s": round(self.elapsed, 6),
            "deadline_s": guard.deadline,
            "on_breach": guard.on_breach,
            "tripped": (
                None
                if self.tripped is None
                else f"{type(self.tripped).__name__}: {self.tripped}"
            ),
        }


def format_guard_report(report: Dict[str, Any]) -> str:
    """One EXPLAIN ANALYZE line: consumption over limits per budget."""

    def used(quantity: str, limit_key: str) -> str:
        limit = report.get(limit_key)
        bound = "-" if limit is None else str(limit)
        return f"{report.get(quantity, 0)}/{bound}"

    deadline = report.get("deadline_s")
    parts = [
        f"rows={used('rows', 'max_rows')}",
        f"pages={used('page_reads', 'max_page_reads')}",
        f"pairs={used('join_pairs', 'max_join_pairs')}",
        f"elapsed={report.get('elapsed_s', 0.0):.4f}s"
        + ("" if deadline is None else f"/{deadline:.4f}s"),
        f"policy={report.get('on_breach', 'abort')}",
    ]
    tripped = report.get("tripped")
    parts.append(f"tripped={tripped if tripped else 'no'}")
    return "guard: " + " ".join(parts)

