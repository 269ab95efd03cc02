"""Resilience: resource governance, cancellation, and fault injection.

The paper's thesis is that soft constraints make an optimizer *safe to
trust* — stale characterizations are compensated at runtime instead of
producing wrong answers.  This package supplies the matching runtime
safety substrate the paper assumed from DB2:

* :class:`~repro.resilience.guards.QueryGuard` /
  :class:`~repro.resilience.guards.CancellationToken` — per-query
  deadline, rows-materialized, page-read and join-pair budgets, checked
  cooperatively at row/batch boundaries by both executors, with an
  ``abort`` or ``partial`` (truncated result) breach policy;
* :class:`~repro.resilience.faults.FaultInjector` — the one seeded,
  deterministic fault schedule, consulted at every site of
  :data:`~repro.resilience.faults.SITE_KINDS`: transient I/O and
  bit-flip corruption at the page-read / page-write / index-probe sites
  (backed by per-page and per-index checksums, retry on a
  :class:`~repro.resilience.faults.BackoffPolicy` over a
  :class:`~repro.resilience.guards.VirtualClock`, and index quarantine +
  rebuild-from-heap), lossy-network kinds at the replication sites, and
  process death (:class:`~repro.resilience.faults.SimulatedCrash`) at
  the durability crash sites;
* the chaos differential harness (``pytest -m chaos``) proves that under
  injection every query yields either the fault-free answer or a typed
  :class:`~repro.errors.ReproError` — never a silently wrong result.

A budget or deadline trip on a cached plan evicts it from its plan
cache (:meth:`repro.optimizer.planner.PlanCache.note_guard_breach`); a
cancellation evicts nothing.
"""

from repro.resilience.faults import (
    SITE_KINDS,
    BackoffPolicy,
    FaultInjector,
    FaultSpec,
    SimulatedCrash,
)
from repro.resilience.guards import (
    ActiveGuard,
    CancellationToken,
    QueryGuard,
    VirtualClock,
    format_guard_report,
)

__all__ = [
    "ActiveGuard",
    "BackoffPolicy",
    "CancellationToken",
    "FaultInjector",
    "FaultSpec",
    "QueryGuard",
    "SITE_KINDS",
    "SimulatedCrash",
    "VirtualClock",
    "format_guard_report",
]
