"""Primary/replica statement routing under a currency bound.

A :class:`RoutedSession` fronts one durable primary and the replicas a
:class:`~repro.replication.shipper.WalShipper` keeps caught up.  The
routing rule is the paper's staleness economics applied to placement:

* **writes** (DML, DDL, transaction control) always go to the primary —
  replicas are read-only twins;
* **reads** fan out round-robin across replicas whose currency margin
  (committed-records-behind over row count, the Section 3.3 ``u/n``
  arithmetic) is within the query's ``max_staleness`` bound;
* a replica that is too stale, dead, partitioned, or mid-resync is
  simply skipped; when none qualifies the read runs on the primary.

Degrading to the primary rather than answering from a too-stale twin is
the same contract soft constraints honor: a characterization outside
its stated currency bound is not used, it is *bypassed* — never a
silently wrong answer.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro import api
from repro.errors import (
    ReplicationError,
    ReplicaUnavailableError,
)
from repro.sql.ast import is_query

__all__ = ["RoutedSession"]


class RoutedSession:
    """Route statements between one primary and its read replicas.

    Parameters
    ----------
    db:
        The primary :class:`~repro.api.SoftDB`.
    shipper:
        The :class:`~repro.replication.shipper.WalShipper` whose
        attached replicas serve reads.
    max_staleness:
        Default currency-margin bound for reads (0.0 = only replicas
        acknowledging the primary's full durable frontier may answer).
        Overridable per query.
    """

    def __init__(self, db, shipper, max_staleness: float = 0.0) -> None:
        self.db = db
        self.shipper = shipper
        self.max_staleness = max_staleness
        self._round_robin = 0
        # Where the last statement ran: ("replica", name, margin) or
        # ("primary", reason, 0.0).
        self.last_route: Optional[Tuple[str, str, float]] = None
        self.reads_on_replica = 0
        self.reads_on_primary = 0
        self.writes = 0
        self.degraded = 0  # reads skipped past a too-stale replica
        self.replica_errors = 0  # reads that failed over mid-route
        self.rebinds = 0  # write-target swaps (failover promotions)
        # Per-endpoint placement ledger: how many statements each
        # endpoint ("primary" or a replica name) actually served.
        self.route_counts: Dict[str, int] = {}
        # Why the most recent read skipped a replica (stale margin,
        # unavailable, mid-route failure); None until a skip happens.
        self.last_degradation: Optional[str] = None

    def execute(self, sql: str, max_staleness: Optional[float] = None):
        """Run one statement on the side of the fleet it belongs on."""
        # The statement's one parse; whichever node runs it gets it parsed.
        statement = api.parse_statement(sql)
        if not is_query(statement):
            self.writes += 1
            self.last_route = ("primary", "write", 0.0)
            self._count_route("primary")
            return self.db.run_statement(statement, sql)
        bound = self.max_staleness if max_staleness is None else max_staleness
        links = list(self.shipper.links.values())
        count = len(links)
        for step in range(count):
            link = links[(self._round_robin + step) % count]
            replica = link.replica
            # Fresh lag against the primary's *current* durable
            # frontier — trusting the last pump's lag would let a bound
            # of 0.0 route to a replica the primary has since outrun.
            lag = self.shipper.refresh_lag(link)
            if lag is None:
                self.last_degradation = (
                    f"{replica.name}: unavailable (dead, severed, or "
                    f"mid-resync)"
                )
                continue
            margin = lag.margin
            if margin > bound:
                self.degraded += 1
                self.last_degradation = (
                    f"{replica.name}: margin {margin:.4f} exceeds "
                    f"bound {bound:.4f}"
                )
                continue
            try:
                result = replica.execute(sql, statement)
            except (ReplicaUnavailableError, ReplicationError) as error:
                # The replica died between the health check and the
                # read; fail over to the next candidate.
                self.replica_errors += 1
                self.last_degradation = (
                    f"{replica.name}: failed mid-route "
                    f"({type(error).__name__})"
                )
                continue
            self._round_robin = (self._round_robin + step + 1) % count
            self.reads_on_replica += 1
            self.last_route = ("replica", replica.name, margin)
            self._count_route(replica.name)
            return result
        self.reads_on_primary += 1
        self.last_route = ("primary", "fallback", 0.0)
        self._count_route("primary")
        return self.db.run_statement(statement, sql)

    def query(
        self, sql: str, max_staleness: Optional[float] = None
    ) -> List[Dict[str, Any]]:
        return self.execute(sql, max_staleness=max_staleness).rows

    def rebind(self, db, shipper) -> None:
        """Swap the write target after a failover promotion.

        The promotion coordinator hands the session the new primary and
        its fresh :class:`~repro.replication.shipper.WalShipper`;
        subsequent writes go to the promoted node and reads fan out over
        the re-attached survivors.  The round-robin cursor resets (the
        link set changed) but the placement ledgers persist — a failover
        should be visible in the counters, not erase them.
        """
        self.db = db
        self.shipper = shipper
        self._round_robin = 0
        self.rebinds += 1

    def snapshot(self) -> Dict[str, Any]:
        """Routing counters for reporting."""
        return {
            "reads_on_replica": self.reads_on_replica,
            "reads_on_primary": self.reads_on_primary,
            "writes": self.writes,
            "degraded": self.degraded,
            "replica_errors": self.replica_errors,
            "rebinds": self.rebinds,
            "route_counts": dict(sorted(self.route_counts.items())),
            "last_degradation": self.last_degradation,
        }

    def _count_route(self, endpoint: str) -> None:
        self.route_counts[endpoint] = self.route_counts.get(endpoint, 0) + 1

    def __repr__(self) -> str:
        return (
            f"RoutedSession(replicas={sorted(self.shipper.links)}, "
            f"max_staleness={self.max_staleness})"
        )
