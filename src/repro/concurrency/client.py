"""Failure-aware multi-endpoint client: retry, backoff, failover.

:class:`FailoverClient` wraps :class:`~repro.concurrency.server.
SessionClient` with the policies a client facing an unreliable fleet
needs:

* **typed retry classification** — :class:`~repro.errors.
  OverloadedError` (shed before execution: always safe to retry on the
  same endpoint), :class:`~repro.errors.ShutdownError` (orderly drain:
  fail over to the next endpoint), and :class:`~repro.errors.
  NetworkError` (outcome *unknown*: fail over, but only retry the
  statement when the caller declared it idempotent), and
  :class:`~repro.errors.FencedError` (a deposed primary rejected the
  write *before* any durability point: outcome known, so the client
  redirects to the next endpoint and may re-issue even non-idempotent
  statements);
* **capped exponential backoff with jitter** — seeded, so failover
  tests replay deterministically; jitter keeps a thundering herd of
  recovering clients from re-synchronizing on the server;
* **automatic failover** — endpoints are tried round-robin on
  connection loss or shutdown, and the typed
  :class:`~repro.errors.ReplicaUnavailableError` surfaces only when
  every endpoint has been exhausted across the attempt budget.

Every error raised is a :class:`~repro.errors.ReproError` subclass:
the chaos suite's "typed errors only" contract extends over the wire.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.concurrency.server import SessionClient
from repro.errors import (
    FencedError,
    NetworkError,
    OverloadedError,
    ReplicaUnavailableError,
    ShutdownError,
)
from repro.resilience.faults import BackoffPolicy

__all__ = ["BackoffPolicy", "FailoverClient"]


class FailoverClient:
    """A session client over an ordered endpoint list.

    Parameters
    ----------
    endpoints:
        ``(host, port)`` pairs, preferred first.
    connect_timeout / statement_timeout:
        Bounds per attempt; breaches classify as
        :class:`~repro.errors.NetworkError`.
    backoff:
        A :class:`~repro.resilience.faults.BackoffPolicy`; defaults to a
        fast seeded one.  Its ``max_attempts`` is the total statement
        attempts (across endpoints) before giving up with
        :class:`~repro.errors.ReplicaUnavailableError`.
    """

    def __init__(
        self,
        endpoints: Sequence[Tuple[str, int]],
        connect_timeout: float = 2.0,
        statement_timeout: float = 10.0,
        backoff: Optional[BackoffPolicy] = None,
    ) -> None:
        self.endpoints: List[Tuple[str, int]] = list(endpoints)
        if not self.endpoints:
            raise ReplicaUnavailableError(
                "FailoverClient needs at least one endpoint"
            )
        self.connect_timeout = connect_timeout
        self.statement_timeout = statement_timeout
        self.backoff = backoff if backoff is not None else BackoffPolicy()
        self._client: Optional[SessionClient] = None
        self._endpoint_index = 0
        self.retries = 0
        self.failovers = 0
        self.sheds_seen = 0
        self.fenced_seen = 0

    @property
    def endpoint(self) -> Tuple[str, int]:
        """The endpoint the next attempt will use."""
        return self.endpoints[self._endpoint_index % len(self.endpoints)]

    async def execute(
        self, sql: str, idempotent: bool = True
    ) -> Dict[str, Any]:
        """Run one statement with retry/failover.

        ``idempotent=False`` marks a statement that must not be blindly
        re-run when its outcome is unknown (a ``NetworkError`` after
        send): the error propagates immediately instead of retrying —
        re-running a non-idempotent write could apply it twice.
        Overload and shutdown rejections happen *before* execution, so
        they retry regardless.
        """
        last_error: Optional[Exception] = None
        for attempt in range(self.backoff.max_attempts):
            if attempt:
                self.retries += 1
                await asyncio.sleep(
                    self.backoff.delay(attempt - 1, cause=last_error)
                )
            try:
                await self._ensure_connected()
                return await self._client.execute(
                    sql, timeout=self.statement_timeout
                )
            except OverloadedError as error:
                # Shed pre-execution: same endpoint, just back off.
                self.sheds_seen += 1
                last_error = error
            except FencedError as error:
                # The endpoint is a deposed primary: failover promoted
                # someone else, and the write was rejected *before* any
                # durability point.  The outcome is known (nothing
                # executed), so re-issuing on the next endpoint is safe
                # even for non-idempotent statements — this is the
                # primary-redirect path, not a blind retry.
                self.fenced_seen += 1
                last_error = error
                await self._fail_over()
            except ShutdownError as error:
                # Orderly drain: this endpoint is going away.
                last_error = error
                await self._fail_over()
            except NetworkError as error:
                last_error = error
                await self._fail_over()
                if not idempotent and self._statement_was_sent(error):
                    raise
        raise ReplicaUnavailableError(
            f"all {len(self.endpoints)} endpoint(s) failed after "
            f"{self.backoff.max_attempts} attempts: {last_error}"
        ) from last_error

    async def close(self) -> None:
        if self._client is not None:
            client, self._client = self._client, None
            await client.close()

    # -- internals -----------------------------------------------------------

    async def _ensure_connected(self) -> None:
        if self._client is None:
            host, port = self.endpoint
            self._client = await SessionClient.connect(
                host, port, timeout=self.connect_timeout
            )

    async def _fail_over(self) -> None:
        """Drop the current connection and advance to the next endpoint."""
        await self.close()
        self._endpoint_index = (self._endpoint_index + 1) % len(
            self.endpoints
        )
        self.failovers += 1

    def _statement_was_sent(self, error: NetworkError) -> bool:
        """Whether the failed attempt may have executed server-side.

        Connect-phase failures (no client existed yet when they raise,
        message carries the connect context) never sent the statement;
        everything else must be assumed in flight.
        """
        return not str(error).startswith("connect to ")

    def __repr__(self) -> str:
        return (
            f"FailoverClient(endpoints={self.endpoints}, "
            f"failovers={self.failovers})"
        )
