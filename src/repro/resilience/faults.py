"""Deterministic fault injection: one seeded schedule for every fault site.

A :class:`FaultInjector` holds :class:`FaultSpec` entries (site + kind +
cadence) and is consulted at every visit of a named *site*.
:data:`SITE_KINDS` is the whole vocabulary: a spec naming a fault its
site would not inflict raises :class:`~repro.errors.ExecutionError`.

**Storage sites** (attach with
:meth:`repro.engine.database.Database.attach_fault_injector`):
``page_read`` is every counted :meth:`PageManager.read_page`,
``page_write`` every counted logical page write, ``index_probe`` every
B-tree descent.  ``transient`` is a simulated transient I/O error,
retried on the injector's :class:`BackoffPolicy` (virtual clock, no real
sleeps) until :class:`~repro.errors.TransientIOError` surfaces with the
attempt budget spent.  ``corrupt`` is a bit flip caught by checksums: a
page read heals the torn buffered copy and retries, an index is
quarantined until rebuilt from the heap, and a page write treats it as a
failed write-verify and retries — it never lands corrupted.

**Network sites** (:mod:`repro.replication`): a ``net_frame`` visit is
one shipment of framed WAL to one replica's link, a ``heartbeat`` visit
one lease-renewal heartbeat to the failure detector.  ``drop`` loses it
(the pull cursor re-ships; a lost heartbeat renews nothing),
``truncate`` delivers a torn prefix (the CRC check rejects the torn
frame), ``delay`` parks it for late delivery (a duplicate by then, or a
late renewal the detector counts as a flap), and ``sever`` cuts the
connection until restored.  The heartbeat also honours
``asym_partition``: the control direction is cut while data still
flows — the canonical split-brain inducer, where only fencing keeps
history single.

**Crash sites** (:mod:`repro.durability`; pass the injector as
``crash_points``): ``wal_append`` tears the final WAL record,
``page_flush`` and ``catalog_serialize`` die mid-checkpoint
serialization, ``checkpoint_write`` after the tmp image but before its
rename.  ``crash`` models process death: :class:`SimulatedCrash`
propagates and the only way forward is :meth:`repro.api.SoftDB.open`
replaying the log.

Cadences are checked in the order ``at_visit``, ``every_nth``, then
``probability`` (the only one that draws from the seeded RNG), so the
same seed and specs give the same visit sequence and the same faults.
:meth:`FaultInjector.pause` stops injecting but keeps counting visits.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ExecutionError, ReplicaUnavailableError
from repro.resilience.guards import VirtualClock

_STORAGE_KINDS = ("transient", "corrupt")
_NETWORK_KINDS = ("drop", "truncate", "delay", "sever")

#: Every fault site and the fault kinds it honours.
SITE_KINDS: Dict[str, Tuple[str, ...]] = {
    "page_read": _STORAGE_KINDS,
    "page_write": _STORAGE_KINDS,
    "index_probe": _STORAGE_KINDS,
    "net_frame": _NETWORK_KINDS,
    "heartbeat": _NETWORK_KINDS + ("asym_partition",),
    "wal_append": ("crash",),
    "page_flush": ("crash",),
    "checkpoint_write": ("crash",),
    "catalog_serialize": ("crash",),
}


class SimulatedCrash(Exception):
    """Simulated process death at a declared crash point.

    Deliberately **not** a :class:`~repro.errors.ReproError`: nothing in
    the engine may catch-and-continue past it — resilience code that
    handles typed storage errors must let a crash propagate, exactly as
    a real ``kill -9`` would end the process.
    """

    def __init__(self, message: str, site: str = "") -> None:
        super().__init__(message)
        self.site = site


class BackoffPolicy:
    """Bounded, capped exponential backoff with seeded jitter.

    :meth:`delay` sleeps on the policy's
    :class:`~repro.resilience.guards.VirtualClock` — never in real time —
    and returns the chosen delay.  ``max_attempts`` is the caller's whole
    attempt budget (the first try included).  ``max_elapsed`` bounds the
    *total* backoff across a retry sequence: when granting one more delay
    would push the cumulative total past it, :meth:`delay` raises
    :class:`~repro.errors.ReplicaUnavailableError` instead, chained
    (``from cause``) to the failure that provoked the retry.  A delay
    landing exactly on ``max_elapsed`` is still granted.  The jitter RNG
    is the policy's own, so retrying never shifts a fault schedule.
    """

    def __init__(
        self,
        base_delay: float = 0.01,
        multiplier: float = 2.0,
        cap: float = 0.5,
        jitter: float = 0.5,
        seed: int = 0,
        max_elapsed: Optional[float] = None,
        clock: Optional[VirtualClock] = None,
        max_attempts: int = 6,
    ) -> None:
        if max_attempts < 1:
            raise ExecutionError(
                f"max_attempts must be >= 1, got {max_attempts}"
            )
        self.base_delay = base_delay
        self.multiplier = multiplier
        self.cap = cap
        self.jitter = jitter
        self.rng = random.Random(seed)
        self.max_elapsed = max_elapsed
        self.clock = clock if clock is not None else VirtualClock()
        self.max_attempts = max_attempts
        self.elapsed = 0.0
        self.exhaustions = 0

    def delay(
        self, attempt: int, cause: Optional[BaseException] = None
    ) -> float:
        """Sleep before retry number ``attempt`` (0-based): capped
        exponential, then jittered down by up to ``jitter`` of itself."""
        base = min(self.cap, self.base_delay * (self.multiplier ** attempt))
        chosen = base * (1.0 - self.jitter * self.rng.random())
        if (
            self.max_elapsed is not None
            and self.elapsed + chosen > self.max_elapsed
        ):
            self.exhaustions += 1
            raise ReplicaUnavailableError(
                f"retry budget exhausted: {self.elapsed:.4f}s of backoff "
                f"spent and the next {chosen:.4f}s delay would exceed "
                f"max_elapsed={self.max_elapsed}"
            ) from cause
        self.elapsed += chosen
        self.clock.sleep(chosen)
        return chosen

    def reset(self) -> None:
        """Open a fresh budget window (a new logical operation)."""
        self.elapsed = 0.0


class FaultSpec:
    """One scheduled fault: site + kind + cadence, bounded by ``limit``
    firings (unbounded when None)."""

    __slots__ = (
        "site", "kind", "probability", "every_nth", "at_visit", "limit",
        "hits",
    )

    def __init__(
        self,
        site: str,
        kind: str,
        probability: float = 0.0,
        every_nth: Optional[int] = None,
        at_visit: Optional[int] = None,
        limit: Optional[int] = None,
    ) -> None:
        honoured = SITE_KINDS.get(site)
        if honoured is None:
            raise ExecutionError(
                f"unknown fault site {site!r} (sites: {tuple(SITE_KINDS)})"
            )
        if kind not in honoured:
            raise ExecutionError(
                f"fault site {site!r} honours {honoured}, not {kind!r}"
            )
        if not 0.0 <= probability <= 1.0:
            raise ExecutionError(
                f"probability must be in [0, 1], got {probability}"
            )
        if every_nth is not None and every_nth < 1:
            raise ExecutionError(f"every_nth must be >= 1, got {every_nth}")
        if at_visit is not None and at_visit < 1:
            raise ExecutionError(f"at_visit must be >= 1, got {at_visit}")
        if probability == 0.0 and every_nth is None and at_visit is None:
            raise ExecutionError(
                "a FaultSpec needs at_visit, every_nth or a probability"
            )
        self.site = site
        self.kind = kind
        self.probability = probability
        self.every_nth = every_nth
        self.at_visit = at_visit
        self.limit = limit
        self.hits = 0

    def fires(self, visit: int, rng: random.Random) -> bool:
        """Whether this spec injects at ``visit`` (draws from ``rng``
        only for a probabilistic cadence)."""
        if self.limit is not None and self.hits >= self.limit:
            return False
        if self.at_visit is not None and visit == self.at_visit:
            return True
        if self.every_nth is not None and visit % self.every_nth == 0:
            return True
        return self.probability > 0.0 and rng.random() < self.probability

    def __repr__(self) -> str:
        if self.at_visit is not None:
            cadence = f"at_visit={self.at_visit}"
        elif self.every_nth is not None:
            cadence = f"every_nth={self.every_nth}"
        else:
            cadence = f"p={self.probability}"
        return f"FaultSpec({self.site}, {self.kind}, {cadence}, hits={self.hits})"


class FaultInjector:
    """Seeded, deterministic fault scheduler for every fault site.

    ``retry`` is the backoff the storage retry loops use; the default
    sleeps on this injector's ``clock``.
    """

    def __init__(
        self,
        seed: int = 0,
        retry: Optional[BackoffPolicy] = None,
        clock: Optional[VirtualClock] = None,
    ) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.clock = clock if clock is not None else VirtualClock()
        self.retry = (
            retry
            if retry is not None
            else BackoffPolicy(
                base_delay=0.001,
                multiplier=2.0,
                jitter=0.0,
                max_attempts=3,
                clock=self.clock,
            )
        )
        self.enabled = True
        self.specs: List[FaultSpec] = []
        self.visits: Dict[str, int] = {site: 0 for site in SITE_KINDS}
        self.injected: Dict[Tuple[str, str], int] = {}
        # (page, slot_no, original value) of the live page corruption, so
        # a detected torn read can be healed (the simulated disk image is
        # intact; only the buffered copy was damaged).
        self._page_damage: Optional[Tuple[Any, int, Any]] = None

    # -- scheduling ---------------------------------------------------------

    def add(
        self,
        site: str,
        kind: str,
        probability: float = 0.0,
        every_nth: Optional[int] = None,
        at_visit: Optional[int] = None,
        limit: Optional[int] = None,
    ) -> "FaultInjector":
        """Schedule a fault; returns self for chaining."""
        self.specs.append(
            FaultSpec(site, kind, probability, every_nth, at_visit, limit)
        )
        return self

    def pause(self) -> None:
        """Stop injecting (visits still counted) until :meth:`resume`."""
        self.enabled = False

    def resume(self) -> None:
        self.enabled = True

    def decide(self, site: str) -> Optional[str]:
        """The fault kind to inject at this visit of ``site``, if any."""
        if site not in self.visits:
            raise ExecutionError(
                f"unknown fault site {site!r} (sites: {tuple(SITE_KINDS)})"
            )
        self.visits[site] += 1
        if not self.enabled:
            return None
        visit = self.visits[site]
        for spec in self.specs:
            if spec.site == site and spec.fires(visit, self.rng):
                spec.hits += 1
                key = (site, spec.kind)
                self.injected[key] = self.injected.get(key, 0) + 1
                return spec.kind
        return None

    # -- corruption ---------------------------------------------------------

    def corrupt_page(self, page: Any) -> bool:
        """Bit-flip one live slot of ``page`` without fixing its checksum.

        Returns False when the page holds no live rows (nothing to
        damage).  The original value is remembered so :meth:`heal_page`
        can restore the intact disk image after detection.
        """
        live = [
            slot_no
            for slot_no, slot in enumerate(page.slots)
            if slot is not None
        ]
        if not live:
            return False
        slot_no = live[self.rng.randrange(len(live))]
        original = page.slots[slot_no]
        column = self.rng.randrange(len(original)) if original else 0
        damaged = list(original)
        damaged[column] = _flip(damaged[column])
        page.slots[slot_no] = tuple(damaged)
        self._page_damage = (page, slot_no, original)
        return True

    def heal_page(self, page: Any) -> None:
        """Restore the last corruption on ``page`` (simulated re-read)."""
        if self._page_damage is None or self._page_damage[0] is not page:
            return
        _, slot_no, original = self._page_damage
        page.slots[slot_no] = original
        self._page_damage = None

    def corrupt_index(self, index: Any) -> bool:
        """Bit-flip one key of ``index`` without fixing its checksum."""
        if not len(index):
            return False
        at = self.rng.randrange(len(index))
        key = index._keys[at]
        column = self.rng.randrange(len(key)) if key else 0
        damaged = list(key)
        damaged[column] = _flip(damaged[column])
        index._keys[at] = tuple(damaged)
        return True

    # -- reporting ----------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "enabled": self.enabled,
            "visits": dict(self.visits),
            "injected": {
                f"{site}:{kind}": count
                for (site, kind), count in sorted(self.injected.items())
            },
            "virtual_time": self.clock.now,
        }

    def __repr__(self) -> str:
        total = sum(self.injected.values())
        return (
            f"FaultInjector(seed={self.seed}, specs={len(self.specs)}, "
            f"injected={total})"
        )


def crash_if_due(injector: Optional[FaultInjector], site: str) -> None:
    """Raise :class:`SimulatedCrash` when ``injector`` schedules a crash
    at this visit of ``site`` (a crash site of :data:`SITE_KINDS`)."""
    if injector is not None and injector.decide(site) == "crash":
        raise SimulatedCrash(f"simulated crash at {site}", site=site)


def _flip(value: Any) -> Any:
    """A deterministic 'bit flip' of one field value."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value ^ (1 << 7)
    if isinstance(value, float):
        return -(value + 1.0)
    if isinstance(value, str):
        if not value:
            return "\x01"
        head = chr((ord(value[0]) ^ 0x01) or 0x02)
        return head + value[1:]
    if value is None:
        return 0
    return value
