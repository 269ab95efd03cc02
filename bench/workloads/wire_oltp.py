"""wire_oltp — where framing, thread hops and the commit window are the
statement.

A durable database with a small ``kv`` table served by ``SoftDB.serve()``
on loopback in this process, and ``CLIENTS`` closed-loop ``SessionClient``
connections: 70 % SELECT by key, 20 % autocommit UPDATE, 10 %
BEGIN/UPDATE/UPDATE/COMMIT.  Each connection writes its own keys (so
nothing aborts by construction) and reads any key.  Engine work is tiny:
the asyncio framing, the hop to the executor thread, session/MVCC/lock
bookkeeping and the group-commit gather window own the latency.
"""

from __future__ import annotations

import asyncio
import random
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import harness

from repro import SoftDB
from repro.concurrency.server import SessionClient
from repro.errors import ReproError

NAME = "wire_oltp"

#: Fixed, not ``nproc``: the same traffic on every box.
CLIENTS = 2
#: Operations per generated chunk; the mix is exact within each.
CHUNK = 10

# SQL text, kind, and the value a SELECT must return (own keys only: another
# connection's key may be mid-write).
Statement = Tuple[str, str, Optional[int]]


class Stream:
    """One connection's seeded statements and the values it wrote."""

    def __init__(self, seed: int, connection: int, rows: int) -> None:
        self.rng = random.Random(f"wire_oltp:{seed}:{connection}")
        self.connection = connection
        self.rows = rows
        self.own = [key for key in range(rows) if key % CLIENTS == connection]
        self.written: Dict[int, int] = {}

    def _update(self) -> Statement:
        key = self.rng.choice(self.own)
        value = self.rng.randrange(1_000_000)
        self.written[key] = value
        return f"UPDATE kv SET val = {value} WHERE id = {key}", "update", None

    def warm_up(self) -> List[Statement]:
        """Write every own key once.  From then on every row carries a
        version chain, which is the state a served table spends its life
        in; without this a run slows down for its first seconds."""
        keys = list(self.own)
        self.rng.shuffle(keys)
        statements = []
        for key in keys:
            self.written[key] = value = self.rng.randrange(1_000_000)
            statements.append(
                (f"UPDATE kv SET val = {value} WHERE id = {key}", "update",
                 None)
            )
        return statements

    def chunk(self) -> List[Statement]:
        operations = (
            ["select"] * (CHUNK * 70 // 100) + ["update"] * (CHUNK * 20 // 100)
            + ["txn"] * (CHUNK * 10 // 100)
        )
        self.rng.shuffle(operations)
        statements: List[Statement] = []
        for operation in operations:
            if operation == "select":
                key = self.rng.randrange(self.rows)
                own = key % CLIENTS == self.connection
                value = self.written.get(key, initial_value(key))
                statements.append(
                    (f"SELECT id, val FROM kv WHERE id = {key}", "select",
                     value if own else None)
                )
            elif operation == "update":
                statements.append(self._update())
            else:
                statements.append(("BEGIN", "begin", None))
                statements.append(self._update())
                statements.append(self._update())
                statements.append(("COMMIT", "commit", None))
        return statements


def initial_value(key: int) -> int:
    return key * 3 + 1


def build(path: Optional[Path], rows: int) -> SoftDB:
    db = SoftDB.open(path) if path is not None else SoftDB()
    db.execute(
        "CREATE TABLE kv (id INT PRIMARY KEY, val INT, pad VARCHAR(32))"
    )
    db.database.insert_many(
        "kv", [(key, initial_value(key), f"pad-{key:08d}") for key in range(rows)]
    )
    db.runstats("kv")
    return db


def wrong_answer(statement: Statement, reply: Any) -> bool:
    """Whether ``reply`` (a wire response dict, an ExecutionResult, a row
    count or None) is not what the statement must return."""
    _, kind, value = statement
    if kind == "select":
        rows = reply["rows"] if isinstance(reply, dict) else reply.rows
        if len(rows) != 1:
            return True
        return value is not None and rows[0]["val"] != value
    if kind == "update":
        count = reply["rowcount"] if isinstance(reply, dict) else reply
        return count != 1
    return False


class Samples:
    """What the clients record: per statement its completion time, its
    latency and its kind."""

    def __init__(self) -> None:
        self.ends: List[float] = []
        self.latencies: List[float] = []
        self.kinds: List[str] = []
        self.failed = 0
        self.aborts = 0
        # Statements sent outside the timed loop: warm-up and re-reads.
        self.warmed = 0
        self.reread = 0
        # (wall clock, CPU clock) at each repetition edge of a timed run.
        self.edges: List[Tuple[float, float]] = []

    def add(self, end: float, latency: float, kind: str) -> None:
        self.ends.append(end)
        self.latencies.append(latency)
        self.kinds.append(kind)

    def p50_ms(self, kind: Optional[str] = None) -> float:
        chosen = [
            latency for latency, k in zip(self.latencies, self.kinds)
            if kind is None or k == kind
        ]
        return harness.percentile(chosen, 0.5) * 1e3 if chosen else 0.0


async def serve_traffic(
    db: SoftDB,
    streams: List[Stream],
    count: Optional[int] = None,
    seconds: Optional[float] = None,
    repetitions: int = 0,
    tracer: Optional[harness.Tracer] = None,
) -> Tuple[Samples, Any]:
    """Start the server, warm up, run every stream's closed loop over its
    own connection — until each sent ``count`` statements, or for
    ``seconds`` cut into ``repetitions`` by the clock — then re-read every
    key written and stop the server.  Returns the samples and the stopped
    server.
    """
    samples = Samples()
    server = db.serve()
    await server.start()
    clients: List[SessionClient] = []
    outstanding: List[Optional[list]] = [None] * len(streams)
    if tracer is not None:
        _trace_sessions(db, tracer, outstanding)
    try:
        for _ in streams:
            # One at a time, and answered, so the server's n-th session
            # belongs to the n-th client.
            client = await SessionClient.connect(server.host, server.port)
            clients.append(client)
            await client.execute("SELECT id FROM kv WHERE id = 0")

        async def warm_up(index: int) -> None:
            for sql, _, _ in streams[index].warm_up():
                reply = await clients[index].execute(sql)
                samples.warmed += 1
                samples.failed += reply.get("rowcount") != 1

        await asyncio.gather(*(warm_up(i) for i in range(len(streams))))
        edges = [] if seconds is None else [
            time.perf_counter() + seconds * i / repetitions
            for i in range(repetitions + 1)
        ]

        def enough(sent: int) -> bool:
            if count is not None:
                return sent >= count
            return time.perf_counter() >= edges[-1] + 0.05

        async def closed_loop(index: int) -> None:
            client, stream = clients[index], streams[index]
            sent = 0
            while not enough(sent):
                for statement in stream.chunk():
                    span = None
                    if tracer is not None:
                        span = tracer.begin(
                            "concurrency.client_execute",
                            stmt_id=index * 1_000_000 + sent,
                        )
                        outstanding[index] = span
                    begun = time.perf_counter()
                    try:
                        reply = await client.execute(statement[0])
                        bad = wrong_answer(statement, reply)
                    except ReproError:
                        samples.aborts += 1
                        bad = True
                    end = time.perf_counter()
                    if span is not None:
                        span[3] = end
                        outstanding[index] = None
                    samples.add(end, end - begun, statement[1])
                    samples.failed += bad
                    sent += 1

        async def clock_edges() -> None:
            # CPU time is read as each repetition's edge passes.
            for edge in edges:
                await asyncio.sleep(max(0.0, edge - time.perf_counter()))
                samples.edges.append(
                    (time.perf_counter(), time.process_time())
                )

        await asyncio.gather(
            clock_edges(), *(closed_loop(i) for i in range(len(streams)))
        )
        # Every key a connection wrote reads back as its last write.
        for client, stream in zip(clients, streams):
            for key, value in stream.written.items():
                reply = await client.execute(
                    f"SELECT val FROM kv WHERE id = {key}"
                )
                samples.reread += 1
                samples.failed += reply["rows"] != [{"val": value}]
    finally:
        for client in clients:
            await client.close()
        await server.stop()
        if tracer is not None:
            del db.session  # back to the class's method
    return samples, server


def _trace_sessions(db: SoftDB, tracer: harness.Tracer,
                    outstanding: List[Optional[list]]) -> None:
    """Wrap ``db.session`` so each server-side ``Session.execute`` records
    a span whose parent is the client span in flight on its connection."""
    make_session = db.session
    made = []

    def traced_session(name=None):
        session = make_session(name)
        index = len(made)
        made.append(session)
        execute = session.execute

        def traced_execute(sql, *args, **kwargs):
            return tracer.call(
                "concurrency.session_execute", execute, sql, *args,
                parent=outstanding[index] if index < len(outstanding) else None,
                **kwargs,
            )

        session.execute = traced_execute
        return session

    db.session = traced_session


def run_serving(db: SoftDB, streams: List[Stream], **how):
    """``serve_traffic`` on a fresh event loop, closed before returning:
    ``asyncio.run`` joins the loop's executor threads on the way out."""
    return asyncio.run(serve_traffic(db, streams, **how))


def run_in_process(target, stream: Stream, count: int) -> Samples:
    """The same statements through ``target.execute`` with no wire."""
    samples = Samples()
    for statement in stream.warm_up():
        samples.failed += target.execute(statement[0]) != 1
    sent = 0
    while sent < count:
        for statement in stream.chunk():
            begun = time.perf_counter()
            try:
                bad = wrong_answer(statement, target.execute(statement[0]))
            except ReproError:
                samples.aborts += 1
                bad = True
            end = time.perf_counter()
            samples.add(end, end - begun, statement[1])
            samples.failed += bad
            sent += 1
    return samples


class Workload:
    def __init__(self, seed: int, smoke: bool) -> None:
        self.smoke = smoke
        self.sizing = harness.SMOKE if smoke else harness.FULL
        self.seed = seed
        self.rows = 100 if smoke else 500
        self.db: Optional[SoftDB] = None
        self.path: Optional[Path] = None

    def streams(self, count: int = CLIENTS) -> List[Stream]:
        return [Stream(self.seed, index, self.rows) for index in range(count)]

    def inputs(self) -> List[str]:
        return [
            sql for stream in self.streams()
            for _ in range(2) for sql, _, _ in stream.chunk()
        ]

    def setup(self) -> None:
        self.path = harness.make_workdir(NAME)
        self.db = build(self.path, self.rows)

    def teardown(self) -> None:
        if self.db is not None:
            self.db.close(checkpoint=False)
            self.db = None
        harness.remove_workdir(self.path)
        self.path = None

    def check_before(self) -> Tuple[int, int]:
        rows = self.db.query("SELECT id, val FROM kv")
        bad = [r for r in rows if r["val"] != initial_value(r["id"])]
        return 1, int(bool(bad) or len(rows) != self.rows)

    def run(self, seconds: float):
        """Clients run until the deadline; the timed span after the
        warm-up is cut into equal repetitions by the clock."""
        samples, _ = run_serving(
            self.db, self.streams(), seconds=seconds,
            repetitions=self.sizing.repetitions,
        )
        blocks = []
        for (begin, cpu_begin), (end, cpu_end) in zip(
            samples.edges, samples.edges[1:]
        ):
            latencies = [
                latency for at, latency in zip(samples.ends, samples.latencies)
                if begin <= at < end
            ]
            blocks.append(
                harness.Repetition(end - begin, cpu_end - cpu_begin, latencies)
            )
        attempted = len(samples.latencies) + samples.warmed + samples.reread
        return blocks, attempted, samples.failed

    def check_after(self) -> Tuple[int, int]:
        return 0, 0

    # ---------------------------------------------------------------- trace

    def trace(self, tracer: harness.Tracer) -> Dict[str, float]:
        count = 100 if self.smoke else 400
        rounds = 1 if self.smoke else 3
        p50: Dict[str, List[float]] = {}
        totals: Dict[str, List[float]] = {}
        metrics: Dict[str, float] = {}
        failed = 0

        def fresh(durable: bool):
            return harness.scratch_db(
                lambda path: build(path, self.rows), durable, NAME
            )

        def record(name: str, samples: Samples) -> None:
            nonlocal failed
            failed += samples.failed
            p50.setdefault(name, []).append(samples.p50_ms())
            totals.setdefault(name, []).append(sum(samples.latencies))

        for round_ in range(rounds):
            with fresh(True) as db:
                record("facade", run_in_process(db, self.streams(1)[0], count))
            with fresh(True) as db:
                with db.session() as session:
                    record(
                        "session",
                        run_in_process(session, self.streams(1)[0], count),
                    )
            with fresh(True) as db:
                samples, _ = run_serving(db, self.streams(1), count=count)
                record("wire_one", samples)
            with fresh(False) as db:
                samples, _ = run_serving(db, self.streams(), count=count)
                record("wire_in_memory", samples)
            with fresh(True) as db:
                before = harness.counters(db)
                samples, server = run_serving(db, self.streams(), count=count)
                record("wire", samples)
                after = harness.counters(db)
                workload = samples
                group = db.database.concurrency.group_commit.stats()
                shed = server.shed
                if round_ == rounds - 1:
                    metrics.update(_durability_probe(db, tracer))
            with fresh(True) as db:
                harness.patch_layers(tracer)
                try:
                    samples, _ = run_serving(
                        db, self.streams(), count=count, tracer=tracer
                    )
                finally:
                    tracer.unpatch_all()
                record("wire_traced", samples)
        if failed:
            raise RuntimeError(f"{failed} statements failed in the traced run")

        median = {name: harness.percentile(v, 0.5) for name, v in p50.items()}
        # Both sides of a twin ratio take their fastest round: noise only
        # ever slows a round down.
        total = {name: min(v) for name, v in totals.items()}
        metrics["concurrency.session_overhead_ms"] = (
            median["session"] - median["facade"]
        )
        metrics["concurrency.wire_overhead_ms"] = (
            median["wire_one"] - median["session"]
        )
        metrics["concurrency.contention_ms"] = (
            median["wire"] - median["wire_one"]
        )
        metrics["durability.overhead_ratio"] = (
            total["wire"] / total["wire_in_memory"]
        )
        metrics["trace.overhead_ratio"] = total["wire_traced"] / total["wire"]
        # The counters ran through warm-up and re-reads too.
        statements = (
            len(workload.latencies) + workload.warmed + workload.reread
        )
        commits = (
            workload.warmed + workload.kinds.count("update")
            - workload.kinds.count("commit")
        )
        metrics["concurrency.commits_per_flush"] = (
            group["commits"] / max(1, group["group_flushes"])
        )
        metrics["concurrency.server_shed"] = shed
        metrics["concurrency.aborts"] = workload.aborts
        for name in ("page_reads", "page_writes"):
            metrics[f"engine.{name}_per_stmt"] = (
                after[name] - before[name]
            ) / statements
        metrics["durability.wal_bytes_per_stmt"] = (
            after["wal_bytes"] - before["wal_bytes"]
        ) / statements
        metrics["durability.flushes_per_commit"] = (
            after["wal_flushes"] - before["wal_flushes"]
        ) / commits
        for kind in ("select", "update", "commit"):
            metrics[f"client.{kind}_p50_ms"] = workload.p50_ms(kind)
        metrics["client.stmt_p99_ms"] = (
            harness.percentile(workload.latencies, 0.99) * 1e3
        )

        traced = tracer.count("concurrency.client_execute")
        if tracer.count("concurrency.session_execute") < traced:
            raise RuntimeError("a session span is missing: the boundary moved")
        metrics.update(
            harness.read_path_layers(
                tracer, traced, "concurrency.client_execute"
            )
        )
        metrics["api.self_ms"] = tracer.total(
            "concurrency.session_execute", self_time=True,
            under="concurrency.client_execute",
        ) * 1e3 / traced
        metrics["concurrency.wire_self_ms"] = tracer.total(
            "concurrency.client_execute", self_time=True
        ) * 1e3 / traced
        return metrics


def _durability_probe(db: SoftDB, tracer: harness.Tracer) -> Dict[str, float]:
    """Checkpoint, restart and disk footprint of the served database."""
    path = db.durability.path
    tracer.call("durability.checkpoint", db.checkpoint)
    user_bytes = harness.user_bytes(
        row.values() for row in db.query("SELECT id, val, pad FROM kv")
    )
    db.close()
    disk = harness.dir_bytes(path)
    reopened = tracer.call("durability.recovery", SoftDB.open, path)
    reopened.close(checkpoint=False)
    return {
        "durability.checkpoint_ms": tracer.total("durability.checkpoint") * 1e3,
        "durability.recovery_ms": tracer.total("durability.recovery") * 1e3,
        "durability.disk_bytes_per_user_byte": disk / user_bytes,
    }
