"""Server/client failure hardening: typed rehydration for every
taxonomy class, load shedding, graceful shutdown, client timeouts, and
multi-endpoint failover (ISSUE 9 satellites 1 and 2).
"""

import asyncio
import inspect
import json

import pytest

import repro.errors as errors_module
from repro.api import SoftDB
from repro.concurrency.client import BackoffPolicy, FailoverClient
from repro.concurrency.server import (
    SessionClient,
    SessionServer,
    _rehydrate,
)
from repro.errors import (
    NetworkError,
    OverloadedError,
    RemoteError,
    ReplicaUnavailableError,
    ReproError,
    ShutdownError,
    TransactionConflictError,
    UnknownObjectError,
)


@pytest.fixture
def db():
    handle = SoftDB()
    handle.execute("CREATE TABLE kv (id INT PRIMARY KEY, val INT)")
    handle.execute("INSERT INTO kv VALUES (1, 10), (2, 20)")
    yield handle
    handle.close()


def taxonomy_classes():
    return [
        cls
        for _, cls in inspect.getmembers(errors_module, inspect.isclass)
        if issubclass(cls, ReproError)
    ]


# -- rehydration (satellite 1) ------------------------------------------------


def test_every_taxonomy_class_rehydrates_to_itself():
    classes = taxonomy_classes()
    assert len(classes) > 20, "taxonomy unexpectedly small"
    for cls in classes:
        error = _rehydrate(cls.__name__, "over the wire")
        assert type(error) is cls
        assert "over the wire" in str(error)


@pytest.mark.parametrize(
    "type_name",
    [
        "NoSuchError",  # unknown name
        "ValueError",  # a builtin, not ours
        "ReproError",  # base class itself is fine to keep typed
        "canonical_dumps",  # a module attribute that is not a class
        None,  # malformed error frame
        "",
    ],
)
def test_unmapped_wire_errors_become_remote_error(type_name):
    error = _rehydrate(type_name, "boom")
    assert isinstance(error, ReproError)
    if type_name == "ReproError":
        assert type(error) is ReproError
    else:
        assert isinstance(error, RemoteError)
        assert error.remote_type == (type_name or "")


def test_every_taxonomy_class_rehydrates_over_a_real_socket():
    """A raw server answering every request with a crafted error frame:
    the client must raise exactly the named class for each taxonomy
    member, and never anything outside ``ReproError``."""

    async def scenario():
        async def handle(reader, writer):
            while True:
                line = await reader.readline()
                if not line:
                    break
                request = json.loads(line)
                writer.write(
                    (
                        json.dumps(
                            {
                                "id": request["id"],
                                "ok": False,
                                "error": {
                                    "type": request["sql"],
                                    "message": "synthetic",
                                },
                            }
                        )
                        + "\n"
                    ).encode()
                )
                await writer.drain()
            writer.close()

        server = await asyncio.start_server(handle, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        client = await SessionClient.connect("127.0.0.1", port)
        try:
            for cls in taxonomy_classes():
                with pytest.raises(cls) as caught:
                    await client.execute(cls.__name__)
                assert type(caught.value) is cls
            with pytest.raises(RemoteError):
                await client.execute("TotallyMadeUpError")
        finally:
            await client.close()
            server.close()
            await server.wait_closed()

    asyncio.run(scenario())


# -- load shedding ------------------------------------------------------------


def test_overloaded_server_sheds_with_typed_error(db):
    async def scenario():
        server = SessionServer(db, max_inflight=0)
        await server.start()
        try:
            client = await SessionClient.connect(server.host, server.port)
            with pytest.raises(OverloadedError):
                await client.execute("SELECT val FROM kv WHERE id = 1")
            await client.close()
            assert server.shed == 1
        finally:
            await server.stop()

    asyncio.run(scenario())


def test_shedding_only_past_the_inflight_cap(db):
    async def scenario():
        server = SessionServer(db, max_inflight=1)
        await server.start()
        blocker = db.session()
        try:
            blocker.execute("BEGIN")
            blocker.execute("UPDATE kv SET val = 99 WHERE id = 1")
            first = await SessionClient.connect(server.host, server.port)
            second = await SessionClient.connect(server.host, server.port)
            # First statement blocks on the row lock: it occupies the
            # single in-flight slot without completing.
            blocked = asyncio.ensure_future(
                first.execute("UPDATE kv SET val = 100 WHERE id = 1")
            )
            await asyncio.sleep(0.1)
            assert server._inflight == 1
            with pytest.raises(OverloadedError):
                await second.execute("SELECT val FROM kv WHERE id = 2")
            blocker.execute("COMMIT")
            # The blocked statement completes (first-updater-wins makes
            # it a typed conflict — still a served statement, not a shed
            # one).
            with pytest.raises(TransactionConflictError):
                await blocked
            assert server.shed == 1
            await first.close()
            await second.close()
        finally:
            blocker.close()
            await server.stop()

    asyncio.run(scenario())


# -- graceful shutdown (satellite 2) ------------------------------------------


def test_draining_server_answers_with_shutdown_error(db):
    async def scenario():
        server = SessionServer(db)
        await server.start()
        try:
            client = await SessionClient.connect(server.host, server.port)
            got = await client.execute("SELECT val FROM kv WHERE id = 1")
            assert got["rows"] == [{"val": 10}]
            server._draining = True
            with pytest.raises(ShutdownError):
                await client.execute("SELECT val FROM kv WHERE id = 1")
            server._draining = False
            got = await client.execute("SELECT val FROM kv WHERE id = 1")
            assert got["rows"] == [{"val": 10}]
            await client.close()
        finally:
            await server.stop()

    asyncio.run(scenario())


def test_graceful_stop_drains_inflight_statement(db):
    async def scenario():
        server = SessionServer(db)
        await server.start()
        blocker = db.session()
        blocker.execute("BEGIN")
        blocker.execute("UPDATE kv SET val = 99 WHERE id = 1")
        client = await SessionClient.connect(server.host, server.port)
        inflight = asyncio.ensure_future(
            client.execute("UPDATE kv SET val = 100 WHERE id = 1")
        )
        await asyncio.sleep(0.1)
        assert server._inflight == 1
        stopping = asyncio.ensure_future(server.stop(drain_timeout=10.0))
        await asyncio.sleep(0.1)
        assert server._draining
        assert not stopping.done(), "stop() must wait for in-flight work"
        # Unblock directly (not over the wire — the wire is draining).
        blocker.execute("COMMIT")
        blocker.close()
        await asyncio.wait_for(stopping, timeout=5)
        # The drained statement finished with a typed outcome.
        with pytest.raises(TransactionConflictError):
            await inflight
        assert server.stragglers == 0
        # The listener is gone: new connections fail typed.
        with pytest.raises(NetworkError):
            await SessionClient.connect(server.host, server.port, timeout=1)
        await client.close()

    asyncio.run(scenario())


def test_stop_deadline_cancels_stragglers_and_rolls_back(db):
    async def scenario():
        server = SessionServer(db)
        await server.start()
        holder = await SessionClient.connect(server.host, server.port)
        await holder.execute("BEGIN")
        await holder.execute("UPDATE kv SET val = 777 WHERE id = 1")
        blocked_client = await SessionClient.connect(server.host, server.port)
        blocked = asyncio.ensure_future(
            blocked_client.execute("SELECT val FROM kv WHERE id = 1")
        )
        # Make the read-only statement a genuine straggler by occupying
        # its executor thread behind the row lock.
        blocked.cancel()  # the client side gives up; server side runs on
        writer_stmt = asyncio.ensure_future(
            blocked_client.execute("UPDATE kv SET val = 888 WHERE id = 1")
        )
        await asyncio.sleep(0.1)
        assert server._inflight >= 1
        await server.stop(drain_timeout=0.2)
        # The deadline expired with the statement still lock-blocked:
        # it was counted and cancelled, and the holder's open
        # transaction was rolled back by straggler cleanup.
        assert server.stragglers >= 1
        assert db.query("SELECT val FROM kv WHERE id = 1") == [{"val": 10}]
        with pytest.raises((NetworkError, asyncio.CancelledError)):
            await writer_stmt
        await holder.close()
        await blocked_client.close()

    asyncio.run(scenario())


# -- client timeouts ----------------------------------------------------------


def test_statement_timeout_raises_network_error_and_closes(db):
    async def scenario():
        server = SessionServer(db)
        await server.start()
        blocker = db.session()
        try:
            blocker.execute("BEGIN")
            blocker.execute("UPDATE kv SET val = 99 WHERE id = 2")
            client = await SessionClient.connect(server.host, server.port)
            with pytest.raises(NetworkError) as caught:
                await client.execute(
                    "UPDATE kv SET val = 5 WHERE id = 2", timeout=0.2
                )
            assert "outcome unknown" in str(caught.value)
            blocker.execute("ROLLBACK")
        finally:
            blocker.close()
            await server.stop()

    asyncio.run(scenario())


def test_connect_failure_raises_network_error():
    async def scenario():
        # A port nothing listens on: refused (or at worst timed out) —
        # either path must classify as NetworkError.
        with pytest.raises(NetworkError):
            await SessionClient.connect("127.0.0.1", 1, timeout=1)

    asyncio.run(scenario())


# -- failover client ----------------------------------------------------------


def fast_backoff(max_attempts=6):
    return BackoffPolicy(
        base_delay=0.001, cap=0.005, seed=7, max_attempts=max_attempts
    )


def test_failover_client_rides_over_a_dying_server(db):
    async def scenario():
        first = SessionServer(db)
        second = SessionServer(db)
        await first.start()
        await second.start()
        client = FailoverClient(
            [(first.host, first.port), (second.host, second.port)],
            connect_timeout=1.0,
            statement_timeout=5.0,
            backoff=fast_backoff(),
        )
        try:
            got = await client.execute("SELECT val FROM kv WHERE id = 1")
            assert got["rows"] == [{"val": 10}]
            assert client.failovers == 0
            await first.stop()
            got = await client.execute("SELECT val FROM kv WHERE id = 1")
            assert got["rows"] == [{"val": 10}]
            assert client.failovers >= 1
            assert client.endpoint == (second.host, second.port)
        finally:
            await client.close()
            await second.stop()

    asyncio.run(scenario())


def test_failover_exhaustion_is_typed_with_cause():
    async def scenario():
        client = FailoverClient(
            [("127.0.0.1", 1), ("127.0.0.1", 2)],
            connect_timeout=0.2,
            backoff=fast_backoff(max_attempts=3),
        )
        with pytest.raises(ReplicaUnavailableError) as caught:
            await client.execute("SELECT 1")
        assert isinstance(caught.value.__cause__, NetworkError)
        assert client.failovers == 3

    asyncio.run(scenario())


def test_overload_retries_same_endpoint_with_backoff(db):
    async def scenario():
        server = SessionServer(db, max_inflight=0)
        await server.start()
        endpoint = (server.host, server.port)
        client = FailoverClient(
            [endpoint], backoff=fast_backoff(max_attempts=4)
        )
        try:
            with pytest.raises(ReplicaUnavailableError) as caught:
                await client.execute("SELECT val FROM kv WHERE id = 1")
            assert isinstance(caught.value.__cause__, OverloadedError)
            # Overload rejections never fail over: the statement never
            # ran, and the endpoint is alive — it asked for backoff.
            assert client.failovers == 0
            assert client.sheds_seen == 4
            assert client.endpoint == endpoint
        finally:
            await client.close()
            await server.stop()

    asyncio.run(scenario())


def test_non_idempotent_statement_not_blind_retried(db):
    async def scenario():
        first = SessionServer(db)
        second = SessionServer(db)
        await first.start()
        await second.start()
        client = FailoverClient(
            [(first.host, first.port), (second.host, second.port)],
            backoff=fast_backoff(),
        )
        try:
            await client.execute("SELECT val FROM kv WHERE id = 1")
            await first.stop()
            # The send fails mid-statement: outcome unknown, and a
            # non-idempotent write must surface that instead of silently
            # running twice on the next endpoint.
            with pytest.raises(NetworkError):
                await client.execute(
                    "UPDATE kv SET val = val + 1 WHERE id = 1",
                    idempotent=False,
                )
            assert client.failovers == 1
            # The client is still usable for the next (idempotent) call.
            got = await client.execute("SELECT val FROM kv WHERE id = 1")
            assert got["rows"] == [{"val": 10}]
        finally:
            await client.close()
            await second.stop()

    asyncio.run(scenario())


def test_backoff_budget_allows_exact_boundary_then_raises():
    """ISSUE 10, satellite (a): ``max_elapsed`` bounds total backoff on
    the virtual clock.  A delay landing the total exactly on the budget
    is granted; the first delay that would exceed it raises typed, with
    the provoking failure chained as ``__cause__``."""
    policy = BackoffPolicy(
        base_delay=0.01,
        multiplier=2.0,
        cap=1.0,
        jitter=0.0,
        max_elapsed=0.03,
    )
    assert policy.delay(0) == pytest.approx(0.01)
    # 0.01 + 0.02 == max_elapsed exactly: the boundary is inclusive.
    assert policy.delay(1) == pytest.approx(0.02)
    assert policy.elapsed == pytest.approx(0.03)
    cause = NetworkError("endpoint reset mid-statement")
    with pytest.raises(ReplicaUnavailableError) as caught:
        policy.delay(2, cause=cause)
    assert caught.value.__cause__ is cause
    assert policy.exhaustions == 1
    # Nothing was spent by the refused delay: neither the ledger nor
    # the virtual clock moved.
    assert policy.elapsed == pytest.approx(0.03)
    assert policy.clock.now == pytest.approx(0.03)
    # A reset opens a fresh budget window for the next operation.
    policy.reset()
    assert policy.delay(0) == pytest.approx(0.01)


def test_backoff_without_budget_never_exhausts():
    policy = BackoffPolicy(base_delay=0.01, cap=0.05, jitter=0.0, seed=0)
    total = sum(policy.delay(attempt) for attempt in range(50))
    assert policy.exhaustions == 0
    assert policy.elapsed == pytest.approx(total)


def test_exhausted_backoff_budget_cuts_retry_loop_short():
    """The budget binds tighter than max_attempts: with every endpoint
    unreachable, the client gives up as soon as one more delay would
    blow the budget — and the surfaced error chains the real cause."""

    async def scenario():
        policy = BackoffPolicy(
            base_delay=0.001,
            multiplier=2.0,
            cap=0.01,
            jitter=0.0,
            max_elapsed=0.001,
            max_attempts=50,
        )
        client = FailoverClient(
            [("127.0.0.1", 1)],  # reserved port: connect always fails
            connect_timeout=0.2,
            backoff=policy,
        )
        try:
            with pytest.raises(ReplicaUnavailableError) as caught:
                await client.execute("SELECT val FROM kv WHERE id = 1")
            assert isinstance(caught.value.__cause__, NetworkError)
            assert policy.exhaustions == 1
            # Far fewer than max_attempts were made before the budget bound.
            assert client.retries < 5
        finally:
            await client.close()

    asyncio.run(scenario())


def test_fenced_endpoint_redirects_even_non_idempotent(tmp_path):
    """A deposed primary answers every write with FencedError — a
    known-outcome rejection (nothing executed), so the client redirects
    to the next endpoint and re-issues even a non-idempotent statement
    exactly once."""
    from repro.errors import FencedError
    from repro.replication import ClusterFence

    async def scenario():
        deposed = SoftDB.open(tmp_path / "deposed")
        deposed.execute("CREATE TABLE kv (id INT PRIMARY KEY, val INT)")
        deposed.execute("INSERT INTO kv VALUES (1, 10)")
        fence = ClusterFence()
        deposed.durability.fence = fence
        deposed.durability.promotion_epoch = fence.epoch
        fence.advance()  # the cluster moved on: this node is deposed
        current = SoftDB()
        current.execute("CREATE TABLE kv (id INT PRIMARY KEY, val INT)")
        current.execute("INSERT INTO kv VALUES (1, 10)")
        first = SessionServer(deposed)
        second = SessionServer(current)
        await first.start()
        await second.start()
        client = FailoverClient(
            [(first.host, first.port), (second.host, second.port)],
            backoff=fast_backoff(),
        )
        try:
            # Direct writes on the deposed node really are fenced.
            with pytest.raises(FencedError):
                deposed.execute("UPDATE kv SET val = 99 WHERE id = 1")
            got = await client.execute(
                "UPDATE kv SET val = val + 1 WHERE id = 1",
                idempotent=False,
            )
            assert got["rowcount"] == 1
            assert client.fenced_seen == 1
            assert client.failovers == 1
            # Applied exactly once, on the current primary only.
            assert current.query("SELECT val FROM kv") == [{"val": 11}]
            assert deposed.query("SELECT val FROM kv") == [{"val": 10}]
        finally:
            await client.close()
            await first.stop()
            await second.stop()
            deposed.close(checkpoint=False)
            current.close()

    asyncio.run(scenario())


def test_backoff_policy_is_capped_and_jittered():
    policy = BackoffPolicy(
        base_delay=0.01, multiplier=2.0, cap=0.05, jitter=0.5, seed=3
    )
    delays = [policy.delay(attempt) for attempt in range(10)]
    assert all(0 < delay <= 0.05 for delay in delays)
    # Jitter: two policies with different seeds disagree, same seed agrees.
    again = BackoffPolicy(
        base_delay=0.01, multiplier=2.0, cap=0.05, jitter=0.5, seed=3
    )
    assert [again.delay(a) for a in range(10)] == delays
    other = BackoffPolicy(
        base_delay=0.01, multiplier=2.0, cap=0.05, jitter=0.5, seed=4
    )
    assert [other.delay(a) for a in range(10)] != delays
